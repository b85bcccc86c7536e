package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// LockOrder is the lockorder pass.
var LockOrder = &analysis.Analyzer{
	Name:       "lockorder",
	Doc:        "flag cycles in the program-wide mutex acquisition graph (potential lock-order deadlocks)",
	RunProgram: runOrder,
}

// edge is one observed acquisition order: to was acquired while from
// was held.
type edge struct {
	from, to classID
	pos      token.Pos
	via      string // callee name for summary-derived edges, "" for direct Lock
}

type fnInfo struct {
	fnDecl
	callees []funcKey
	maylock map[classID]bool
}

func runOrder(pass *analysis.ProgramPass) error {
	g := &graph{pass: pass, edges: map[[2]classID]*edge{}}
	var fns []*fnInfo
	byKey := map[funcKey]*fnInfo{}
	for _, u := range pass.Units {
		for _, fn := range funcs(pass.Fset, u.Files, u.TypesInfo) {
			fi := &fnInfo{fnDecl: fn, maylock: map[classID]bool{}}
			fi.summarize()
			fns = append(fns, fi)
			// Two units can both carry a body for one key only if a
			// package is loaded twice; last one wins, harmlessly.
			byKey[fi.key] = fi
		}
	}
	// May-lock fixpoint: propagate callee summaries until stable.
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			for _, ck := range fi.callees {
				callee, ok := byKey[ck]
				if !ok {
					continue
				}
				for c := range callee.maylock {
					if !fi.maylock[c] {
						fi.maylock[c] = true
						changed = true
					}
				}
			}
		}
	}
	// Edge generation: path-sensitive walk of every body.
	for _, fi := range fns {
		w := &walker{
			fn: fi.fnDecl,
			acquire: func(cls classID, pos token.Pos, held map[classID]site) {
				for h := range held {
					g.addEdge(h, cls, pos, "")
				}
			},
			call: func(call *ast.CallExpr, held map[classID]site) {
				fn := analysis.CalleeFunc(fi.info, call)
				if fn == nil {
					return
				}
				callee, ok := byKey[keyOf(fn)]
				if !ok {
					return
				}
				for c := range callee.maylock {
					for h := range held {
						g.addEdge(h, c, call.Pos(), fn.Name())
					}
				}
			},
		}
		w.walk()
	}
	g.reportCycles()
	return nil
}

// summarize records the classes fi acquires itself (the seed of its
// may-lock set) and its resolvable callees. Function literals and
// goroutine bodies are excluded: their execution is not part of this
// function's lock region.
func (fi *fnInfo) summarize() {
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if cls, _, lock, _ := mutexOp(fi.fnDecl, n); lock {
				fi.maylock[cls] = true
			} else if fn := analysis.CalleeFunc(fi.info, n); fn != nil {
				fi.callees = append(fi.callees, keyOf(fn))
			}
		}
		return true
	})
}

type graph struct {
	pass  *analysis.ProgramPass
	edges map[[2]classID]*edge
	order [][2]classID // insertion order, for deterministic reporting
}

func (g *graph) addEdge(from, to classID, pos token.Pos, via string) {
	k := [2]classID{from, to}
	if _, ok := g.edges[k]; ok {
		return
	}
	g.edges[k] = &edge{from: from, to: to, pos: pos, via: via}
	g.order = append(g.order, k)
}

// reportCycles runs Tarjan's SCC over the class graph and reports every
// edge that stays inside a component (plus self-edges).
func (g *graph) reportCycles() {
	adj := map[classID][]classID{}
	var nodes []classID
	seen := map[classID]bool{}
	addNode := func(c classID) {
		if !seen[c] {
			seen[c] = true
			nodes = append(nodes, c)
		}
	}
	for _, k := range g.order {
		addNode(k[0])
		addNode(k[1])
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, c := range nodes {
		sort.Slice(adj[c], func(i, j int) bool { return adj[c][i] < adj[c][j] })
	}

	comp := tarjan(nodes, adj)
	compSize := map[int]int{}
	for _, id := range comp {
		compSize[id]++
	}
	members := map[int][]classID{}
	for _, c := range nodes {
		members[comp[c]] = append(members[comp[c]], c)
	}
	for _, k := range g.order {
		e := g.edges[k]
		self := e.from == e.to
		if !self && (comp[e.from] != comp[e.to] || compSize[comp[e.from]] < 2) {
			continue
		}
		var msg string
		if self {
			msg = fmt.Sprintf("lock %s acquired while already held", short(e.from))
		} else {
			cyc := members[comp[e.from]]
			parts := make([]string, len(cyc))
			for i, c := range cyc {
				parts[i] = short(c)
			}
			msg = fmt.Sprintf("lock %s acquired while %s is held, but the reverse order also exists (cycle: %s)",
				short(e.to), short(e.from), strings.Join(parts, " ⇄ "))
		}
		if e.via != "" {
			msg += fmt.Sprintf(" — via call to %s", e.via)
		}
		g.pass.Reportf(e.pos, "%s; a second goroutine taking these in the opposite order deadlocks", msg)
	}
}

// short trims the import-path prefix off a class ID for readable
// diagnostics: "repro/internal/wire.muxConn.mu" → "wire.muxConn.mu".
func short(c classID) string {
	s := string(c)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		return s[i+1:]
	}
	return s
}

// tarjan computes strongly connected components; the returned map
// assigns each node a component id.
func tarjan(nodes []classID, adj map[classID][]classID) map[classID]int {
	index := map[classID]int{}
	low := map[classID]int{}
	onStack := map[classID]bool{}
	comp := map[classID]int{}
	var stack []classID
	next, ncomp := 0, 0

	var strongconnect func(v classID)
	strongconnect = func(v classID) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return comp
}
