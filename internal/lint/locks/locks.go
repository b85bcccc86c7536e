// Package locks holds the two mutex contracts of the transport stack,
// both driven by one path-sensitive walk of the locks each statement
// runs under.
//
// LockRPC (lockrpc): a mutex is never held across an RPC. The routing
// state guarded by node mutexes (successor lists, ring tables, caches)
// must be copied under the lock, the lock released, and only then may
// the network be consulted — otherwise one slow peer stalls every local
// operation that touches the same state, and in the worst case (an RPC
// that re-enters the node) deadlocks it. An "RPC" is any call whose
// signature carries a parameter of the wire Request type —
// wire.Caller.Call itself, and every helper that forwards to it.
//
// LockOrder (lockorder): the program-wide mutex acquisition order is
// acyclic — the deadlock class -race cannot see. It records an edge A→B
// whenever B is acquired while A is held: directly, or through a call
// whose transitive may-lock summary contains B. Summaries are computed
// to a fixpoint over every loaded package, so an edge from
// transport.Node.mu into replica.Engine.mu or routes.Table.mu is seen
// even though the acquisitions live in different packages. Every edge
// inside a strongly connected component of that graph (including a
// self-edge — re-acquiring a class that is already held) is reported at
// the position of the offending acquisition.
//
// A lock class is a mutex's declaration site: a named struct field
// (pkg.Type.field — every instance of wire.muxConn.mu is one class), a
// package-level var, or a function-local var. A receiver that resolves
// to none of these (n.locks[i]) is a class of its own function, named by
// its source text.
//
// The walk: a sync.Mutex/RWMutex is held from its Lock/RLock until an
// Unlock/RUnlock in the same or a nested statement list; `defer
// mu.Unlock()` holds it for the rest of the function. An Unlock inside a
// nested block clears the lock for that block's remaining statements
// only (the early-unlock-and-return idiom), not for the outer list.
// Function literals are separate functions, and a goroutine spawned under
// the lock does not itself hold it: `go f(x)` runs f without the lock,
// while x (and a method's receiver) is evaluated under it.
package locks

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// LockRPC is the lockrpc pass.
var LockRPC = &analysis.Analyzer{
	Name: "lockrpc",
	Doc:  "forbid holding a mutex across wire RPC calls",
	Run:  runRPC,
}

func runRPC(pass *analysis.Pass) error {
	for _, fn := range funcs(pass.Fset, pass.Files, pass.TypesInfo) {
		w := &walker{fn: fn, call: func(call *ast.CallExpr, held map[classID]site) {
			if !isRPC(fn.info, call) {
				return
			}
			sites := make([]site, 0, len(held))
			for _, s := range held {
				sites = append(sites, s)
			}
			sort.Slice(sites, func(i, j int) bool { return sites[i].text < sites[j].text })
			for _, s := range sites {
				pass.Reportf(call.Pos(),
					"RPC %s while %q is held (locked at line %d); copy state under the lock, release it, then call",
					types.ExprString(call.Fun), s.text, pass.Fset.Position(s.pos).Line)
			}
		}}
		w.walk()
	}
	return nil
}

// isRPC reports whether call's signature carries a wire.Request
// parameter — wire.Caller.Call and everything that forwards to it.
// Methods named *Locked are exempt by the repo's naming convention:
// the suffix declares "runs under the caller's lock, touches no
// network" (server-side dispatch handing a Request to a local helper).
func isRPC(info *types.Info, call *ast.CallExpr) bool {
	var sig *types.Signature
	if fn := analysis.CalleeFunc(info, call); fn != nil {
		if strings.HasSuffix(fn.Name(), "Locked") {
			return false
		}
		sig = fn.Type().(*types.Signature)
	} else if tv, ok := info.Types[call.Fun]; ok {
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if analysis.NamedFromPkg(sig.Params().At(i).Type(), "wire", "Request") {
			return true
		}
	}
	return false
}

// classID identifies one lock class: "pkgpath.Type.field",
// "pkgpath.var", "pkgpath.func.local" or "pkgpath.func.<source text>".
type classID string

// funcKey identifies a function across units: "pkgpath.Recv.Name" —
// string-keyed so a call resolved against a bodies-ignored dependency
// package matches the fully-checked unit that owns the body.
type funcKey string

// site is where a held lock was taken, and its receiver as written.
type site struct {
	pos  token.Pos
	text string
}

// fnDecl is one function declaration with a body and its unit's types.
type fnDecl struct {
	key  funcKey
	info *types.Info
	decl *ast.FuncDecl
}

// funcs lists the function declarations with a body outside test files.
func funcs(fset *token.FileSet, files []*ast.File, info *types.Info) []fnDecl {
	var out []fnDecl
	for _, f := range files {
		if strings.HasSuffix(path.Base(fset.Position(f.Pos()).Filename), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, _ := info.Defs[fd.Name].(*types.Func); fn != nil {
				out = append(out, fnDecl{key: keyOf(fn), info: info, decl: fd})
			}
		}
	}
	return out
}

// keyOf builds the cross-unit key of a function or method.
func keyOf(fn *types.Func) funcKey {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := namedName(sig.Recv().Type()); name != "" {
			recv = name + "."
		}
	}
	return funcKey(pkg + "." + recv + fn.Name())
}

func namedName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// mutexOp classifies a call as a sync Lock/RLock or Unlock/RUnlock and
// resolves its receiver's class.
func mutexOp(fn fnDecl, call *ast.CallExpr) (cls classID, s site, lock, unlock bool) {
	callee := analysis.CalleeFunc(fn.info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return "", site{}, false, false
	}
	lock = callee.Name() == "Lock" || callee.Name() == "RLock"
	unlock = callee.Name() == "Unlock" || callee.Name() == "RUnlock"
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !lock && !unlock {
		return "", site{}, false, false
	}
	s = site{pos: call.Pos(), text: types.ExprString(sel.X)}
	cls, ok = classOf(fn, sel.X)
	if !ok {
		cls = classID(string(fn.key) + "." + s.text)
	}
	return cls, s, lock, unlock
}

// classOf resolves a mutex expression to its declaration's lock class.
func classOf(fn fnDecl, x ast.Expr) (classID, bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if sel, ok := fn.info.Selections[x]; ok {
			obj := sel.Obj()
			if obj == nil || obj.Pkg() == nil {
				return "", false
			}
			if owner := namedName(sel.Recv()); owner != "" {
				return classID(obj.Pkg().Path() + "." + owner + "." + obj.Name()), true
			}
			return classID(obj.Pkg().Path() + "." + obj.Name()), true
		}
		if obj := fn.info.Uses[x.Sel]; obj != nil && obj.Pkg() != nil {
			return classID(obj.Pkg().Path() + "." + obj.Name()), true // pkg-qualified var
		}
	case *ast.Ident:
		v, ok := analysis.ObjectOf(fn.info, x).(*types.Var)
		if !ok || v.Pkg() == nil {
			return "", false
		}
		if v.Parent() == v.Pkg().Scope() || v.IsField() {
			return classID(v.Pkg().Path() + "." + v.Name()), true
		}
		// Function-local mutex: scoped to this function's key, so two
		// functions' locals never alias.
		return classID(string(fn.key) + "." + v.Name()), true
	}
	return "", false
}

// walker walks one function path-sensitively, tracking the held set and
// handing each acquisition and each call made under a lock to its hooks.
type walker struct {
	fn fnDecl
	// acquire, when set, sees cls taken at pos before it joins held.
	acquire func(cls classID, pos token.Pos, held map[classID]site)
	// call sees every call other than a lock operation made while
	// something is held.
	call func(call *ast.CallExpr, held map[classID]site)
}

func (w *walker) walk() { w.list(w.fn.decl.Body.List, map[classID]site{}) }

func clone(held map[classID]site) map[classID]site {
	out := make(map[classID]site, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// list walks one statement list in order. Nested lists get a copy of
// the held set so an early unlock on one path does not leak into its
// siblings.
func (w *walker) list(stmts []ast.Stmt, held map[classID]site) {
	for _, stmt := range stmts {
		w.stmt(stmt, held)
	}
}

func (w *walker) stmt(stmt ast.Stmt, held map[classID]site) {
	switch st := stmt.(type) {
	case *ast.DeferStmt:
		if _, _, _, unlock := mutexOp(w.fn, st.Call); unlock {
			return // held until return; the rest of the list is under it
		}
		w.tree(st, held)
	case *ast.BlockStmt:
		w.list(st.List, clone(held))
	case *ast.IfStmt:
		if st.Init != nil {
			w.tree(st.Init, held)
		}
		w.tree(st.Cond, held)
		w.list(st.Body.List, clone(held))
		if st.Else != nil {
			w.stmt(st.Else, clone(held))
		}
	case *ast.ForStmt:
		for _, n := range []ast.Node{st.Init, st.Cond, st.Post} {
			if n != nil {
				w.tree(n, held)
			}
		}
		w.list(st.Body.List, clone(held))
	case *ast.RangeStmt:
		w.tree(st.X, held)
		w.list(st.Body.List, clone(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.tree(st.Init, held)
		}
		if st.Tag != nil {
			w.tree(st.Tag, held)
		}
		w.clauses(st.Body, held)
	case *ast.TypeSwitchStmt:
		w.clauses(st.Body, held)
	case *ast.SelectStmt:
		w.clauses(st.Body, held)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	case *ast.GoStmt:
		// The spawned call runs on its own goroutine, holding nothing, but
		// its function value and arguments are evaluated here: the
		// receiver of a method (not the method call itself), a function
		// value an expression computes, and every argument.
		fun := ast.Unparen(st.Call.Fun)
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			fun = sel.X
		}
		w.tree(fun, held) // a FuncLit gets a fresh held set there
		for _, arg := range st.Call.Args {
			w.tree(arg, held)
		}
	default:
		w.tree(stmt, held)
	}
}

// clauses walks each case of a switch or select on its own copy of held.
func (w *walker) clauses(body *ast.BlockStmt, held map[classID]site) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			w.list(cc.Body, clone(held))
		case *ast.CommClause:
			inner := clone(held)
			if cc.Comm != nil {
				w.stmt(cc.Comm, inner)
			}
			w.list(cc.Body, inner)
		}
	}
}

// tree inspects a subtree with no statement lists of its own: lock
// operations in it update held, and other calls go to the call hook.
// Function literals start over with nothing held — they run on their
// own goroutine's (or caller's) schedule.
func (w *walker) tree(n ast.Node, held map[classID]site) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.list(n.Body.List, map[classID]site{})
			return false
		case *ast.CallExpr:
			if cls, s, lock, unlock := mutexOp(w.fn, n); lock {
				if w.acquire != nil {
					w.acquire(cls, s.pos, held)
				}
				held[cls] = s
				return false
			} else if unlock {
				delete(held, cls)
				return false
			} else if len(held) > 0 {
				w.call(n, held)
			}
		}
		return true
	})
}
