package simcheck

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/binning"
	"repro/internal/id"
	"repro/internal/transport"
	"repro/internal/wire"
)

// nodeView pairs one live node's snapshot with what the harness knows
// independently about it: its slot and the ring names an out-of-band
// binning computation assigns to its coordinates.
type nodeView struct {
	Slot        int
	Snap        transport.Snapshot
	ExpectNames []string
}

// world is everything an invariant may look at: snapshots of all live
// nodes (taken before any checker runs, so structural checks see the
// state as-is, not as repaired by their own probe traffic), the data
// model, and callbacks into the cluster for the active checks
// (reachability lookups, data reads).
type world struct {
	Depth       int
	Factor      int    // replication factor every node runs
	Now         uint64 // harness logical clock at snapshot time
	Quiescent   bool
	Partitioned bool
	Live        []nodeView // ascending slot order
	Model       *model

	lookup func(slot int, key id.ID) (transport.LookupResult, error)
	get    func(slot int, key string) ([]byte, error)
}

func (h *harness) world(quiescent bool) *world {
	w := &world{
		Depth:       h.cfg.Depth,
		Factor:      h.replOptions().Factor,
		Now:         h.clock.Load(),
		Quiescent:   quiescent,
		Partitioned: h.partitioned,
		Model:       h.model,
		lookup: func(slot int, key id.ID) (transport.LookupResult, error) {
			return h.nodes[slot].Lookup(h.d.Context(), key)
		},
		get: func(slot int, key string) ([]byte, error) {
			return h.nodes[slot].Get(h.d.Context(), key)
		},
	}
	for _, s := range h.liveSlots() {
		w.Live = append(w.Live, nodeView{
			Slot:        s,
			Snap:        h.nodes[s].Snapshot(),
			ExpectNames: h.expectNames[s],
		})
	}
	return w
}

// Invariant is one named property of the cluster. Always-on invariants
// hold after every operation, partitioned or not; quiescent invariants
// are exact statements that only hold once maintenance has reached a
// fixpoint with no partition active.
type Invariant struct {
	Name      string
	Quiescent bool
	Check     func(*world) error
}

// registry returns the full invariant suite in evaluation order.
// Structural (snapshot-only) checks come first: the active checks at the
// end route real lookups through the cluster, and those walks repair
// state via eviction as a side effect — they must not get the chance to
// mask a structural violation.
func registry() []Invariant {
	return []Invariant{
		{Name: "node-identity", Check: checkNodeIdentity},
		{Name: "ring-name-stability", Check: checkRingNames},
		{Name: "ring-refinement", Check: checkRefinement},
		{Name: "durability", Check: checkDurability},
		{Name: "route-table-accuracy", Check: checkRouteAccuracy},
		{Name: "ring-consistency", Quiescent: true, Check: checkRings},
		{Name: "finger-exactness", Quiescent: true, Check: checkFingers},
		{Name: "ring-table-exactness", Quiescent: true, Check: checkRingTables},
		{Name: "replica-placement", Quiescent: true, Check: checkPlacement},
		{Name: "data-lifecycle", Quiescent: true, Check: checkLifecycle},
		{Name: "reachability", Quiescent: true, Check: checkReachability},
		{Name: "data-safety", Quiescent: true, Check: checkData},
	}
}

// checkNodeIdentity: a node's identifier is a pure function of its
// address, and every running node has completed its join.
func checkNodeIdentity(w *world) error {
	for _, v := range w.Live {
		if want := slotAddr(v.Slot); v.Snap.Addr != want {
			return fmt.Errorf("slot %d reports address %q, want %q", v.Slot, v.Snap.Addr, want)
		}
		if want := transport.NodeID(v.Snap.Addr); !v.Snap.ID.Equal(want) {
			return fmt.Errorf("%s: id %s is not NodeID(addr) %s", v.Snap.Addr, v.Snap.ID.Short(), want.Short())
		}
		if !v.Snap.Joined {
			return fmt.Errorf("%s: running but not joined", v.Snap.Addr)
		}
	}
	return nil
}

// checkRingNames: the ring names a node advertises equal what distributed
// binning assigns to its (fixed) coordinates — landmark-order quantisation
// is stable across joins, churn and partitions.
func checkRingNames(w *world) error {
	for _, v := range w.Live {
		if !reflect.DeepEqual(v.Snap.RingNames, v.ExpectNames) {
			return fmt.Errorf("%s: ring names %v, binning of its coordinates says %v",
				v.Snap.Addr, v.Snap.RingNames, v.ExpectNames)
		}
	}
	return nil
}

// checkRefinement: deeper rings refine shallower ones — two nodes sharing
// a layer-l ring share every ring above it (HIERAS's nesting property).
func checkRefinement(w *world) error {
	names := make([][]string, 0, len(w.Live))
	for _, v := range w.Live {
		names = append(names, v.Snap.RingNames)
	}
	return binning.CheckRefinement(names)
}

// ringGroups collects, for one layer, the live members of every ring,
// keyed by ring name ("" for the global ring), each group sorted by node
// ID — the oracle ring order.
func ringGroups(w *world, layer int) map[string][]nodeView {
	groups := map[string][]nodeView{}
	for _, v := range w.Live {
		name := ""
		if layer > 1 {
			if layer-2 >= len(v.Snap.RingNames) {
				continue // depth-1 overlays have no lower rings
			}
			name = v.Snap.RingNames[layer-2]
		}
		groups[name] = append(groups[name], v)
	}
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i].Snap.ID.Less(g[j].Snap.ID) })
	}
	return groups
}

func layerSnap(v nodeView, layer int) (transport.LayerSnapshot, error) {
	for _, ls := range v.Snap.Layers {
		if ls.Layer == layer {
			return ls, nil
		}
	}
	return transport.LayerSnapshot{}, fmt.Errorf("%s: no layer-%d state", v.Snap.Addr, layer)
}

// checkRings: at a maintenance fixpoint every ring on every layer is
// exactly the sorted cycle of its live members — successor lists hold the
// next min(len-1, listLen) members in order, predecessors the previous
// member, with no dead or foreign entries anywhere.
func checkRings(w *world) error {
	for layer := 1; layer <= w.Depth; layer++ {
		for name, g := range ringGroups(w, layer) {
			for i, v := range g {
				ls, err := layerSnap(v, layer)
				if err != nil {
					return err
				}
				if ls.Name != name {
					return fmt.Errorf("%s layer %d: ring label %q, binned into %q", v.Snap.Addr, layer, ls.Name, name)
				}
				wantSucc := succListOracle(g, i)
				gotSucc := make([]string, 0, len(ls.Succ))
				for _, p := range ls.Succ {
					gotSucc = append(gotSucc, p.Addr)
				}
				if !reflect.DeepEqual(gotSucc, wantSucc) {
					return fmt.Errorf("%s layer %d ring %q: successor list %v, want %v",
						v.Snap.Addr, layer, name, gotSucc, wantSucc)
				}
				wantPred := g[(i-1+len(g))%len(g)].Snap.Addr
				if ls.Pred.Addr != wantPred {
					return fmt.Errorf("%s layer %d ring %q: predecessor %q, want %q",
						v.Snap.Addr, layer, name, ls.Pred.Addr, wantPred)
				}
			}
		}
	}
	return nil
}

// succListOracle is the converged successor list of member i in ring g:
// the following min(len(g)-1, listLen) members clockwise — or the node
// itself for a singleton ring.
func succListOracle(g []nodeView, i int) []string {
	const listLen = 4 // transport's default SuccListLen
	if len(g) == 1 {
		return []string{g[0].Snap.Addr}
	}
	k := len(g) - 1
	if k > listLen {
		k = listLen
	}
	out := make([]string, 0, k)
	for d := 1; d <= k; d++ {
		out = append(out, g[(i+d)%len(g)].Snap.Addr)
	}
	return out
}

// checkFingers: after a full finger rebuild at a fixpoint, finger k of
// every node equals the true successor of (self + 2^k) among the ring's
// live members — the ideal Chord table, per layer.
func checkFingers(w *world) error {
	for layer := 1; layer <= w.Depth; layer++ {
		for name, g := range ringGroups(w, layer) {
			ids := make([]id.ID, len(g))
			for i, v := range g {
				ids[i] = v.Snap.ID
			}
			for _, v := range g {
				ls, err := layerSnap(v, layer)
				if err != nil {
					return err
				}
				for k, f := range ls.Fingers {
					target := id.AddPow2(v.Snap.ID, uint(k))
					want := g[successorIndex(ids, target)].Snap.Addr
					if f.Addr != want {
						return fmt.Errorf("%s layer %d ring %q: finger %d is %q, ideal successor of self+2^%d is %q",
							v.Snap.Addr, layer, name, k, f.Addr, k, want)
					}
				}
			}
		}
	}
	return nil
}

// sortedByID orders views ascending by node ID — the ring order that
// successorIndex requires.
func sortedByID(views []nodeView) ([]nodeView, []id.ID) {
	byID := append([]nodeView(nil), views...)
	sort.Slice(byID, func(i, j int) bool { return byID[i].Snap.ID.Less(byID[j].Snap.ID) })
	ids := make([]id.ID, len(byID))
	for i, v := range byID {
		ids[i] = v.Snap.ID
	}
	return byID, ids
}

// successorIndex returns the index in ids (sorted ascending) of the first
// identifier clockwise-at-or-after key.
func successorIndex(ids []id.ID, key id.ID) int {
	for i, x := range ids {
		if !x.Less(key) {
			return i
		}
	}
	return 0 // wrapped past the largest id
}

// checkRingTables: every lower ring with live members has its ring table
// stored at the global successor of the ring's identifier, and — with
// dead boundaries pruned by the re-announce cycle — the boundary entries
// are exactly the extremes of the live membership (§3.1's four boundary
// nodes). A missing or misplaced table is the split window: the next
// joiner binned into the ring would start a second ring under its name.
func checkRingTables(w *world) error {
	byID, ids := sortedByID(w.Live)
	for layer := 2; layer <= w.Depth; layer++ {
		for name, g := range ringGroups(w, layer) {
			holder := byID[successorIndex(ids, transport.RingID(layer, name))]
			var table *wire.RingTable
			for i := range holder.Snap.Tables {
				t := &holder.Snap.Tables[i]
				if t.Layer == layer && t.Name == name {
					table = t
					break
				}
			}
			if table == nil {
				return fmt.Errorf("ring table (%d,%q) missing at its owner %s", layer, name, holder.Snap.Addr)
			}
			// g is sorted by ID; expected boundaries follow the
			// transport convention (second slots repeat the extremes
			// for a singleton ring).
			k := len(g)
			wantBounds := [4]string{g[0].Snap.Addr, g[0].Snap.Addr, g[k-1].Snap.Addr, g[k-1].Snap.Addr}
			if k >= 2 {
				wantBounds[1] = g[1].Snap.Addr
				wantBounds[3] = g[k-2].Snap.Addr
			}
			gotBounds := [4]string{table.Smallest.Addr, table.SecondSm.Addr, table.Largest.Addr, table.SecondLg.Addr}
			if gotBounds != wantBounds {
				return fmt.Errorf("ring table (%d,%q) at %s has boundaries %v, live extremes are %v",
					layer, name, holder.Snap.Addr, gotBounds, wantBounds)
			}
		}
	}
	return nil
}

// checkRouteAccuracy: the one-hop route tables stay truthful. Always
// on, it checks event well-formedness — the table tracks the global
// ring only, so every event is for layer 1 and the nameless ring (a
// lower-ring event is state no lookup reads), every gossiped peer
// identifier is NodeID(addr), and stamps are live — because a malformed
// event is a bug no matter how stale the table is allowed to be. At a
// quiescent fixpoint it is exact: on every live node, the Join-latest
// members equal the live set, so a table answer resolves to the true
// owner — the property that makes the single-hop tier a verified
// accelerator. Mid-churn the tables may lag behind membership; the
// verify-or-fallback contract covers that window (reachability and
// get-safety hold lookups to the true owner), so exactness is only
// asserted once maintenance has converged.
func checkRouteAccuracy(w *world) error {
	live := make([]string, 0, len(w.Live))
	for _, v := range w.Live {
		live = append(live, v.Snap.Addr)
	}
	sort.Strings(live)
	for _, v := range w.Live {
		if v.Snap.Routes == nil {
			return fmt.Errorf("%s: no one-hop route table in a one-hop cluster", v.Snap.Addr)
		}
		var members []string
		for _, ev := range v.Snap.Routes {
			if ev.Layer != 1 || ev.Ring != "" {
				return fmt.Errorf("%s: route event for %s names layer %d ring %q — the table tracks only the global ring (1, \"\")",
					v.Snap.Addr, ev.Peer.Addr, ev.Layer, ev.Ring)
			}
			if ev.Stamp == 0 {
				return fmt.Errorf("%s: route event for %s carries the zero stamp", v.Snap.Addr, ev.Peer.Addr)
			}
			if want := transport.NodeID(ev.Peer.Addr); ev.Peer.ID != [20]byte(want) {
				return fmt.Errorf("%s: route event identifies %s as %x, NodeID(addr) is %s",
					v.Snap.Addr, ev.Peer.Addr, ev.Peer.ID, want.Short())
			}
			if ev.Kind == wire.RouteJoin {
				members = append(members, ev.Peer.Addr)
			}
		}
		sort.Strings(members) // snapshot order is already sorted; re-sort defensively
		if w.Quiescent && strings.Join(members, " ") != strings.Join(live, " ") {
			return fmt.Errorf("%s: one-hop table members %v, live membership is %v", v.Snap.Addr, members, live)
		}
	}
	return nil
}

// checkReachability: from every live node, a lookup for every model key
// (plus fixed probes, so an empty store still exercises routing) reaches
// the true owner — the global successor of the key — within the hop
// bound. Key reachability is the paper's core correctness claim.
func checkReachability(w *world) error {
	byID, ids := sortedByID(w.Live)
	keys := append(w.Model.keys(), "probe-a", "probe-b")
	if len(keys) > 10 {
		keys = keys[:10]
	}
	bound := hopBound(len(w.Live), w.Depth)
	for _, v := range w.Live {
		for _, key := range keys {
			kid := transport.LiveKeyID(key)
			want := byID[successorIndex(ids, kid)].Snap.Addr
			res, err := w.lookup(v.Slot, kid)
			if err != nil {
				return fmt.Errorf("lookup %q from %s: %v", key, v.Snap.Addr, err)
			}
			if res.Owner.Addr != want {
				return fmt.Errorf("lookup %q from %s: owner %q, true owner %q",
					key, v.Snap.Addr, res.Owner.Addr, want)
			}
			if res.Hops > bound {
				return fmt.Errorf("lookup %q from %s: %d hops exceeds bound %d", key, v.Snap.Addr, res.Hops, bound)
			}
		}
	}
	return nil
}

// checkDurability: no acknowledged write is ever lost — every key whose
// put reached a write quorum is still held, with a value that was
// actually written, by at least one live node. Snapshot-only, so it is
// always-on: it must hold mid-partition and mid-churn, with no
// exemptions for crashes or failed handoffs. A write quorum of 2 puts
// copies on two nodes, each crash destroys at most one, and the
// death-triggered sweeps between ops restore the factor — so a key with
// zero surviving copies is always a replication bug, never bad luck.
func checkDurability(w *world) error {
	held := map[string]map[string]bool{} // key → values held by any live node
	for _, v := range w.Live {
		for _, it := range v.Snap.Items {
			if held[it.Key] == nil {
				held[it.Key] = map[string]bool{}
			}
			held[it.Key][string(it.Value)] = true
		}
	}
	acked := make([]string, 0, len(w.Model.acked))
	for k := range w.Model.acked {
		acked = append(acked, k)
	}
	sort.Strings(acked)
	for _, key := range acked {
		if w.Model.deleted[key] || w.Model.expired(key, w.Now) {
			// An acknowledged tombstone or a lapsed lease releases the
			// durability promise: the whole point of the lifecycle is
			// that this data is allowed — required, at a fixpoint — to
			// disappear.
			continue
		}
		vals := held[key]
		if len(vals) == 0 {
			return fmt.Errorf("acknowledged key %q is held by no live node — every quorum copy was lost", key)
		}
		written := false
		for val := range vals {
			if w.Model.vals[key][val] {
				written = true
				break
			}
		}
		if !written {
			return fmt.Errorf("acknowledged key %q survives only with values that were never written", key)
		}
	}
	return nil
}

// replicaMembers is the oracle replica set of key: the global successor
// of the key's identifier plus the next min(factor, n)−1 distinct live
// nodes clockwise — the same rule the transport's replica-set resolution
// follows, recomputed here from nothing but snapshots.
func replicaMembers(byID []nodeView, ids []id.ID, key string, factor int) []string {
	k := factor
	if k > len(byID) {
		k = len(byID)
	}
	start := successorIndex(ids, transport.LiveKeyID(key))
	out := make([]string, 0, k)
	for d := 0; d < k; d++ {
		out = append(out, byID[(start+d)%len(byID)].Snap.Addr)
	}
	return out
}

// checkPlacement: at a maintenance fixpoint every stored key sits on
// exactly its replica set, every member holds the identical stamped
// item, and no other node holds a copy. Missing members would be filled
// by the next sweep and stray copies dropped by it, so any deviation at
// a fixpoint is a replication bug — an owner-copy-only write fails here
// at the first quiescent checkpoint after a single put.
func checkPlacement(w *world) error {
	byID, ids := sortedByID(w.Live)
	holders := map[string]map[string]wire.StoreItem{} // key → holder addr → item
	for _, v := range w.Live {
		for _, it := range v.Snap.Items {
			if holders[it.Key] == nil {
				holders[it.Key] = map[string]wire.StoreItem{}
			}
			holders[it.Key][v.Snap.Addr] = it
		}
	}
	keys := make([]string, 0, len(holders))
	for k := range holders {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		members := replicaMembers(byID, ids, key, w.Factor)
		inSet := map[string]bool{}
		var ref wire.StoreItem
		for i, addr := range members {
			inSet[addr] = true
			it, ok := holders[key][addr]
			if !ok {
				return fmt.Errorf("key %q: replica-set member %s holds no copy (set %v, %d factor)",
					key, addr, members, w.Factor)
			}
			if i == 0 {
				ref = it
				continue
			}
			if it.Version != ref.Version || it.Writer != ref.Writer || !bytes.Equal(it.Value, ref.Value) ||
				it.Expire != ref.Expire || it.Tombstone != ref.Tombstone {
				return fmt.Errorf("key %q: replicas diverge at a fixpoint: %s holds v%d/%s (expire %d, tombstone %t), %s holds v%d/%s (expire %d, tombstone %t)",
					key, members[0], ref.Version, ref.Writer, ref.Expire, ref.Tombstone,
					addr, it.Version, it.Writer, it.Expire, it.Tombstone)
			}
		}
		var strays []string
		for addr := range holders[key] {
			if !inSet[addr] {
				strays = append(strays, addr)
			}
		}
		if len(strays) > 0 {
			sort.Strings(strays)
			return fmt.Errorf("key %q: held outside its replica set %v by %v", key, members, strays)
		}
	}
	return nil
}

// checkLifecycle: dead data is gone at a fixpoint. No live node still
// holds an item whose lease lapsed — every anti-entropy round purges
// expired values and tombstones, so surviving one to quiescence means
// the purge or the expiry stamps diverged. And every key whose delete
// was quorum-acknowledged exists at most as a tombstone: a live value
// would mean a stale replica out-stamped the tombstone, the
// resurrection the LWW order is supposed to make impossible.
func checkLifecycle(w *world) error {
	for _, v := range w.Live {
		for _, it := range v.Snap.Items {
			if it.Expire != 0 && it.Expire <= w.Now {
				return fmt.Errorf("%s still holds %q with lease expired at %d (clock %d) at a fixpoint",
					v.Snap.Addr, it.Key, it.Expire, w.Now)
			}
		}
	}
	deleted := make([]string, 0, len(w.Model.deleted))
	for k := range w.Model.deleted {
		deleted = append(deleted, k)
	}
	sort.Strings(deleted)
	for _, key := range deleted {
		for _, v := range w.Live {
			for _, it := range v.Snap.Items {
				if it.Key == key && !it.Tombstone {
					return fmt.Errorf("deleted key %q resurrected on %s as v%d/%s %q",
						key, v.Snap.Addr, it.Version, it.Writer, bytes.ToValidUTF8(it.Value, []byte{'?'}))
				}
			}
		}
	}
	return nil
}

// checkData: every key the model knows reads back only values that were
// actually written, every acknowledged live key reads back successfully,
// and every acknowledged-deleted key reads as not-found — at a quiescent
// fixpoint a quorum read settles the tombstone race, with no churn
// exemptions. Unacknowledged writes (quorum failures on a partition
// minority) may be absent and expired leases may have been purged; if a
// value surfaces anyway, it must still be one the harness wrote.
func checkData(w *world) error {
	origin := w.Live[0].Slot
	for _, key := range w.Model.keys() {
		v, err := w.get(origin, key)
		if err != nil {
			if w.Model.mustRead(key, w.Now) {
				return fmt.Errorf("get %q: %v (write was acknowledged by a quorum; it must stay readable)", key, err)
			}
			continue
		}
		if w.Model.deleted[key] {
			return fmt.Errorf("get %q: delete was acknowledged by a quorum, but the key still reads back %q",
				key, bytes.ToValidUTF8(v, []byte{'?'}))
		}
		if !w.Model.vals[key][string(v)] {
			return fmt.Errorf("get %q: value %q was never written", key, bytes.ToValidUTF8(v, []byte{'?'}))
		}
	}
	return nil
}
