package replica

import (
	"fmt"

	"repro/internal/wire"
)

// OwnerFunc is a node's side of the store requests' Layer-1 contract:
// whether it owns key and, if so, the successors completing its replica set.
type OwnerFunc func(key string) (succ []wire.Peer, owns bool)

// ServeLocked answers a TStorePut or TStoreGet from the engine into *resp,
// which it finds zeroed. With Layer 1 set the request is ownership-checked
// (OwnerReadFunc): the owner names its successors, stamps a put past what
// it holds (ApplyPast) and answers a get as any member does, and any other
// node installs nothing and says nothing to a get. A put that installs
// nothing reports the stamp held instead, so a coordinator that stamped
// blind learns it was outranked. It sends nothing, so a node calls it under
// its mutex, and owns runs under it; the answer may carry the engine's
// value and owns' successors, which the codec or wire.Answered copies.
func (e *Engine) ServeLocked(req *wire.Request, resp *wire.Response, owns OwnerFunc) {
	key, put := req.Name, req.Type == wire.TStorePut
	if put {
		if len(req.Items) != 1 || req.Items[0].Key == "" {
			resp.Err = fmt.Sprintf("store_put wants exactly one keyed item, got %d", len(req.Items))
			return
		}
		key = req.Items[0].Key
	}
	resp.OK = true
	if req.Layer == 1 {
		if resp.Succ, resp.Owner = owns(key); !resp.Owner && !put {
			return
		}
	}
	switch {
	case put && resp.Owner:
		resp.Version, resp.Applied = e.ApplyPast(req.Items[0])
		return
	case put && req.Layer != 1 && e.Apply(req.Items[0]):
		resp.Applied = 1
		return
	}
	// Tombstones and lifecycle stamps are reported as held: a fresher
	// tombstone must outrank stale live copies, or a delete would resurrect
	// through read-repair.
	it, ok := e.Get(key)
	resp.Found, resp.Version, resp.Writer = ok, it.Version, it.Writer
	if !put {
		resp.Value, resp.Expire, resp.Tombstone = it.Value, it.Expire, it.Tombstone
	}
}
