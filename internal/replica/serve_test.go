package replica

import (
	"reflect"
	"testing"

	"repro/internal/wire"
)

// TestServeLocked pins each answer of the store handler, which live nodes
// and the oracle store share: the engine holds "k" at version 5 by w#1, and
// the successors are those an owner names.
func TestServeLocked(t *testing.T) {
	succ := []wire.Peer{{Addr: "s1"}, {Addr: "s2"}}
	held := item("k", "held", 5, "w#1")
	put := func(layer int, items ...wire.StoreItem) wire.Request {
		return wire.Request{Type: wire.TStorePut, Name: "k", Layer: layer, Items: items}
	}
	get := func(layer int) wire.Request { return wire.Request{Type: wire.TStoreGet, Name: "k", Layer: layer} }
	tomb := wire.StoreItem{Key: "k", Version: 5, Writer: "w#1", Tombstone: true}
	for _, c := range []struct {
		name string
		held wire.StoreItem
		owns bool
		req  wire.Request
		want wire.Response
		kept wire.StoreItem // what the engine holds after
	}{
		{"a plain put applies", held, false, put(0, item("k", "new", 6, "c#1")),
			wire.Response{OK: true, Applied: 1}, item("k", "new", 6, "c#1")},
		{"a plain put that installs nothing reports the stamp kept", held, false, put(0, item("k", "old", 2, "c#1")),
			wire.Response{OK: true, Found: true, Version: 5, Writer: "w#1"}, held},
		{"the owner stamps a put past the held version and names its successors", held, true, put(1, item("k", "new", 1, "c#1")),
			wire.Response{OK: true, Owner: true, Succ: succ, Version: 6, Applied: 1}, item("k", "new", 6, "c#1")},
		{"a non-owner installs nothing and reports its version", held, false, put(1, item("k", "new", 9, "c#1")),
			wire.Response{OK: true, Found: true, Version: 5, Writer: "w#1"}, held},
		{"the owner answers a get and names its successors", held, true, get(1),
			wire.Response{OK: true, Owner: true, Succ: succ, Found: true, Value: []byte("held"), Version: 5, Writer: "w#1"}, held},
		{"a non-owner says nothing to a get", held, false, get(1), wire.Response{OK: true}, held},
		{"a tombstone is reported as held", tomb, false, get(0),
			wire.Response{OK: true, Found: true, Version: 5, Writer: "w#1", Tombstone: true}, tomb},
		{"a put without an item is refused", held, true, put(1),
			wire.Response{Err: "store_put wants exactly one keyed item, got 0"}, held},
		{"a put of an unkeyed item is refused", held, true, put(0, wire.StoreItem{Version: 9}),
			wire.Response{Err: "store_put wants exactly one keyed item, got 1"}, held},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			e.Apply(c.held)
			var resp wire.Response
			e.ServeLocked(&c.req, &resp, func(key string) ([]wire.Peer, bool) {
				if key != "k" {
					t.Errorf("ownership asked of %q, want k", key)
				}
				if !c.owns {
					return nil, false
				}
				return succ, true
			})
			if !reflect.DeepEqual(resp, c.want) {
				t.Errorf("answer %+v\nwant   %+v", resp, c.want)
			}
			if it, _ := e.Get("k"); !reflect.DeepEqual(it, c.kept) {
				t.Errorf("the engine holds %+v, want %+v", it, c.kept)
			}
		})
	}
}
