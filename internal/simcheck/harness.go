package simcheck

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/binning"
	"repro/internal/churn"
	"repro/internal/faultnet"
	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/wire"
)

// model is the harness's ground truth about stored data. Values are
// grow-only per key: replicas and partition-era writes mean an old value
// can legitimately resurface, so correctness is "some value we wrote",
// never "the latest value". acked marks keys whose put was acknowledged
// by a write quorum; the durability invariants hold the cluster to
// never losing those, with no churn or crash exemptions — that promise
// is exactly what quorum replication buys.
type model struct {
	vals  map[string]map[string]bool
	acked map[string]bool
	// deleted marks keys whose quorum delete was acknowledged outside a
	// partition: the tombstone was stamped past the freshest version the
	// owner had acknowledged, so it wins the LWW order and the key must
	// read as not-found once the cluster converges. Any later put clears
	// the mark (a fresh write legitimately supersedes a tombstone).
	deleted map[string]bool
	// splitDeletes has bit p set for a key a delete was issued for,
	// acknowledged or not, on the side of the current partition whose
	// slots have parity p. Nil outside a partition.
	splitDeletes map[string]int
	// expireAt is the latest lease any write stamped on the key, as a
	// stamp of the driver's clock (only tracked when cfg.TTL > 0). Once
	// the clock passes it the key may have expired — owners republish
	// before expiry, so the key may equally still be alive; invariants
	// therefore stop asserting presence rather than asserting absence.
	expireAt map[string]uint64
}

func (m *model) put(key, value string) {
	if m.vals[key] == nil {
		m.vals[key] = map[string]bool{}
	}
	m.vals[key][value] = true
	delete(m.deleted, key)
}

func (m *model) keys() []string {
	ks := make([]string, 0, len(m.vals))
	for k := range m.vals {
		ks = append(ks, k)
	}
	for k := range m.deleted {
		if m.vals[k] == nil {
			ks = append(ks, k) // deleted without ever being written
		}
	}
	sort.Strings(ks)
	return ks
}

// expired reports whether key's lease may have lapsed at stamp now.
func (m *model) expired(key string, now uint64) bool {
	at, ok := m.expireAt[key]
	return ok && now >= at
}

// mustRead reports whether a read of key is required to succeed: its
// write was quorum-acknowledged, no acknowledged delete has since
// tombstoned it, and its lease cannot have lapsed.
func (m *model) mustRead(key string, now uint64) bool {
	return m.acked[key] && !m.deleted[key] && !m.expired(key, now)
}

// harness owns one in-process cluster: a churn.Driver runs the nodes (on
// its direct net, with node addresses — and therefore node IDs — identical
// on every run; on its clock, which exec moves a tick per op, so expiry is a
// function of the program; and every operation the executor issues
// derives from the driver's run context), a faultnet.Network partitions
// them, and the data model judges them. Slots 0 and 1 are the two
// landmarks; they are started before any generated op runs and never
// leave or fail.
type harness struct {
	cfg         Config
	d           *churn.Driver
	fnet        *faultnet.Network
	nodes       []*transport.Node // by slot; nil when the slot is empty
	coords      [][2]float64
	expectNames [][]string // per slot, from an independent binning run
	partitioned bool
	model       *model
	// firstSentTo is the seeded replication bug's memory (see wrapCaller);
	// nodes call out from several goroutines.
	bugMu       sync.Mutex
	firstSentTo map[writeID]string
}

func slotAddr(slot int) string { return fmt.Sprintf("n%d", slot) }

// slotCoord places even slots near landmark n0 and odd slots near
// landmark n1, far enough apart that the default ladder bins the two
// parities into distinct rings on every lower layer. Partitions split by
// parity too, so a partition never cuts a lower-layer ring in half.
func slotCoord(slot int) [2]float64 {
	if slot%2 == 0 {
		return [2]float64{float64(slot), float64(slot % 7)}
	}
	return [2]float64{500 + float64(slot), float64(slot % 7)}
}

// tick is one unit of Config.TTL and of OpTick on the driver's clock.
const tick = time.Second

func newHarness(cfg Config) (*harness, error) {
	d := churn.NewDriver()
	h := &harness{
		cfg:         cfg,
		d:           d,
		fnet:        faultnet.New(cfg.Seed, d.Clock()),
		nodes:       make([]*transport.Node, cfg.Slots),
		coords:      make([][2]float64, cfg.Slots),
		expectNames: make([][]string, cfg.Slots),
		firstSentTo: map[writeID]string{},
		model: &model{
			vals:     map[string]map[string]bool{},
			acked:    map[string]bool{},
			deleted:  map[string]bool{},
			expireAt: map[string]uint64{},
		},
	}
	ladder, err := binning.DefaultLadder(cfg.Depth)
	if err != nil {
		return nil, err
	}
	for s := 0; s < cfg.Slots; s++ {
		h.coords[s] = slotCoord(s)
		lats := make([]float64, 2)
		for l := 0; l < 2; l++ {
			lats[l] = dist(h.coords[s], slotCoord(l))
		}
		names, err := binning.RingNames(lats, ladder)
		if err != nil {
			return nil, err
		}
		h.expectNames[s] = names
	}
	// Bootstrap the two landmarks outside the op stream. Both listen
	// before the network is created: creating it probes every landmark.
	if err := h.startNode(0); err != nil {
		return nil, err
	}
	if err := h.startNode(1); err != nil {
		return nil, err
	}
	if err := h.nodes[0].CreateNetwork(); err != nil {
		return nil, err
	}
	if err := h.nodes[1].Join(slotAddr(0)); err != nil {
		return nil, err
	}
	h.maintain()
	return h, nil
}

func dist(a, b [2]float64) float64 {
	return math.Hypot(a[0]-b[0], a[1]-b[1])
}

// extendLease records that a write or delete just stamped key with a
// fresh TTL lease. Leases only ever extend in the model: the LWW winner
// among racing stamps is not predictable from op order alone, and a
// longer model lease merely delays the point where invariants stop
// asserting the key's presence.
func (h *harness) extendLease(key string) {
	if h.cfg.TTL == 0 {
		return
	}
	if at := h.now() + uint64(h.cfg.TTL)*uint64(tick); at > h.model.expireAt[key] {
		h.model.expireAt[key] = at
	}
}

// now is the driver's clock as the stamp items' Expire is compared to.
func (h *harness) now() uint64 { return wire.Stamp(h.d.Clock()) }

// replOptions is the replication configuration every harness node runs:
// factor 3 with a majority write quorum, so any single crash or failed
// handoff leaves an acknowledged write with a surviving copy, and a
// read quorum of 2 so gets cross-check replicas (and read-repair fires).
func (h *harness) replOptions() replica.Options {
	return replica.Options{
		Factor:      3,
		WriteQuorum: 2,
		ReadQuorum:  2,
	}
}

// writeID identifies one write: its key and writer nonce. The version is
// no part of it, since the owner raises it on the write's first exchange.
type writeID struct {
	key    string
	writer string
}

// wrapCaller is every node's outgoing seam: the fault network and, above
// it, the faults the acceptance tests seed to prove the invariants catch
// and shrink real regressions. They are planted here, on the messages, so
// that no production struct carries a switch production must never set.
func (h *harness) wrapCaller(self string, inner wire.Caller) wire.Caller {
	inner = h.fnet.Caller(self, inner)
	if h.cfg.SkipRepairLayer == 0 && !h.cfg.RouteGossipBug && !h.cfg.ReplicationBug {
		return inner
	}
	return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
		switch req.Type {
		case wire.TNotify:
			if req.Layer == h.cfg.SkipRepairLayer {
				// Acknowledged and dropped: no node of the layer's rings
				// learns of a new predecessor, so a join or a death leaves
				// the ring's predecessor pointers wrong for good.
				return wire.Response{OK: true}, nil
			}
		case wire.TRouteGossip:
			if h.cfg.RouteGossipBug {
				// Acknowledged empty and never delivered: the pusher
				// learns nothing back and the receiver never merges, so
				// every one-hop table knows only what it saw locally.
				return wire.Response{OK: true}, nil
			}
		case wire.TStorePut:
			if h.cfg.ReplicationBug && len(req.Items) == 1 {
				// A write is stored only by the first address it is sent
				// to — the coordinator writes the owner first — and
				// acknowledged unstored by everyone after: no replica
				// copies, and no read-repair of that write either.
				w := writeID{req.Items[0].Key, req.Items[0].Writer}
				h.bugMu.Lock()
				first, sent := h.firstSentTo[w]
				if !sent {
					h.firstSentTo[w] = addr
				}
				h.bugMu.Unlock()
				if sent && first != addr {
					return wire.Response{OK: true}, nil
				}
			}
		case wire.TDigest, wire.TSyncPull, wire.TReplicate:
			if h.cfg.ReplicationBug {
				// No anti-entropy or re-homing traffic of any kind. A
				// RemoteError is never evidence that the peer is dead, so
				// the fault costs copies, not members.
				return wire.Response{}, &wire.RemoteError{Type: req.Type, Msg: "simcheck: seeded replication bug"}
			}
		}
		return inner.Call(ctx, addr, req)
	})
}

func (h *harness) startNode(slot int) error {
	n, err := h.d.Start(slotAddr(slot), transport.Config{
		Depth:     h.cfg.Depth,
		Landmarks: []string{slotAddr(0), slotAddr(1)},
		Coord:     h.coords[slot],
		// Every checked cluster runs the one-hop route tier, so the
		// route-table-accuracy invariant exercises gossip dissemination
		// on top of ordinary maintenance.
		RouteMode:   transport.RouteOneHop,
		Replication: h.replOptions(),
		TTL:         time.Duration(h.cfg.TTL) * tick,
		WrapCaller:  h.wrapCaller,
	})
	if err != nil {
		return err
	}
	h.nodes[slot] = n
	return nil
}

// remove takes slot's node out of the cluster: a graceful leave, or a
// crash.
func (h *harness) remove(slot int, graceful bool) {
	h.d.Remove(h.nodes[slot], graceful)
	h.nodes[slot] = nil
}

func (h *harness) close() { h.d.Close() }

// liveSlots returns occupied slots in ascending order.
func (h *harness) liveSlots() []int {
	var out []int
	for s, n := range h.nodes {
		if n != nil {
			out = append(out, s)
		}
	}
	return out
}

// origin resolves an op's origin slot: the op's slot when live, else
// the lowest live slot. Shrinking can delete the join that made a
// generated origin live, so the fallback keeps every subsequence
// executable.
func (h *harness) origin(slot int) int {
	if slot >= 0 && slot < len(h.nodes) && h.nodes[slot] != nil {
		return slot
	}
	return h.liveSlots()[0]
}

// maintain runs the steady-state maintenance a deployment's background
// timers would: two driver rounds (each node's StabilizeOnce and a batch
// of 16 finger refreshes per layer). Two, because repairing a crashed
// node's predecessor link can take one round to clear the dead pointer
// and a second for the notify that fills it.
func (h *harness) maintain() {
	h.d.Round(16)
	h.d.Round(16)
}

// parityGroups builds the even/odd slot-name groups used by OpPartition.
func (h *harness) parityGroups() (even, odd []string) {
	for s := 0; s < h.cfg.Slots; s++ {
		if s%2 == 0 {
			even = append(even, slotAddr(s))
		} else {
			odd = append(odd, slotAddr(s))
		}
	}
	return even, odd
}
