package simcheck

import (
	"fmt"

	"repro/internal/transport"
)

// exec applies one op to the cluster and checks what can be checked at
// that moment. Ops that no longer make sense (occupied slot, landmark
// fail, join during a partition) are no-ops rather than errors, so every
// subsequence a shrinker proposes is still a well-formed program.
func (h *harness) exec(op Op) *Failure {
	fail := func(invariant, format string, args ...interface{}) *Failure {
		return &Failure{Invariant: invariant, Err: fmt.Errorf(format, args...)}
	}
	// Logical time moves once per op — before the op runs, so two ops
	// never share a tick and expiry stays a pure function of the program.
	h.clock.Add(1)
	switch op.Kind {
	case OpJoin:
		if h.partitioned || op.Slot < 2 || op.Slot >= h.cfg.Slots || h.nodes[op.Slot] != nil {
			return nil
		}
		boot := -1
		for _, s := range h.liveSlots() {
			if s != op.Slot {
				boot = s
				break
			}
		}
		if err := h.startNode(op.Slot); err != nil {
			return fail("join-availability", "start n%d: %v", op.Slot, err)
		}
		if err := h.nodes[op.Slot].Join(slotAddr(boot)); err != nil {
			h.remove(op.Slot, false)
			// A join against a maintained, partition-free cluster must
			// succeed; a refusal means the ring tables or landmark walk
			// are advertising unusable state.
			return fail("join-availability", "join n%d via n%d: %v", op.Slot, boot, err)
		}
		h.maintain()

	case OpLeave:
		if h.partitioned || op.Slot < 2 || op.Slot >= h.cfg.Slots || h.nodes[op.Slot] == nil {
			return nil
		}
		// A failed handoff is survivable by design: every acknowledged
		// write has quorum copies on other replica-set members, and the
		// sweeps inside maintain re-home them. The durability invariant
		// holds the cluster to that claim immediately below.
		h.remove(op.Slot, true)
		h.maintain()

	case OpFail:
		if op.Slot < 2 || op.Slot >= h.cfg.Slots || h.nodes[op.Slot] == nil {
			return nil
		}
		h.remove(op.Slot, false)
		// Crash, no handoff. Replication makes this survivable too: a
		// write quorum put copies on at least two nodes, a crash destroys
		// one, and the death-triggered sweeps in maintain restore the
		// replication factor before the next op can crash another.
		h.maintain()

	case OpPut:
		n := h.origin(op.Slot)
		wasDeleted := h.model.deleted[op.Key]
		err := n.Put(h.d.Context(), op.Key, []byte(op.Value))
		// Record the value even when the put reports failure: part of the
		// replica set may have accepted the write before the quorum
		// fell short, so the value can legitimately be read back later.
		// put also clears the deleted mark — even a partial write can
		// out-stamp the tombstone.
		h.model.put(op.Key, op.Value)
		h.extendLease(op.Key)
		if err != nil {
			if wasDeleted {
				// Unacknowledged write against a tombstoned key: either
				// side of the LWW race may win, so neither presence nor
				// absence is assertable from here on.
				delete(h.model.acked, op.Key)
			}
			if !h.partitioned {
				return fail("put-availability", "put %q from n%d: %v", op.Key, op.Slot, err)
			}
			return nil // a minority side may legitimately lack a write quorum
		}
		// Acknowledged: a write quorum confirmed the item. From here on
		// the cluster must never lose this key — even when it was written
		// on one side of a partition, because the side that acknowledged
		// it holds quorum copies that survive the heal and re-home.
		h.model.acked[op.Key] = true

	case OpGet:
		n := h.origin(op.Slot)
		v, err := n.Get(h.d.Context(), op.Key)
		acc := h.model.vals[op.Key]
		if err != nil {
			// Acknowledged writes must stay readable in a partition-free
			// cluster — no churn exemptions, that is what the quorum
			// bought. Unacknowledged writes may be absent, deleted or
			// expired keys are expected to vanish, and a split cluster
			// may be unable to assemble a read quorum.
			if h.model.mustRead(op.Key, h.clock.Load()) && !h.partitioned {
				return fail("get-availability", "get %q from n%d: %v (write was acknowledged)", op.Key, op.Slot, err)
			}
			return nil
		}
		if !acc[string(v)] {
			return fail("get-safety", "get %q from n%d returned %q, not a value ever written (%d known)",
				op.Key, op.Slot, v, len(acc))
		}

	case OpDelete:
		n := h.origin(op.Slot)
		err := n.Delete(h.d.Context(), op.Key)
		h.extendLease(op.Key) // the tombstone's grace is a fresh lease
		if err != nil {
			// A failed delete may still have installed tombstones on a
			// minority of the set, so the key is no longer promised
			// readable — but absence is not promised either.
			delete(h.model.acked, op.Key)
			if !h.partitioned {
				return fail("delete-availability", "delete %q from n%d: %v", op.Key, op.Slot, err)
			}
			return nil
		}
		if h.partitioned {
			// One side's quorum acknowledged the tombstone, but a
			// concurrent write on the other side can carry a higher
			// stamp and legitimately resurrect the key after the heal.
			delete(h.model.acked, op.Key)
			break
		}
		// Partition-free, the tombstone was stamped past every version
		// the owner acknowledged, so it wins LWW: the key must read as
		// not-found once the cluster converges.
		h.model.deleted[op.Key] = true

	case OpTick:
		if op.Slot > 0 {
			h.clock.Add(uint64(op.Slot))
		}

	case OpLookup:
		n := h.origin(op.Slot)
		res, err := n.Lookup(h.d.Context(), transport.LiveKeyID(op.Key))
		if err != nil {
			if !h.partitioned {
				return fail("lookup-availability", "lookup %q from n%d: %v", op.Key, op.Slot, err)
			}
			return nil
		}
		if !h.partitioned {
			if bound := hopBound(len(h.liveSlots()), h.cfg.Depth); res.Hops > bound {
				return fail("hop-bound", "lookup %q from n%d took %d hops (bound %d for %d nodes)",
					op.Key, op.Slot, res.Hops, bound, len(h.liveSlots()))
			}
		}

	case OpPartition:
		if h.partitioned {
			return nil
		}
		even, odd := h.parityGroups()
		h.fnet.Partition(even, odd)
		h.partitioned = true
		// Let each side adapt: suspicion confirms the other side dead,
		// evictions shrink the rings, exactly like a real netsplit.
		h.maintain()

	case OpHeal:
		if !h.partitioned {
			return nil
		}
		h.fnet.Heal()
		h.partitioned = false
		h.maintain()

	case OpCheck:
		return h.checkpoint()

	default:
		return fail("harness", "unknown op kind %q", op.Kind)
	}
	return h.runInvariants(false)
}

// hopBound is a deliberately generous sanity ceiling on routing length:
// a hierarchical lookup can in the worst case traverse each ring it
// climbs, but never revisit a node inside one. Catching runaway walks is
// its job; tight performance bands live in the paper-claim tests where
// populations are big enough for ratios to be stable.
func hopBound(liveNodes, depth int) int {
	return 2*liveNodes + 2*depth + 2
}

// checkpoint runs the invariant registry. With a partition active only
// the always-on invariants apply — the cluster cannot converge while it
// is split. Otherwise the harness first quiesces to a maintenance
// fixpoint, then checks everything, exact placement and durable reads
// included.
func (h *harness) checkpoint() *Failure {
	if h.partitioned {
		return h.runInvariants(false)
	}
	if err := h.d.Settle(); err != nil {
		return &Failure{Invariant: "quiescence", Err: err}
	}
	return h.runInvariants(true)
}

// runInvariants evaluates the registry against a freshly built world.
// Quiescent invariants only run when quiescent is true.
func (h *harness) runInvariants(quiescent bool) *Failure {
	w := h.world(quiescent)
	for _, inv := range registry() {
		if inv.Quiescent && !quiescent {
			continue
		}
		if err := inv.Check(w); err != nil {
			return &Failure{Invariant: inv.Name, Err: err}
		}
	}
	return nil
}
