// Package simcheck is a property-based invariant harness for the HIERAS
// transport stack. It generates seeded random operation programs (joins,
// crashes, graceful departures, puts, gets, lookups, partitions, heals)
// against an in-process multi-layer cluster running over wire.MemNet,
// checks a registry of invariants as the program executes, and on
// failure shrinks the program — delta debugging over the op sequence,
// then field-wise value shrinking — to a minimal artifact replayable
// with Replay(seed, ops).
//
// Determinism is the load-bearing property: MemNet gives every node the
// same logical address (and therefore the same node ID) on every run,
// faultnet partitions are probability-free, the circuit breaker (whose
// cooldown is wall-clock) is disabled, and the executor is single-
// threaded with exactly one RPC in flight at a time. Running the same
// (config, ops) twice reaches the same states, which is what makes a
// shrunk counterexample trustworthy.
package simcheck

import (
	"fmt"
	"time"
)

// Config parameterises one checked run.
type Config struct {
	// Seed drives the program generator (and is echoed into artifacts).
	Seed int64
	// Slots is the cluster's slot count, addresses n0..n{Slots-1}; slots
	// 0 and 1 are the landmarks (default 8, minimum 3).
	Slots int
	// Ops is the generated program length (default 24).
	Ops int
	// Depth is the hierarchy depth (default 2).
	Depth int
	// TTL is the data lifetime in logical clock ticks (each executed op
	// advances the harness clock by one; OpTick jumps it further). Puts
	// expire TTL ticks after being written unless their owner's
	// republish cycle renews the lease first, and tombstones are pruned
	// after the same grace. 0 — the default — keeps data and tombstones
	// forever.
	TTL uint64
	// SkipRepairLayer, when in 1..Depth, seeds a maintenance fault at the
	// nodes' outgoing seam (harness.wrapCaller): every notify of that
	// layer is acknowledged and dropped, so its rings never learn a new
	// predecessor — a deliberately seeded maintenance bug used to prove
	// the invariant suite catches and shrinks real regressions. 0 checks
	// the honest protocol.
	SkipRepairLayer int
	// ReplicationBug, when true, seeds a replication fault at the nodes'
	// outgoing seam (harness.wrapCaller): a written item is stored only
	// by the first node it is sent to — the owner — and every later
	// store_put of it is acknowledged and dropped, while digest,
	// sync_pull and replicate requests are refused. Quorum writes are
	// thus acknowledged with one copy and nothing ever repairs them (no
	// replica writes, no re-replication, no read-repair). The durability
	// and replica-placement invariants must catch it and shrink to a
	// replayable artifact. False checks the honest protocol.
	ReplicationBug bool
	// RouteGossipBug, when true, seeds a route-dissemination fault at
	// the same seam: every route_gossip request is acknowledged empty
	// and never delivered, so each node keeps its one-hop table to
	// itself and tables never learn of other members. The
	// route-table-accuracy invariant must catch it at the first
	// quiescent checkpoint and shrink it to a replayable artifact. False
	// checks the honest protocol.
	RouteGossipBug bool
}

func (c Config) withDefaults() Config {
	if c.Slots == 0 {
		c.Slots = 8
	}
	if c.Slots < 3 {
		c.Slots = 3
	}
	if c.Ops == 0 {
		c.Ops = 24
	}
	if c.Depth == 0 {
		c.Depth = 2
	}
	return c
}

// Failure describes a property violation, after shrinking.
type Failure struct {
	Seed      int64
	Invariant string // registry name, or executor check ("get-safety", ...)
	Err       error  // the concrete violation on the shrunk program
	Ops       []Op   // the shrunk program
	Elapsed   time.Duration
	Artifact  string // replayable Replay(seed, ops) source
}

// Error satisfies the error interface: invariant, violation, artifact.
func (f *Failure) Error() string {
	return fmt.Sprintf("invariant %q violated: %v\nreplay with:\n%s", f.Invariant, f.Err, f.Artifact)
}

// Run generates a program from cfg.Seed, executes it, and — if an
// invariant breaks — shrinks the program and returns the failure. A nil
// return means every invariant held through the whole program and the
// final quiescent check.
func Run(cfg Config) *Failure {
	cfg = cfg.withDefaults()
	start := time.Now() //lint:allow nodeterm Elapsed is report-only; generation and replay read no wall time
	ops := generate(cfg)
	f := runProgram(cfg, ops)
	if f == nil {
		return nil
	}
	return finish(cfg, shrink(cfg, ops, f.Invariant), f, start)
}

// Replay executes a fixed program — typically a shrunk artifact — under
// the default configuration and reports the failure it reproduces, nil
// if it passes. Seed only influences generated programs, but artifacts
// carry it so a failure can also be re-derived from scratch.
func Replay(seed int64, ops []Op) *Failure {
	return Config{Seed: seed}.Replay(ops)
}

// Replay executes a fixed program under an explicit configuration —
// needed when the failure depends on config (e.g. SkipRepairLayer).
func (c Config) Replay(ops []Op) *Failure {
	cfg := c.withDefaults()
	start := time.Now() //lint:allow nodeterm Elapsed is report-only; generation and replay read no wall time
	f := runProgram(cfg, ops)
	if f == nil {
		return nil
	}
	return finish(cfg, ops, f, start)
}

// finish re-runs the final program to pin the reported error to exactly
// what the artifact reproduces, then packages the failure.
func finish(cfg Config, ops []Op, orig *Failure, start time.Time) *Failure {
	f := runProgram(cfg, ops)
	if f == nil {
		// Shrinking is deterministic, so this indicates the program
		// itself is nondeterministic — worth reporting loudly as its own
		// kind of failure.
		f = &Failure{Invariant: "nondeterminism",
			Err: fmt.Errorf("program failed with %q during search but passes on replay", orig.Invariant)}
	}
	f.Seed = cfg.Seed
	f.Ops = ops
	f.Elapsed = time.Since(start) //lint:allow nodeterm Elapsed is report-only; generation and replay read no wall time
	f.Artifact = Program(cfg.Seed, ops)
	return f
}

// runProgram executes ops on a fresh cluster. Every program implicitly
// ends with heal (if needed) and a full quiescent checkpoint, so "the
// cluster converges to a correct state afterwards" is part of every
// property.
func runProgram(cfg Config, ops []Op) *Failure {
	h, err := newHarness(cfg)
	if err != nil {
		return &Failure{Invariant: "harness", Err: err}
	}
	defer h.close()
	for i, op := range ops {
		if f := h.exec(op); f != nil {
			f.Err = fmt.Errorf("op %d %s: %w", i, op, f.Err)
			return f
		}
	}
	if h.partitioned {
		if f := h.exec(Op{Kind: OpHeal}); f != nil {
			f.Err = fmt.Errorf("final heal: %w", f.Err)
			return f
		}
	}
	if f := h.exec(Op{Kind: OpCheck}); f != nil {
		f.Err = fmt.Errorf("final checkpoint: %w", f.Err)
		return f
	}
	return nil
}
