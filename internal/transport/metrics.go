package transport

import (
	"strconv"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// nodeMetrics bundles one node's registry and pre-curried children. Every
// node owns a private registry (or the one injected via Config.Metrics),
// so counters never mix across nodes sharing a process.
type nodeMetrics struct {
	reg *metrics.Registry
	wm  *wire.Metrics

	// hops.At(l-1) counts lookup hops taken in ring layer l (1 = global).
	hops           *metrics.CounterVec
	ringClimbs     *metrics.Counter
	lookups        *metrics.Counter
	lookupErrors   *metrics.Counter
	evictions      *metrics.Counter
	walkRetries    *metrics.Counter
	walkRestarts   *metrics.Counter
	failoverClimbs *metrics.Counter
	repairs        *metrics.Counter
	onehopHits     *metrics.Counter
	onehopStale    *metrics.Counter
	gossipBytes    *metrics.Counter
	// consultHint and consultWalk count lower-ring consultations by how
	// the node storing the ring's table was found (ring_consults_total).
	consultHint *metrics.Counter
	consultWalk *metrics.Counter
}

// consultPaths is ring_consults_total's value set.
var consultPaths = []string{"hint", "walk"}

func newNodeMetrics(reg *metrics.Registry, depth int) *nodeMetrics {
	nm := &nodeMetrics{reg: reg, wm: wire.NewMetrics(reg)}
	layers := make([]string, depth)
	for i := range layers {
		layers[i] = strconv.Itoa(i + 1)
	}
	nm.hops = reg.NewCounterVec("hops_total",
		"Hierarchical lookup hops by ring layer (1 = global ring).", "layer", layers)
	nm.ringClimbs = reg.NewCounter("ring_climbs_total",
		"Lookup transitions from a lower ring to the next layer up.")
	nm.lookups = reg.NewCounter("lookups_total",
		"Hierarchical lookups started on this node.")
	nm.lookupErrors = reg.NewCounter("lookup_errors_total",
		"Hierarchical lookups that failed.")
	nm.evictions = reg.NewCounter("evictions_total",
		"Dead-peer evictions this node reported to other nodes.")
	nm.walkRetries = reg.NewCounter("walk_retries_total",
		"Iterative walk steps retried after an unreachable hop.")
	nm.walkRestarts = reg.NewCounter("walk_restarts_total",
		"Degraded walks restarted from this node after an unrecoverable dead hop.")
	nm.failoverClimbs = reg.NewCounter("failover_climbs_total",
		"Lookups that climbed out of an unroutable lower ring instead of aborting.")
	nm.repairs = reg.NewCounter("ring_repairs_total",
		"Isolated-layer repairs: successor state rebuilt from a landmark, ring table or predecessor.")
	nm.onehopHits = reg.NewCounter("onehop_hits_total",
		"Lookups answered by the one-hop route table with a verified owner.")
	nm.onehopStale = reg.NewCounter("onehop_stale_total",
		"One-hop table answers whose owner verification failed (stale table; lookup fell back to the classic walk).")
	nm.gossipBytes = reg.NewCounter("route_gossip_bytes_total",
		"Route-gossip payload bytes exchanged by this node's rounds: the summaries its global-ring liveness requests carry, probes, the tables replies carry and push-backs (both directions, binary-codec size).")
	consults := reg.NewCounterVec("ring_consults_total",
		"Lower-ring entry-point consultations, by how the node storing the ring's table was found: hint (the node that answered last time still vouched for it) or walk (a lookup on the global ring: a join, a re-homed table, a hint that did not answer).", "path", consultPaths)
	nm.consultHint = consults.With("hint")
	nm.consultWalk = consults.With("walk")
	return nm
}

// Metrics returns the node's metrics registry (serve it with
// Registry.Handler, or dump it with Registry.WriteTo).
func (n *Node) Metrics() *metrics.Registry { return n.nm.reg }
