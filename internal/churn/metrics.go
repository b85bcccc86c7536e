package churn

import "repro/internal/metrics"

// counters holds the per-run churn metrics. With no registry configured
// every field points at throwaway counters, so the hot path never
// branches on instrumentation.
type counters struct {
	joins        *metrics.Counter
	joinRetries  *metrics.Counter
	leaves       *metrics.Counter
	fails        *metrics.Counter
	lookups      *metrics.Counter
	lookupErrors *metrics.Counter
	wrongOwner   *metrics.Counter
}

func newCounters(reg *metrics.Registry) *counters {
	if reg == nil {
		return &counters{
			joins: &metrics.Counter{}, joinRetries: &metrics.Counter{},
			leaves: &metrics.Counter{}, fails: &metrics.Counter{},
			lookups: &metrics.Counter{}, lookupErrors: &metrics.Counter{},
			wrongOwner: &metrics.Counter{},
		}
	}
	return &counters{
		joins: reg.NewCounter("churn_joins_total",
			"Nodes that completed the join protocol during the run."),
		joinRetries: reg.NewCounter("churn_join_retries_total",
			"Join attempts that failed against a fresh failure or a not yet evicted previous incarnation; the host rejoins later."),
		leaves: reg.NewCounter("churn_leaves_total",
			"Graceful departures."),
		fails: reg.NewCounter("churn_fails_total",
			"Silent node failures injected."),
		lookups: reg.NewCounter("churn_lookups_total",
			"Lookups issued during the run."),
		lookupErrors: reg.NewCounter("churn_lookup_errors_total",
			"Lookups whose routing procedure failed."),
		wrongOwner: reg.NewCounter("churn_wrong_owner_total",
			"Lookups that completed but landed on a stale owner."),
	}
}
