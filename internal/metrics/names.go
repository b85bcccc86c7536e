package metrics

// KnownMetricNames is the checked registry of every metric name the
// repo may register, one per line. The metrichygiene analyzer reads
// this constant (cross-package, through the type checker) and flags any
// New* registration whose name is absent — so a typo like
// "lookup_erors_total" fails lint instead of silently splitting a time
// series, and every name a dashboard may reference is discoverable in
// one place. Adding a metric means adding a line here.
const KnownMetricNames = `
accelerated_routes_total
antientropy_bytes_total
antientropy_rounds_total
cache_hits_total
cache_misses_total
churn_fails_total
churn_join_retries_total
churn_joins_total
churn_leaves_total
churn_lookup_errors_total
churn_lookups_total
churn_wrong_owner_total
evictions_total
failover_climbs_total
faultnet_injected_total
hops_total
kv_expired_total
lookup_errors_total
lookups_total
onehop_hits_total
onehop_stale_total
quorum_failures_total
quorum_read_seconds
quorum_write_seconds
read_repairs_total
replica_dropped_total
replica_handoff_items_total
replica_lag
replica_resolves_total
rereplication_bytes_total
ring_climbs_total
ring_consults_total
ring_repairs_total
route_gossip_bytes_total
routes_total
rpc_bytes_in_total
rpc_bytes_out_total
rpc_errors_total
rpc_latency_seconds
rpc_requests_total
rpc_server_errors_total
rpc_server_requests_total
walk_restarts_total
walk_retries_total
wire_breaker_closes_total
wire_breaker_fail_fast_total
wire_breaker_open
wire_breaker_opens_total
wire_retries_total
`
