package cluster

import (
	"repro/internal/obs"
)

// clusterMetrics is the cluster subsystem's handle set in the store's
// shared obs.Registry: one registry per process, so /metrics and /stats
// report cluster state next to serving state. Per-peer counters are
// labeled by the peer's advertise URL.
type clusterMetrics struct {
	reg *obs.Registry

	scatter *obs.Histogram // wall time per scatter-gather fan-out

	scatters     *obs.Counter // scatter-gather fan-outs routed
	mergedDocs   *obs.Counter // per-document results merged into responses
	dedupedDocs  *obs.Counter // replica duplicates discarded (first healthy owner won)
	degradedDocs *obs.Counter // per-document error entries emitted for failed peers

	replicated   *obs.Counter // documents successfully replicated to a peer
	replRetries  *obs.Counter // replication sends re-attempted after a failure
	replFailures *obs.Counter // sends that exhausted their retry budget (stay pending)
	replReceived *obs.Counter // replica payloads accepted from peers

	transitions *obs.Counter // peer up/down transitions (generation bumps)
	ringAdopted *obs.Counter // ring descriptions adopted from peers
}

func newClusterMetrics(r *obs.Registry) *clusterMetrics {
	return &clusterMetrics{
		reg: r,

		scatter: r.Histogram("xc_cluster_scatter_seconds",
			"Wall time per scatter-gather cluster fan-out.", obs.UnitSeconds),

		scatters: r.Counter("xc_cluster_scatters_total",
			"Scatter-gather cluster fan-outs routed."),
		mergedDocs: r.Counter("xc_cluster_merged_docs_total",
			"Per-document results merged into cluster responses."),
		dedupedDocs: r.Counter("xc_cluster_deduped_docs_total",
			"Replica duplicates discarded during merge (first healthy owner wins)."),
		degradedDocs: r.Counter("xc_cluster_degraded_docs_total",
			"Per-document error entries emitted for shed, timed-out or down peers."),

		replicated: r.Counter("xc_cluster_replicated_docs_total",
			"Documents successfully replicated to a peer."),
		replRetries: r.Counter("xc_cluster_replication_retries_total",
			"Replication sends re-attempted after a transient failure."),
		replFailures: r.Counter("xc_cluster_replication_failures_total",
			"Replication sends that exhausted their retry budget (left pending)."),
		replReceived: r.Counter("xc_cluster_replicas_received_total",
			"Replica payloads accepted and catalogued from peers."),

		transitions: r.Counter("xc_cluster_peer_transitions_total",
			"Peer up/down health transitions (generation bumps)."),
		ringAdopted: r.Counter("xc_cluster_ring_adoptions_total",
			"Ring descriptions adopted from peers during exchange."),
	}
}

// peerShed returns the per-peer counter of requests a peer shed (429).
func (m *clusterMetrics) peerShed(peer string) *obs.Counter {
	return m.reg.LabeledCounter("xc_cluster_peer_shed_total",
		"Scatter requests a peer shed with 429.", obs.Label("peer", peer))
}

// peerTimeouts returns the per-peer counter of timed-out scatter
// requests (504 from the peer, or the router's own deadline).
func (m *clusterMetrics) peerTimeouts(peer string) *obs.Counter {
	return m.reg.LabeledCounter("xc_cluster_peer_timeouts_total",
		"Scatter requests to a peer that timed out (504 or router deadline).", obs.Label("peer", peer))
}

// peerErrors returns the per-peer counter of failed scatter requests
// (connection refused, 5xx other than 504, bad payloads).
func (m *clusterMetrics) peerErrors(peer string) *obs.Counter {
	return m.reg.LabeledCounter("xc_cluster_peer_errors_total",
		"Scatter requests to a peer that failed outright.", obs.Label("peer", peer))
}
