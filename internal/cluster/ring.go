// Package cluster turns a set of xcserve nodes into a sharded,
// replicated cluster. It has four layers:
//
//   - placement (ring.go): a consistent-hash ring with virtual nodes
//     maps document names to N replica owners. The ring is versioned and
//     exchanged over a small HTTP peer protocol; membership changes move
//     only ~1/N of the ownership, and Rebalance computes the exact,
//     deterministic move plan.
//
//   - replication (replicate.go, pending.go): when the write path
//     publishes a durable archive, the ingesting node streams the
//     archive + .xcs sidecar bytes to the document's other owners with
//     CRC verification and capped-backoff retries; a WAL-backed pending
//     queue survives restarts, so no transfer is ever lost.
//
//   - routing (router.go): a scatter-gather QueryAll sends the query
//     text to each live peer, and every node — the router's own leg
//     included — answers through store.Do, the call a single node's
//     /query makes: it compiles, prunes against its local path-synopsis
//     index and answers direct before decoding anything, so cross-node
//     reads stay coordination-free under the same plan/prune-first
//     discipline the single-node path uses. The
//     router merges per-document results with replica dedup (first
//     healthy owner wins) and degrades per peer: a shed (429), timed-out
//     (504) or dead peer becomes that peer's per-document error entries,
//     never a failed request.
//
//   - membership (membership.go): /healthz-driven probing with
//     generation-numbered up/down transitions feeding the router, the
//     replicator and the metrics registry.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/store"
)

// DefaultVNodes is the virtual-node count per physical node. 64 points
// per node keeps the expected ownership imbalance under ~15% for small
// clusters while the ring stays tiny (a few KiB).
const DefaultVNodes = 64

// Ring is a consistent-hash ring mapping document names to replica
// owners. A Ring is immutable after Build — membership changes produce
// a new Ring with a higher version — so readers (the router, the
// replicator) can hold one without locks.
type Ring struct {
	version uint64
	epoch   uint64 // operator-advanced generation; 0 for a config-built ring
	vnodes  int
	nodes   []string // sorted node IDs (advertise URLs)
	points  []point  // sorted by hash
}

// point is one virtual node: a position on the ring owned by a node.
type point struct {
	hash uint64
	node string
}

// hash64 is the ring's hash: FNV-64a, stable across processes and
// platforms (placement must agree between peers that never met).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Build constructs a ring over the given node IDs with vnodes virtual
// nodes each (<= 0 selects DefaultVNodes). The version is derived
// deterministically from the membership, so independently configured
// peers with the same node set agree on both placement and version
// without any coordination. Node order does not matter.
func Build(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	// Drop duplicates: a node listed twice must not own twice the ring.
	uniq := sorted[:0]
	for i, n := range sorted {
		if i == 0 || n != sorted[i-1] {
			uniq = append(uniq, n)
		}
	}
	r := &Ring{vnodes: vnodes, nodes: uniq}
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	// The version folds the membership and vnode count: any two rings
	// with the same configuration share it, any change to either
	// produces a different one (modulo hash collision, which only costs
	// a redundant exchange).
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d;", vnodes)
	for _, n := range uniq {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	r.version = h.Sum64()
	return r
}

// Version identifies this ring's membership: a deterministic hash of
// the node set and vnode count, so independently configured peers with
// the same membership report the same version without coordination.
func (r *Ring) Version() uint64 { return r.version }

// Epoch is the ring's operator-advanced generation. Peers exchanging
// rings adopt the higher epoch (ties broken by version — deterministic,
// so the cluster converges); config-built rings are epoch 0.
func (r *Ring) Epoch() uint64 { return r.epoch }

// WithEpoch returns a copy of the ring at the given epoch — how an
// operator publishes a membership change: build the new ring, stamp an
// epoch above the cluster's current one, POST it to any node, and the
// exchange protocol spreads it.
func (r *Ring) WithEpoch(epoch uint64) *Ring {
	cp := *r
	cp.epoch = epoch
	return &cp
}

// Supersedes reports whether r should replace cur during a ring
// exchange: a strictly higher epoch always wins, and within an epoch a
// differing membership is broken deterministically by version, so two
// nodes exchanging rings converge on the same choice no matter who
// calls whom.
func (r *Ring) Supersedes(cur *Ring) bool {
	if cur == nil {
		return true
	}
	if r.epoch != cur.epoch {
		return r.epoch > cur.epoch
	}
	return r.version > cur.version
}

// Nodes returns the ring's node IDs, sorted. Callers must not mutate.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the number of physical nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Contains reports whether node is a member.
func (r *Ring) Contains(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// Owners returns the n distinct nodes owning doc, in preference order:
// the first is the primary, the rest the replicas. Fewer than n nodes
// in the ring returns them all. Document names are hashed exactly as
// validated by store.ValidateDocName — Owners panics on an invalid
// name, because an unvalidated name must never reach placement (it
// could not have entered any node's catalog either).
func (r *Ring) Owners(doc string, n int) []string {
	if err := store.ValidateDocName(doc); err != nil {
		panic(fmt.Sprintf("cluster: placing invalid document name: %v", err))
	}
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(doc)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for k := 0; k < len(r.points) && len(owners) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			owners = append(owners, p.node)
		}
	}
	return owners
}

// Move is one step of a rebalance plan: doc must be copied to To (a new
// owner under the target ring) from one of From (its owners under the
// source ring, preference order).
type Move struct {
	Doc  string
	To   string
	From []string
}

// Rebalance computes the deterministic move plan that brings docs from
// old placement to new placement at replication factor rf: one Move per
// (document, gained owner). Documents are processed in sorted order and
// gained owners in new-ring preference order, so every node computing
// the same plan gets byte-identical output.
func Rebalance(old, new *Ring, docs []string, rf int) []Move {
	sorted := append([]string(nil), docs...)
	sort.Strings(sorted)
	var plan []Move
	for _, doc := range sorted {
		was := old.Owners(doc, rf)
		has := make(map[string]bool, len(was))
		for _, n := range was {
			has[n] = true
		}
		for _, n := range new.Owners(doc, rf) {
			if !has[n] {
				plan = append(plan, Move{Doc: doc, To: n, From: was})
			}
		}
	}
	return plan
}

// Desc is the ring's wire form for the peer protocol (GET/POST
// /cluster/ring): enough to rebuild an identical ring anywhere.
type Desc struct {
	Version uint64   `json:"version"`
	Epoch   uint64   `json:"epoch"`
	VNodes  int      `json:"vnodes"`
	Nodes   []string `json:"nodes"`
}

// Desc returns the ring's wire description.
func (r *Ring) Desc() Desc {
	return Desc{Version: r.version, Epoch: r.epoch, VNodes: r.vnodes,
		Nodes: append([]string(nil), r.nodes...)}
}

// FromDesc rebuilds a ring from its wire description. The version is
// recomputed from the membership, never trusted from the wire: a peer
// cannot claim a version its node set does not hash to. The epoch is
// carried as sent — it is an operator assertion, not derived state.
func FromDesc(d Desc) *Ring {
	return Build(d.Nodes, d.VNodes).WithEpoch(d.Epoch)
}
