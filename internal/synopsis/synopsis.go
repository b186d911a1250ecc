// Package synopsis implements the catalog-level path-synopsis index: a
// tiny per-document summary — itself a DAG, the paper's own core idea
// turned into an index — that lets a multi-document store prove "this
// document cannot match this query" without touching the document's
// compressed instance at all.
//
// A Synopsis holds two conservative abstractions of one document:
//
//   - the set of tag labels that occur anywhere in it, as a bitset over a
//     catalog-wide interned label dictionary (Dict), and
//   - a bounded-depth root-path synopsis: the set of label paths from the
//     document root, DAG-deduplicated into a trie, truncated at depth K
//     with a "deeper" marker on truncated branches.
//
// A query's xpath.Signature (required label groups, root-anchored path
// prefix) is checked against a synopsis with CanMatch; a false answer is
// a proof that full evaluation would select nothing, so a store fan-out
// can skip the document. Everything on the read path is immutable after
// construction, keeping the index as coordination-free as the rest of
// the store: lookups share the Dict under a read lock and synopses with
// no lock at all.
//
// Beyond the boolean prune, a synopsis is also a cardinality estimator:
// every label carries its tree-node occurrence count and every trie node
// the number of tree nodes whose root path ends there, both computed by
// multiplicity propagation over the DAG without decompressing. The
// counts feed the cost-based planner (internal/plan) — per-label totals
// aggregated across the Index order commuting steps by selectivity, and
// ChainCount answers root-anchored child-chain queries exactly, straight
// from the sidecar, when the trie fully covers the chain.
//
// Synopses persist as versioned, CRC-framed sidecar files next to each
// archive (doc.xca -> doc.xcs, see sidecar.go); absent or unreadable
// sidecars degrade to a full scan of that document, never to a wrong
// answer.
package synopsis

import (
	"math"
	"strings"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/xpath"
)

// Defaults for Build's zero-valued options.
const (
	// DefaultDepth is the root-path truncation depth K.
	DefaultDepth = 8
	// DefaultMaxNodes caps the path trie; documents with more distinct
	// truncated root paths mark the synopsis as overflowed, which
	// disables prefix pruning (label-set pruning still applies).
	DefaultMaxNodes = 4096
)

// tagPrefix selects the labels a synopsis records: element tags, the only
// relations query signatures can require. Text and attribute relations
// (archive skeletons carry them) are skipped.
const tagPrefix = "tag:"

// Options configures Build. The zero value selects the defaults.
type Options struct {
	Depth    int // root-path truncation depth K; <= 0 selects DefaultDepth
	MaxNodes int // trie node cap; <= 0 selects DefaultMaxNodes
}

// Synopsis is one document's summary. It is immutable after Build (or
// sidecar decode) and safe for concurrent use without locking.
type Synopsis struct {
	labels   label.Set           // dict IDs of tag labels present anywhere
	counts   map[label.ID]uint64 // tree-node occurrences per tag label
	treeSize uint64              // element tree nodes in the document
	nodes    []pathNode          // root-path trie; nodes[0] is the (unlabelled) root
	depth    int                 // truncation depth the trie was built with
	overflow bool                // trie capped: prefix checks are inconclusive
	sat      bool                // a count saturated: counts are lower bounds only
}

// pathNode is one trie vertex: its children, keyed by dict label ID,
// whether the document's element paths continue below the truncation
// depth here, and how many tree nodes have exactly this root path.
type pathNode struct {
	children []childRef
	deeper   bool
	count    uint64
}

// childRef orders children by dict ID for deterministic encoding.
type childRef struct {
	lbl  label.ID
	node int32
}

// Depth returns the truncation depth the synopsis was built with.
func (s *Synopsis) Depth() int { return s.depth }

// Overflow reports whether the path trie hit its node cap (prefix checks
// then answer "may match" unconditionally).
func (s *Synopsis) Overflow() bool { return s.overflow }

// NumLabels returns how many distinct tag labels the document contains.
func (s *Synopsis) NumLabels() int { return s.labels.Count() }

// NumPathNodes returns the size of the root-path trie (excluding its
// virtual root).
func (s *Synopsis) NumPathNodes() int { return len(s.nodes) - 1 }

// TreeSize returns the number of element nodes of the uncompressed tree,
// computed at build time by multiplicity propagation. When Saturated
// reports true it is a lower bound.
func (s *Synopsis) TreeSize() uint64 { return s.treeSize }

// Saturated reports whether any statistic overflowed uint64 during the
// build; counts are then lower bounds and ChainCount answers inexactly.
func (s *Synopsis) Saturated() bool { return s.sat }

// LabelTreeCount returns how many tree nodes of the document carry the
// given dict label (0 for labels the document does not contain).
func (s *Synopsis) LabelTreeCount(id label.ID) uint64 { return s.counts[id] }

// MemBytes estimates the synopsis's in-memory footprint for cache and
// stats accounting.
func (s *Synopsis) MemBytes() int64 {
	b := int64(len(s.labels))*8 + 64 + int64(len(s.counts))*16
	for i := range s.nodes {
		b += 32 + int64(len(s.nodes[i].children))*8
	}
	return b
}

// Build summarises one compressed instance. It accepts both query
// skeletons (tag labels only) and archive skeletons (which add text and
// attribute leaves — those carry no tag label and are skipped, so both
// forms yield the identical synopsis for the same document). The root
// vertex's own labels join the label set but, matching the query
// algebra's child-step semantics, paths start at the root's children.
func Build(in *dag.Instance, dict *Dict, opts Options) *Synopsis {
	if opts.Depth <= 0 {
		opts.Depth = DefaultDepth
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = DefaultMaxNodes
	}
	s := &Synopsis{depth: opts.Depth, nodes: make([]pathNode, 1)}

	// Intern the instance's tag names in one short lock round over the
	// (small, distinct) schema — not per vertex-label occurrence — so a
	// build during ingest never stalls concurrent fan-outs' dictionary
	// reads for longer than the schema walk.
	toDict := make([]label.ID, in.Schema.Len())
	dict.mu.Lock()
	for id := 0; id < in.Schema.Len(); id++ {
		if name := in.Schema.Name(label.ID(id)); strings.HasPrefix(name, tagPrefix) {
			toDict[id] = dict.internLocked(name)
		} else {
			toDict[id] = label.Invalid
		}
	}
	dict.mu.Unlock()

	// One lock-free pass over the vertices: the tag-label bitset (set
	// only for labels that actually occur on a vertex), plus each
	// vertex's tag IDs for the path walk.
	tags := make([][]label.ID, len(in.Verts))
	for i := range in.Verts {
		for _, id := range in.Verts[i].Labels.Members() {
			did := toDict[id]
			if did == label.Invalid {
				continue
			}
			s.labels = s.labels.Set(did)
			tags[i] = append(tags[i], did)
		}
	}

	if in.Root == dag.NilVertex {
		return s
	}
	s.countTotals(in, tags)

	b := &trieBuilder{
		syn:      s,
		inst:     in,
		tags:     tags,
		maxNodes: opts.MaxNodes,
	}
	b.walk(in.Root, opts.Depth)
	if s.overflow {
		// A capped trie under-represents the document; keep it empty so
		// matching relies on the overflow flag alone.
		s.nodes = s.nodes[:1]
		s.nodes[0] = pathNode{}
	}
	return s
}

// countTotals computes treeSize and the per-label tree-node counts by one
// multiplicity-propagation pass in topological order — the same trick
// PathCounts uses, so a vertex shared by many DAG paths is weighted by
// how many tree nodes it stands for, without decompressing.
func (s *Synopsis) countTotals(in *dag.Instance, tags [][]label.ID) {
	mult := make([]uint64, len(in.Verts))
	mult[in.Root] = 1
	for _, v := range in.TopoOrder() {
		m := mult[v]
		if m == 0 {
			continue
		}
		for _, e := range in.Verts[v].Edges {
			mult[e.Child] = s.satAdd(mult[e.Child], s.satMul(m, uint64(e.Count)))
		}
	}
	s.counts = make(map[label.ID]uint64)
	for i := range in.Verts {
		if mult[i] == 0 || len(tags[i]) == 0 {
			continue
		}
		s.treeSize = s.satAdd(s.treeSize, mult[i])
		for _, t := range tags[i] {
			s.counts[t] = s.satAdd(s.counts[t], mult[i])
		}
	}
}

// visitKey identifies trie expansion state per (vertex, trie node): a
// shared DAG subtree reached twice under the same label prefix
// contributes the same paths, which is exactly the DAG-deduplication
// that keeps synopses tiny on highly compressed documents. The builder
// carries one multiplicity per key so node counts weight each shared
// subtree by the number of tree nodes it stands for.
type visitKey struct {
	v    dag.VertexID
	node int32
}

type trieBuilder struct {
	syn      *Synopsis
	inst     *dag.Instance
	tags     [][]label.ID
	maxNodes int
}

// walk inserts the label paths of root's element descendants into the
// trie, level by level so the multiplicity of every (vertex, trie node)
// pair is complete before the pair expands. Iteration follows the
// first-visit order of each level (never map order), keeping trie child
// order — and therefore the sidecar encoding — deterministic.
func (b *trieBuilder) walk(root dag.VertexID, depth int) {
	level := []visitKey{{root, 0}}
	mult := map[visitKey]uint64{{root, 0}: 1}
	for d := 0; d < depth && len(level) > 0; d++ {
		nextMult := make(map[visitKey]uint64, len(level))
		next := level[:0:0]
		for _, it := range level {
			m := mult[it]
			for _, e := range b.inst.Verts[it.v].Edges {
				c := e.Child
				ct := b.tags[c]
				if len(ct) == 0 {
					// Not an element (text/attribute leaf in archive
					// skeletons). An unlabelled vertex with children would
					// make child-step reasoning unsound, so degrade to
					// overflow if one appears.
					if len(b.inst.Verts[c].Edges) > 0 {
						b.syn.overflow = true
						return
					}
					continue
				}
				em := b.syn.satMul(m, uint64(e.Count))
				for _, t := range ct {
					n2, ok := b.child(it.node, t)
					if !ok {
						return // overflow
					}
					b.syn.nodes[n2].count = b.syn.satAdd(b.syn.nodes[n2].count, em)
					if d == depth-1 {
						if b.hasElementChild(c) {
							b.syn.nodes[n2].deeper = true
						}
						continue
					}
					key := visitKey{c, n2}
					if _, seen := nextMult[key]; !seen {
						next = append(next, key)
					}
					nextMult[key] += em
				}
			}
		}
		level, mult = next, nextMult
	}
}

// child returns the trie child of node labelled t, creating it if new.
// ok is false when the node cap was hit.
func (b *trieBuilder) child(node int32, t label.ID) (int32, bool) {
	for _, cr := range b.syn.nodes[node].children {
		if cr.lbl == t {
			return cr.node, true
		}
	}
	if len(b.syn.nodes) > b.maxNodes {
		b.syn.overflow = true
		return 0, false
	}
	n2 := int32(len(b.syn.nodes))
	b.syn.nodes = append(b.syn.nodes, pathNode{})
	b.syn.nodes[node].children = append(b.syn.nodes[node].children, childRef{lbl: t, node: n2})
	return n2, true
}

// satAdd and satMul saturate at MaxUint64 and latch the sat flag, so an
// adversarially compressed document can never wrap a count into a small
// "exact" answer — it degrades to inexact instead.
func (s *Synopsis) satAdd(a, b uint64) uint64 {
	if c := a + b; c >= a {
		return c
	}
	s.sat = true
	return math.MaxUint64
}

func (s *Synopsis) satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if c := a * b; c/a == b {
		return c
	}
	s.sat = true
	return math.MaxUint64
}

func (b *trieBuilder) hasElementChild(v dag.VertexID) bool {
	for _, e := range b.inst.Verts[v].Edges {
		if len(b.tags[e.Child]) > 0 {
			return true
		}
	}
	return false
}

// Resolved is a signature translated to dict IDs once, so testing it
// against many synopses does no string hashing. Obtain one with
// Index.Resolve (or Resolve with an explicit dict).
type Resolved struct {
	// groups holds, per required group, the dict IDs of its labels that
	// exist anywhere in the catalog. unsat marks a group none of whose
	// labels is known to the dict: no indexed document can satisfy it.
	groups [][]label.ID
	unsat  bool

	// prefix in dict IDs; wildcard entries are wildcardLbl, labels
	// unknown to the dict unknownLbl (they fail every trie lookup but
	// still match through "deeper" truncation points).
	prefix   []label.ID
	anchored bool
}

const (
	wildcardLbl label.ID = -1
	unknownLbl  label.ID = -2
)

// Resolve translates sig against dict. Returns nil when sig carries
// nothing checkable (callers then scan every document).
func Resolve(sig *xpath.Signature, dict *Dict) *Resolved {
	if !sig.Prunable() {
		return nil
	}
	rs := &Resolved{anchored: sig.Anchored}
	dict.mu.RLock()
	defer dict.mu.RUnlock()
	for _, group := range sig.Required {
		var ids []label.ID
		for _, name := range group {
			if id := dict.schema.Lookup(name); id != label.Invalid {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			rs.unsat = true
			return rs
		}
		rs.groups = append(rs.groups, ids)
	}
	if sig.Anchored {
		for _, name := range sig.Prefix {
			switch {
			case name == "":
				rs.prefix = append(rs.prefix, wildcardLbl)
			default:
				if id := dict.schema.Lookup(name); id != label.Invalid {
					rs.prefix = append(rs.prefix, id)
				} else {
					rs.prefix = append(rs.prefix, unknownLbl)
				}
			}
		}
	}
	return rs
}

// CanMatch reports whether the document summarised by s could produce a
// non-empty result for the resolved signature. False is a proof of
// emptiness; true is merely "cannot rule it out". A nil receiver or nil
// signature always matches (no synopsis, no pruning).
func (s *Synopsis) CanMatch(rs *Resolved) bool {
	if s == nil || rs == nil {
		return true
	}
	if rs.unsat {
		return false
	}
	for _, group := range rs.groups {
		ok := false
		for _, id := range group {
			if s.labels.Has(id) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if !rs.anchored || len(rs.prefix) == 0 || s.overflow {
		return true
	}
	return s.matchPrefix(rs.prefix)
}

// ChainCount returns the number of tree nodes whose root path is exactly
// the given label chain. exact=true makes count authoritative either
// way: a positive count is the precise answer a full evaluation of
// /a/b/.../z would produce (matching the query algebra's
// one-tree-node-per-edge-path semantics), and an exact zero is a proof
// of emptiness. exact=false means the synopsis cannot decide — the trie
// overflowed, a count saturated, the chain descends past the truncation
// depth, or the chain is empty — and the caller must evaluate.
//
// Chain entries come from Dict.ResolveChain; an entry for a label the
// catalog dictionary has never seen yields an exact zero, since every
// indexed synopsis interned all its labels.
func (s *Synopsis) ChainCount(chain []label.ID) (count uint64, exact bool) {
	if s == nil || len(chain) == 0 {
		return 0, false
	}
	for _, p := range chain {
		if p == unknownLbl {
			return 0, true
		}
		if p < 0 { // wildcardLbl or other sentinel: not chain-countable
			return 0, false
		}
	}
	if s.overflow || s.sat {
		return 0, false
	}
	frontier := []int32{0}
	next := make([]int32, 0, 4)
	for _, p := range chain {
		next = next[:0]
		for _, ni := range frontier {
			n := &s.nodes[ni]
			if n.deeper {
				return 0, false // paths continue beyond the synopsis depth
			}
			for _, cr := range n.children {
				if cr.lbl == p {
					next = append(next, cr.node)
					break
				}
			}
		}
		if len(next) == 0 {
			return 0, true
		}
		frontier, next = next, frontier
	}
	for _, ni := range frontier {
		count += s.nodes[ni].count
	}
	return count, true
}

// ResolveChain translates a chain of label names (as a ChainShape
// carries them) to dict IDs for ChainCount. Names the dictionary has
// never interned map to a sentinel that ChainCount answers with an
// exact zero — no indexed document can contain them.
func (d *Dict) ResolveChain(names []string) []label.ID {
	ids := make([]label.ID, len(names))
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, name := range names {
		if id := d.schema.Lookup(name); id != label.Invalid {
			ids[i] = id
		} else {
			ids[i] = unknownLbl
		}
	}
	return ids
}

// matchPrefix walks the trie along the prefix, branching over every
// child at wildcard positions. A truncation point ("deeper") reached
// before the prefix is consumed is inconclusive, so it matches.
func (s *Synopsis) matchPrefix(prefix []label.ID) bool {
	frontier := []int32{0}
	next := make([]int32, 0, 4)
	for _, p := range prefix {
		next = next[:0]
		for _, ni := range frontier {
			n := &s.nodes[ni]
			if n.deeper {
				return true // paths continue beyond the synopsis depth
			}
			if p == wildcardLbl {
				for _, cr := range n.children {
					next = append(next, cr.node)
				}
				continue
			}
			for _, cr := range n.children {
				if cr.lbl == p {
					next = append(next, cr.node)
					break
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		frontier, next = next, frontier
	}
	return true
}
