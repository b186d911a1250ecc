package algebra

import (
	"repro/internal/dag"
	"repro/internal/label"
)

// The operators read the immutable frozen base shared by all in-flight
// queries (plus the query's private overlay) and write dense Bitset
// columns in the overlay; nothing is interned into the schema and no base
// vertex is touched. Set operations are word-wise loops; upward axes are a
// single bottom-up pass; the decompressing axes (downward, sibling) are
// copy-on-write rewrites that append to the overlay only the vertices
// whose edges or selection variants must diverge from the base — the
// identity part of the graph keeps its IDs, so selections written before
// a rewrite stay valid for free and a small-selection query allocates
// proportionally to what it splits, not to the document.
//
// internal/baseline evaluates the same algebra on the uncompressed tree;
// the differential tests in internal/engine compare the two corpus by
// corpus and per random query.

// OvLabel fills column dst with the membership of the relation named
// name, or with the empty set if the document does not define it.
func OvLabel(ov *dag.Overlay, name string, dst int) {
	d := ov.Col(dst)
	id := ov.Frozen().Instance().Schema.Lookup(name)
	if id == label.Invalid {
		d.Zero()
		return
	}
	ov.FillLabel(d, id)
}

// OvAll sets dst := V (every live vertex).
func OvAll(ov *dag.Overlay, dst int) {
	ov.FillLive(ov.Col(dst))
}

// OvRoot sets dst := {root}.
func OvRoot(ov *dag.Overlay, dst int) {
	d := ov.Col(dst)
	d.Zero()
	if r := ov.Root(); r != dag.NilVertex {
		d.Set(r)
	}
}

// OvUnion sets dst := a ∪ b.
func OvUnion(ov *dag.Overlay, a, b, dst int) {
	ca, cb, d := ov.Col(a), ov.Col(b), ov.Col(dst)
	for i := range d {
		d[i] = ca[i] | cb[i]
	}
}

// OvIntersect sets dst := a ∩ b.
func OvIntersect(ov *dag.Overlay, a, b, dst int) {
	ca, cb, d := ov.Col(a), ov.Col(b), ov.Col(dst)
	for i := range d {
		d[i] = ca[i] & cb[i]
	}
}

// OvDifference sets dst := a − b.
func OvDifference(ov *dag.Overlay, a, b, dst int) {
	ca, cb, d := ov.Col(a), ov.Col(b), ov.Col(dst)
	for i := range d {
		d[i] = ca[i] &^ cb[i]
	}
}

// OvComplement sets dst := V − a.
func OvComplement(ov *dag.Overlay, a, dst int) {
	d := ov.Col(dst)
	ov.FillLive(d)
	ca := ov.Col(a)
	for i := range d {
		d[i] &^= ca[i]
	}
}

// OvRootFilter sets dst := V if root ∈ a, else ∅.
func OvRootFilter(ov *dag.Overlay, a, dst int) {
	d := ov.Col(dst)
	d.Zero()
	r := ov.Root()
	if r == dag.NilVertex || !ov.Col(a).Get(r) {
		return
	}
	ov.FillLive(d)
}

// OvApplyAxis computes dst := axis(src). scratchA and scratchB are two
// spare column indices the composed axes (following, preceding) may
// clobber.
func OvApplyAxis(ov *dag.Overlay, axis Axis, src, dst, scratchA, scratchB int) {
	switch axis {
	case Self:
		ov.Col(dst).CopyFrom(ov.Col(src))
	case Parent, Ancestor, AncestorOrSelf:
		ovUpward(ov, axis, src, dst)
	case Child, Descendant, DescendantOrSelf:
		ovDownward(ov, axis, src, dst)
	case FollowingSibling, PrecedingSibling:
		ovSibling(ov, axis, src, dst)
	case Following:
		OvApplyAxis(ov, AncestorOrSelf, src, scratchA, -1, -1)
		OvApplyAxis(ov, FollowingSibling, scratchA, scratchB, -1, -1)
		OvApplyAxis(ov, DescendantOrSelf, scratchB, dst, -1, -1)
	case Preceding:
		OvApplyAxis(ov, AncestorOrSelf, src, scratchA, -1, -1)
		OvApplyAxis(ov, PrecedingSibling, scratchA, scratchB, -1, -1)
		OvApplyAxis(ov, DescendantOrSelf, scratchB, dst, -1, -1)
	default:
		panic("algebra: unknown overlay axis " + axis.String())
	}
}

// ovUpward computes parent / ancestor / ancestor-or-self bottom-up in one
// pass over the live topological order: a vertex's membership depends only
// on its subtree, which is identical for every tree node it represents, so
// the graph never changes (Proposition 3.3).
func ovUpward(ov *dag.Overlay, axis Axis, src, dst int) {
	s, d := ov.Col(src), ov.Col(dst)
	d.Zero()
	order := ov.Order()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		sel := false
		switch axis {
		case Parent:
			for _, e := range ov.Edges(v) {
				if s.Get(e.Child) {
					sel = true
					break
				}
			}
		case Ancestor:
			for _, e := range ov.Edges(v) {
				if s.Get(e.Child) || d.Get(e.Child) {
					sel = true
					break
				}
			}
		case AncestorOrSelf:
			if s.Get(v) {
				sel = true
			} else {
				for _, e := range ov.Edges(v) {
					if d.Get(e.Child) {
						sel = true
						break
					}
				}
			}
		}
		if sel {
			d.Set(v)
		}
	}
}

// ovDownward is the copy-on-write form of the recursive procedure of
// Figure 4, generalised to run-length-encoded edges (every repetition of a
// child under the same parent receives the same selection). Pass 1
// walks the live graph top-down computing which selection variants —
// selected (T), unselected (F), or both — each vertex is requested under.
// Pass 2 walks bottom-up choosing a representative per (vertex, variant):
// the vertex itself when the variant is its "identity" variant and no
// child representative diverges, else a fresh extension copy. Only
// vertices on or above a genuine split are copied, which realises the
// at-most-doubling bound of Proposition 3.2 while typically touching far
// less than the document.
//
// Steps over the whole graph skip both passes. Every live vertex is
// reachable from the root and only the root has no parent, so
// descendant-or-self(S) with the root in S is the live set, and
// descendant(S) with the root in S, like child(V), is the live set minus
// the root; none of them splits a vertex.
func ovDownward(ov *dag.Overlay, axis Axis, src, dst int) {
	d := ov.Col(dst)
	d.Zero()
	root := ov.Root()
	if root == dag.NilVertex {
		return
	}
	s := ov.Col(src)
	switch {
	case axis == DescendantOrSelf && s.Get(root):
		ov.FillLive(d)
		return
	case axis == Descendant && s.Get(root), axis == Child && ov.IsLive(s):
		ov.FillLive(d)
		d.Clear(root)
		return
	}
	order := ov.Order()
	needF, needT := ov.NeedScratch()
	rootSel := axis == DescendantOrSelf && s.Get(root)
	if rootSel {
		needT.Set(root)
	} else {
		needF.Set(root)
	}

	// Pass 1: propagate need variants down every live edge. For parent
	// variant sv, the child's variant is (line 4 of Figure 4)
	//   sw = v∈S  ∨  (sv ∧ axis∈{descendant, descendant-or-self})
	//             ∨  (axis = descendant-or-self ∧ child∈S).
	if axis == Child {
		// For child the variant is v∈S alone — independent of the
		// parent's own variant, so one plain scan suffices.
		for _, v := range order {
			if s.Get(v) {
				for _, e := range ov.Edges(v) {
					needT.Set(e.Child)
				}
			} else {
				for _, e := range ov.Edges(v) {
					needF.Set(e.Child)
				}
			}
		}
	} else {
		dos := axis == DescendantOrSelf
		for _, v := range order {
			nf, nt := needF.Get(v), needT.Get(v)
			if !nf && !nt {
				continue
			}
			vi := s.Get(v)
			for _, e := range ov.Edges(v) {
				swBase := vi || (dos && s.Get(e.Child))
				if nt || swBase {
					needT.Set(e.Child)
				}
				if nf && !swBase {
					needF.Set(e.Child)
				}
			}
		}
	}

	// No vertex requested under both variants means no vertex ever
	// splits, so no representative can diverge anywhere: the graph is
	// unchanged and the selection is exactly the T-variant set. This is
	// the common case for selective steps and skips pass 2 entirely.
	if !anyOverlap(needF, needT) {
		copy(d, needT)
		return
	}

	// Pass 2: representatives, children before parents. The common case —
	// no child representative diverges — is detected without building an
	// edge plan, so untouched regions cost two bitset probes per edge and
	// write nothing.
	repF, repT := ov.RepScratch()
	rw := ov.BeginRewrite()
	liveEdges := 0
	dos := axis == DescendantOrSelf
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		nf, nt := needF.Get(v), needT.Get(v)
		if !nf && !nt {
			continue
		}
		vi := s.Get(v)
		idVariantT := nt && !nf // the variant that may keep v's identity
		edges := ov.Edges(v)
		for variant := 0; variant < 2; variant++ {
			sv := variant == 1
			if (sv && !nt) || (!sv && !nf) {
				continue
			}
			diverged := false
			for _, e := range edges {
				sw := vi || (sv && axis != Child) || (dos && s.Get(e.Child))
				rep := repF[e.Child]
				if sw {
					rep = repT[e.Child]
				}
				if rep != e.Child {
					diverged = true
					break
				}
			}
			var id dag.VertexID
			switch {
			case !diverged && sv == idVariantT:
				id = v
			case !diverged:
				// Edges unchanged but the identity slot is taken by the
				// other variant: copy sharing the (read-only) edge slice.
				id = rw.AppendShared(v, v)
			default:
				plan := rw.Plan()
				for _, e := range edges {
					sw := vi || (sv && axis != Child) || (dos && s.Get(e.Child))
					rep := repF[e.Child]
					if sw {
						rep = repT[e.Child]
					}
					plan = append(plan, dag.Edge{Child: rep, Count: e.Count})
				}
				id = rw.Append(v, plan)
			}
			liveEdges += len(edges)
			if sv {
				repT[v] = id
			} else {
				repF[v] = id
			}
		}
	}

	newRoot := repF[root]
	if rootSel {
		newRoot = repT[root]
	}
	rw.Finish(newRoot, liveEdges)

	// The selection: every vertex requested under the T variant, at its
	// T representative. (needF/needT and repT survive Finish; the old
	// topological order does not.)
	d = ov.Col(dst) // re-fetch: Finish may have grown the column
	dag.ForEachBit(needT, func(v dag.VertexID) {
		d.Set(repT[v])
	})
}

// ovSibling implements following-sibling and preceding-sibling with edge
// multiplicities (Proposition 3.4). A vertex is selected iff, within its
// parent's child sequence, some strictly earlier (resp. later) sibling is
// in S. Multiplicity runs can split: in a run c^k with c in S, the first
// (resp. last) occurrence has no earlier (later) selected sibling from the
// run itself, while the remaining k-1 do. The per-vertex edge rewrite is
// independent of the vertex's own variant, so pass 2 computes one edge
// plan per vertex and at most two representatives sharing it.
func ovSibling(ov *dag.Overlay, axis Axis, src, dst int) {
	d := ov.Col(dst)
	d.Zero()
	root := ov.Root()
	if root == dag.NilVertex {
		return
	}
	s := ov.Col(src)
	order := ov.Order()
	reversed := axis == PrecedingSibling
	needF, needT := ov.NeedScratch()
	needF.Set(root)

	// Pass 1: need variants. Within a parent's child sequence (reversed
	// for preceding-sibling), everything after the first selected sibling
	// is selected; the first occurrence of a selected run is not, the
	// remaining count-1 are.
	for _, v := range order {
		if !needF.Get(v) && !needT.Get(v) {
			continue
		}
		edges := ov.Edges(v)
		seen := false
		for j := range edges {
			e := edges[j]
			if reversed {
				e = edges[len(edges)-1-j]
			}
			switch {
			case seen:
				needT.Set(e.Child)
			case s.Get(e.Child):
				needF.Set(e.Child)
				if e.Count > 1 {
					needT.Set(e.Child)
				}
				seen = true
			default:
				needF.Set(e.Child)
			}
		}
	}

	// As in ovDownward: no (vertex, both-variants) request means no run
	// ever splits and no edge list changes — the selection is needT.
	if !anyOverlap(needF, needT) {
		copy(d, needT)
		return
	}

	// Pass 2: representatives, children before parents. The edge rewrite
	// is variant-independent, so each vertex gets one plan and at most two
	// representatives sharing its edge slice. The common case — no child
	// in S, no child representative diverged — is detected without
	// building a plan.
	repF, repT := ov.RepScratch()
	rw := ov.BeginRewrite()
	liveEdges := 0
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		nf, nt := needF.Get(v), needT.Get(v)
		if !nf && !nt {
			continue
		}
		edges := ov.Edges(v)

		untouched := true
		for _, e := range edges {
			if s.Get(e.Child) || repF[e.Child] != e.Child {
				untouched = false
				break
			}
		}
		identical := untouched
		var plan []dag.Edge // the new edge list, when it changed
		if !untouched {
			plan = rw.Plan()
			emit := func(c dag.VertexID, count uint32, sel bool) {
				if count == 0 {
					return
				}
				nc := repF[c]
				if sel {
					nc = repT[c]
				}
				if n := len(plan); n > 0 && plan[n-1].Child == nc {
					plan[n-1].Count += count
				} else {
					plan = append(plan, dag.Edge{Child: nc, Count: count})
				}
			}
			seen := false
			for j := range edges {
				e := edges[j]
				if reversed {
					e = edges[len(edges)-1-j]
				}
				switch {
				case seen:
					emit(e.Child, e.Count, true)
				case s.Get(e.Child):
					emit(e.Child, 1, false)
					emit(e.Child, e.Count-1, true)
					seen = true
				default:
					emit(e.Child, e.Count, false)
				}
			}
			if reversed {
				for l, r := 0, len(plan)-1; l < r; l, r = l+1, r-1 {
					plan[l], plan[r] = plan[r], plan[l]
				}
				plan = mergeRuns(plan)
			}
			identical = planEqual(plan, edges)
		}

		// The first copy of a changed vertex takes the plan; a second
		// shares the first's edge list, as an unchanged copy shares v's.
		idVariantT := nt && !nf
		first := dag.NilVertex
		rep := func(isIdentitySlot bool) dag.VertexID {
			switch {
			case identical && isIdentitySlot:
				return v
			case identical:
				return rw.AppendShared(v, v)
			case first == dag.NilVertex:
				first = rw.Append(v, plan)
				return first
			default:
				return rw.AppendShared(v, first)
			}
		}
		nEdges := len(edges)
		if !identical {
			nEdges = len(plan)
		}
		if nf {
			repF[v] = rep(!idVariantT)
			liveEdges += nEdges
		}
		if nt {
			repT[v] = rep(idVariantT)
			liveEdges += nEdges
		}
	}

	rw.Finish(repF[root], liveEdges)

	d = ov.Col(dst) // re-fetch: Finish may have grown the column
	dag.ForEachBit(needT, func(v dag.VertexID) {
		d.Set(repT[v])
	})
}

// mergeRuns fuses adjacent edges to the same child into one run, restoring
// RLE normal form in place.
func mergeRuns(edges []dag.Edge) []dag.Edge {
	if len(edges) < 2 {
		return edges
	}
	w := 0
	for r := 1; r < len(edges); r++ {
		if edges[r].Child == edges[w].Child {
			edges[w].Count += edges[r].Count
		} else {
			w++
			edges[w] = edges[r]
		}
	}
	return edges[:w+1]
}

// planEqual reports whether a rewritten edge plan is identical to the
// original edge list.
func planEqual(plan, edges []dag.Edge) bool {
	if len(plan) != len(edges) {
		return false
	}
	for i := range plan {
		if plan[i] != edges[i] {
			return false
		}
	}
	return true
}

// anyOverlap reports whether two equally-sized bitsets intersect.
func anyOverlap(a, b dag.Bitset) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}
