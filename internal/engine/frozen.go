package engine

import (
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/xpath"
)

// RunFrozen executes prog against a frozen (immutable, shared) instance.
// It reads the base that every in-flight query of the document shares and
// confines all writes to a pooled per-query overlay: selections live in
// dense bitset columns, and the decompressing axes append copy-on-write
// extension vertices instead of rebuilding the DAG.
// Nothing is interned into the shared schema and no vertex of the base is
// ever touched, so any number of RunFrozen calls may run concurrently
// over one Frozen. Relations the program references (tags, string
// conditions) that are absent from the instance's schema select nothing,
// matching documents that simply lack the tag.
//
// The returned Result carries a detached View instead of an Instance;
// counts are computed eagerly, and Materialize (or the Result accessors
// in internal/core) builds a standalone instance lazily for callers that
// want to walk or re-query the result.
func RunFrozen(f *dag.Frozen, prog *xpath.Program) (*Result, error) {
	res := &Result{
		VertsBefore: f.NumVertices(),
		EdgesBefore: f.NumEdges(),
	}

	ov := dag.AcquireOverlay(f)
	defer ov.Release()
	if err := runOverlay(ov, prog); err != nil {
		return nil, err
	}

	res.VertsAfter, res.EdgesAfter = ov.LiveCounts()
	res.SelectedDAG = ov.CountCol(prog.Result)
	res.SelectedTree = ov.SelectedTree(prog.Result)
	res.View = ov.Detach(prog.Result, res.SelectedTree)
	res.Label = label.Invalid
	return res, nil
}

// RunFrozenCount is RunFrozen for callers that only want cardinalities
// (exists/count-shaped consumption): it computes the same selection and
// counts but never detaches a view, so the overlay's column memory is
// returned to the pool untouched and no result instance can be
// materialized later. Result.View is nil.
func RunFrozenCount(f *dag.Frozen, prog *xpath.Program) (*Result, error) {
	res := &Result{
		VertsBefore: f.NumVertices(),
		EdgesBefore: f.NumEdges(),
	}

	ov := dag.AcquireOverlay(f)
	defer ov.Release()
	if err := runOverlay(ov, prog); err != nil {
		return nil, err
	}

	res.VertsAfter, res.EdgesAfter = ov.LiveCounts()
	res.SelectedDAG = ov.CountCol(prog.Result)
	res.SelectedTree = ov.SelectedTree(prog.Result)
	res.Label = label.Invalid
	return res, nil
}

// runOverlay dispatches the program's instructions over an acquired
// overlay — the shared core of RunFrozen and RunFrozenCount.
func runOverlay(ov *dag.Overlay, prog *xpath.Program) error {
	// Two spare columns beyond the program's registers for the composed
	// axes (following, preceding).
	scratchA, scratchB := prog.NumTemp, prog.NumTemp+1
	ov.EnsureCols(prog.NumTemp + 2)

	for i, in := range prog.Instrs {
		switch in.Op {
		case xpath.OpLabel:
			algebra.OvLabel(ov, in.Name, in.Dst)
		case xpath.OpAll:
			algebra.OvAll(ov, in.Dst)
		case xpath.OpRoot:
			algebra.OvRoot(ov, in.Dst)
		case xpath.OpAxis:
			algebra.OvApplyAxis(ov, in.Axis, in.A, in.Dst, scratchA, scratchB)
		case xpath.OpUnion:
			algebra.OvUnion(ov, in.A, in.B, in.Dst)
		case xpath.OpIntersect:
			algebra.OvIntersect(ov, in.A, in.B, in.Dst)
		case xpath.OpDiff:
			algebra.OvDifference(ov, in.A, in.B, in.Dst)
		case xpath.OpComplement:
			algebra.OvComplement(ov, in.A, in.Dst)
		case xpath.OpRootFilter:
			algebra.OvRootFilter(ov, in.A, in.Dst)
		default:
			return fmt.Errorf("engine: unknown op %d", in.Op)
		}
		// Retire operands nothing reads any more, so later rewrites
		// extend only the columns still needed.
		for _, r := range in.Operands() {
			if r != in.Dst && r != prog.Result && !readLater(prog.Instrs[i+1:], r) {
				ov.Retire(r)
			}
		}
	}
	return nil
}

// readLater reports whether any of instrs reads register r.
func readLater(instrs []xpath.Instr, r int) bool {
	for _, in := range instrs {
		if slices.Contains(in.Operands(), r) {
			return true
		}
	}
	return false
}
