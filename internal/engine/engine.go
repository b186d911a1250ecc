// Package engine executes compiled Core XPath programs against (compressed
// or uncompressed) instances, following the evaluation mode of Sections 3.3
// and 4: instructions run in order, each adding one selection to the
// instance and possibly partially decompressing it; the final selection is
// the query result, itself represented on a partially decompressed
// instance. RunFrozen is the one evaluator: it reads a frozen instance
// shared by every in-flight query and writes only to a per-query overlay.
package engine

import (
	"repro/internal/dag"
	"repro/internal/label"
)

// Result is the outcome of running a program.
type Result struct {
	// Instance is the (possibly partially decompressed) instance carrying
	// the result selection. RunFrozen leaves it nil and carries View
	// instead; Materialize fills it on demand.
	Instance *dag.Instance
	// Label identifies the result selection within Instance.
	Label label.ID
	// View is the detached overlay result: the shared frozen base plus the
	// query's extension and selection. nil for RunFrozenCount results.
	View *dag.ResultView

	// SelectedDAG is the number of instance vertices selected
	// (Figure 7 column 7).
	SelectedDAG int
	// SelectedTree is the number of nodes of the uncompressed tree the
	// selection represents (Figure 7 column 8).
	SelectedTree uint64

	// VertsBefore/EdgesBefore and VertsAfter/EdgesAfter measure the
	// partial decompression caused by the query (Figure 7 columns 2-3
	// and 5-6).
	VertsBefore, EdgesBefore int
	VertsAfter, EdgesAfter   int
}

// Materialize returns the result as a standalone instance plus the
// selection's label ID, building both lazily from the view. The instance
// shares nothing mutable with any frozen base. Not safe for concurrent use
// on one Result.
func (r *Result) Materialize() (*dag.Instance, label.ID) {
	if r.Instance == nil && r.View != nil {
		r.Instance, r.Label = r.View.Materialize()
	}
	return r.Instance, r.Label
}

// Recompress re-minimises the result instance (Section 3.3: "It is easy
// to re-compress, but we suspect that this will rarely pay off in
// practice" — BenchmarkAblationRecompress quantifies exactly that).
// Selected counts are unaffected (compression preserves equivalence,
// including all selections); the size accounting is updated in place.
func (r *Result) Recompress() {
	r.Materialize()
	r.Instance = dag.Compress(r.Instance)
	r.VertsAfter = r.Instance.NumVertices()
	r.EdgesAfter = r.Instance.NumEdges()
	r.SelectedDAG = r.Instance.CountSelected(r.Label)
}
