// Package core is the public face of the library: it ties together the
// SAX parser, skeleton compressor, Core XPath compiler and the
// compressed-instance query engine into the document/query API that the
// examples, tools and benchmarks use.
//
// The evaluation model follows Section 4 of the paper: for each query, one
// linear scan of the document builds a compressed instance containing
// exactly the relations the query needs (its tags and string conditions),
// and the query then runs purely in main memory on that instance,
// partially decompressing it where downward or sibling axes require.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/label"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// Document wraps XML source for repeated querying. The prototype in the
// paper re-parses the document for every query issued (building a
// compressed instance over exactly the query's schema); Document does the
// same, which keeps per-query instances minimal.
type Document struct {
	source []byte
}

// Load wraps doc. The data is retained (not copied); callers must not
// mutate it afterwards.
func Load(doc []byte) *Document { return &Document{source: doc} }

// Source returns the underlying XML bytes.
func (d *Document) Source() []byte { return d.source }

// CompressionStats is one row of Figure 6 for one tag mode.
type CompressionStats struct {
	TreeVertices uint64  // |V_T|
	TreeEdges    uint64  // |E_T| = |V_T| - 1
	DagVertices  int     // |V_M(T)|
	DagEdges     int     // |E_M(T)|
	Ratio        float64 // |E_M(T)| / |E_T|
}

// Stats compresses the document's skeleton under the given tag mode and
// reports the compression figures of Figure 6 (skeleton.TagsNone is the
// paper's "−" row, skeleton.TagsAll the "+" row).
func (d *Document) Stats(mode skeleton.TagMode) (CompressionStats, error) {
	inst, st, err := skeleton.BuildCompressed(d.source, skeleton.Options{Mode: mode})
	if err != nil {
		return CompressionStats{}, err
	}
	cs := CompressionStats{
		TreeVertices: st.TreeVertices,
		DagVertices:  inst.NumVertices(),
		DagEdges:     inst.NumEdges(),
	}
	if st.TreeVertices > 0 {
		cs.TreeEdges = st.TreeVertices - 1
	}
	if cs.TreeEdges > 0 {
		cs.Ratio = float64(cs.DagEdges) / float64(cs.TreeEdges)
	}
	return cs, nil
}

// Result reports a query evaluation in the shape of one Figure 7 row.
//
// An evaluated result carries its selection as a detached overlay view
// over the frozen instance it ran on; pruned, exists-direct and count-only
// results carry a tiny standalone instance, and a count-direct result
// evaluates (through its fallback) only when asked for its selection.
// The counting fields are always populated; the Instance accessor
// materializes a standalone instance lazily, and Paths reads straight off
// whichever form is present — so a serving layer that only reports counts
// and addresses never pays for materialization.
type Result struct {
	// ParseTime covers parsing, string matching and compression; EvalTime
	// covers pure in-memory query evaluation (columns 1 and 4).
	ParseTime, EvalTime time.Duration

	// VertsBefore/EdgesBefore are the compressed instance sizes before
	// evaluation (columns 2-3); VertsAfter/EdgesAfter after evaluation,
	// showing partial decompression (columns 5-6).
	VertsBefore, EdgesBefore int
	VertsAfter, EdgesAfter   int

	// SelectedDAG counts selected vertices of the compressed instance
	// (column 7); SelectedTree the tree nodes they represent (column 8).
	SelectedDAG  int
	SelectedTree uint64

	// TreeVertices is |V_T| of the document.
	TreeVertices uint64

	mu   sync.Mutex
	inst *dag.Instance   // materialized result instance (lazy for views)
	lbl  label.ID        // result selection within inst
	view *dag.ResultView // overlay result; nil until evaluated, and for count-only runs

	// direct marks results answered from synopsis statistics without
	// evaluation; fallback, for direct count results, evaluates the
	// query for real when a caller wants more than the counts — Paths
	// with a positive max, Instance, Label. It runs at most once,
	// under mu.
	direct   bool
	fallback func() (*Result, error)
}

// EmptyResult returns a result selecting nothing, without any
// evaluation having run: what a fan-out reports for a document the
// path-synopsis index proved cannot match. The instance-size and timing
// fields stay zero (the document was never touched); Paths and Instance
// behave like any other empty result. Every call returns the same
// shared result, so a fan-out pays nothing per pruned document: callers
// must not modify it.
func EmptyResult() *Result { return emptyResult }

// DirectResult returns a count-shape result answered from synopsis
// statistics: SelectedTree is the exact tree-level match count and no
// evaluation has run. Counting consumers (fan-out totals, max<=0 path
// requests) never touch the document; a consumer that asks for paths or
// the result instance triggers fallback, which evaluates the query for
// real — its outcome then backs Paths/Instance, while the stats fields
// keep their synopsis-derived values (the two agree by the planner's
// exactness contract, which the differential tests pin). A fallback
// failure (the document became unreadable after planning) degrades to an
// empty instance; the count remains authoritative. count must be
// positive: a proven-zero answer should be an ExistsResult(false)-style
// empty, carrying an instance and needing no fallback.
func DirectResult(count uint64, fallback func() (*Result, error)) *Result {
	return &Result{SelectedTree: count, direct: true, fallback: fallback}
}

// ExistsResult returns an exists-shape result answered from synopsis
// statistics: the root node when the document satisfies the chain (what
// evaluating /self::*[chain] selects — SelectedTree 1, path ""), or a
// selection of nothing. Both forms carry a tiny standalone instance, so
// no consumer can ever force a decode. Like EmptyResult, each form is
// one shared result: callers must not modify it.
func ExistsResult(exists bool) *Result {
	if exists {
		return existsTrue
	}
	return existsFalse
}

// The fixed results EmptyResult and ExistsResult hand out, built once.
// Their instances are read-only like every result instance, and they
// carry neither a view nor a fallback, so nothing ever writes to them.
var (
	emptyResult = fixedResult("result:pruned", false, false)
	existsFalse = fixedResult("result:direct", true, false)
	existsTrue  = fixedResult("result:direct", true, true)
)

// fixedResult builds a standalone result over a new instance whose
// selection, named name, is the lone root when selected and nothing
// otherwise.
func fixedResult(name string, direct, selected bool) *Result {
	in := dag.New()
	r := &Result{direct: direct, inst: in, lbl: in.Schema.Intern(name)}
	if selected {
		in.Verts = append(in.Verts, dag.Vertex{Labels: label.Set(nil).Set(r.lbl)})
		in.Root = 0
		r.SelectedTree, r.SelectedDAG = 1, 1
	}
	return r
}

// Direct reports whether the result was answered from synopsis
// statistics without evaluation (it may still evaluate lazily through
// its fallback if paths or an instance are requested).
func (r *Result) Direct() bool { return r.direct }

// newResult wraps an engine result, deferring materialization of its view.
func newResult(er *engine.Result) *Result {
	return &Result{
		VertsBefore:  er.VertsBefore,
		EdgesBefore:  er.EdgesBefore,
		VertsAfter:   er.VertsAfter,
		EdgesAfter:   er.EdgesAfter,
		SelectedDAG:  er.SelectedDAG,
		SelectedTree: er.SelectedTree,
		inst:         er.Instance,
		lbl:          er.Label,
		view:         er.View,
	}
}

// Instance returns the final (partially decompressed) instance carrying
// the result selection, for callers that want to walk or serialise the
// result. Overlay results materialize it on first use (and cache it);
// treat it as read-only — Clone before mutating or consuming it.
func (r *Result) Instance() *dag.Instance {
	inst, _ := r.materialize()
	return inst
}

// Label returns the ID of the result selection within Instance().
func (r *Result) Label() label.ID {
	_, lbl := r.materialize()
	return lbl
}

func (r *Result) materialize() (*dag.Instance, label.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runFallbackLocked()
	if r.inst == nil && r.view != nil {
		r.inst, r.lbl = r.view.Materialize()
	}
	return r.inst, r.lbl
}

// runFallbackLocked lazily evaluates a synopsis-direct count result when
// a consumer needs its selection, adopting the evaluation's view or
// instance. The counting fields are deliberately left as constructed —
// mutating them here would race with lock-free readers of the plain
// stats fields, and the fallback's counts agree by the exactness
// contract anyway.
func (r *Result) runFallbackLocked() {
	if r.inst != nil || r.view != nil || r.fallback == nil {
		return
	}
	fb := r.fallback
	r.fallback = nil
	fr, err := fb()
	if err != nil {
		in := dag.New()
		r.inst, r.lbl = in, in.Schema.Intern("result:direct")
		return
	}
	fr.mu.Lock()
	r.inst, r.lbl, r.view = fr.inst, fr.lbl, fr.view
	fr.mu.Unlock()
}

// Paths returns the tree addresses (1-based child positions joined with
// '.', root = "") of up to max selected nodes, in document order — the
// paper's result "decoding" step, computed with a traversal pruned to the
// answer. Overlay results are walked directly over the shared base plus
// the query's extension; nothing is cloned or materialized.
func (r *Result) Paths(max int) []string {
	if max <= 0 {
		// Count-only consumption: never force a synopsis-direct result
		// to evaluate just to enumerate zero paths.
		return nil
	}
	r.mu.Lock()
	r.runFallbackLocked()
	view, inst, lbl := r.view, r.inst, r.lbl
	r.mu.Unlock()
	if inst == nil && view != nil {
		return view.Paths(max)
	}
	return dag.SelectedPaths(inst, lbl, max)
}

// QueryFrom evaluates a follow-up query whose top-level relative paths
// start from this result's selection — the "user-defined initial selection
// of nodes" context of Section 3.1. Evaluation reads the (partially
// decompressed) result instance frozen in place, with the selection as the
// context relation; nothing is copied or mutated, so r remains valid and
// composition chains freely.
//
// The follow-up may only reference relations present in the result
// instance: tags the original query requested (or all tags, for results
// from a Prepared document) and its string conditions. Absent relations
// select nothing.
func (r *Result) QueryFrom(query string) (*Result, error) {
	inst, lbl := r.materialize()
	prog, err := xpath.CompileWithContext(query, inst.Schema.Name(lbl))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	er, err := engine.RunFrozen(dag.Freeze(inst), prog)
	if err != nil {
		return nil, err
	}
	evalTime := time.Since(t0)
	res := newResult(er)
	res.EvalTime = evalTime
	res.TreeVertices = r.TreeVertices
	return res, nil
}

// Query parses, compiles and evaluates a Core XPath query against the
// document on a freshly built compressed instance.
func (d *Document) Query(query string) (*Result, error) {
	prog, err := xpath.CompileQuery(query)
	if err != nil {
		return nil, err
	}
	return d.Run(prog)
}

// Compile exposes query compilation for callers that run one query against
// many documents, or that want to inspect the algebra plan (Program.String
// prints it in the form of Figure 3's query trees, linearised).
func Compile(query string) (*xpath.Program, error) {
	return xpath.CompileQuery(query)
}

// Run evaluates a compiled program against the document: it distils a
// compressed instance over exactly the program's relations, freezes it
// and evaluates on it (engine.RunFrozen).
func (d *Document) Run(prog *xpath.Program) (*Result, error) {
	t0 := time.Now()
	inst, st, err := skeleton.BuildCompressed(d.source, skeleton.Options{
		Mode:    skeleton.TagsListed,
		Tags:    prog.Tags,
		Strings: prog.Strings,
	})
	if err != nil {
		return nil, fmt.Errorf("core: building compressed skeleton: %w", err)
	}
	parseTime := time.Since(t0)

	t1 := time.Now()
	er, err := engine.RunFrozen(dag.Freeze(inst), prog)
	if err != nil {
		return nil, err
	}
	evalTime := time.Since(t1)

	res := newResult(er)
	res.ParseTime = parseTime
	res.EvalTime = evalTime
	res.TreeVertices = st.TreeVertices
	return res, nil
}
