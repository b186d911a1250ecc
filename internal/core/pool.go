package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/synopsis"
	"repro/internal/xpath"
)

// Pool fans queries out over a corpus of documents with a bounded worker
// pool: the batch-oriented face of the library that cmd/xcquery's
// directory mode sits on. Documents are independent, so evaluation is
// coordination-free — workers share only the compiled (read-only) program.
//
// PrepareBatch also builds a path synopsis per document (the same
// summaries the archive store persists as sidecars), so RunAll can skip
// prepared documents a query's signature provably cannot match — the
// directory-mode form of catalog-level pruning.
//
// A Pool is safe for concurrent use once populated: Add/AddDir must not
// race with PrepareBatch or QueryAll, but any number of QueryAll calls
// may run concurrently with each other (Prepared instances are frozen and
// never mutated; every query writes only to its own overlay).
type Pool struct {
	workers int
	entries []*poolEntry
	idx     *synopsis.Index // built by PrepareBatch; nil before
}

type poolEntry struct {
	name string
	doc  *Document
	prep *Prepared
	syn  *synopsis.Synopsis
}

// NewPool returns an empty pool evaluating up to workers documents
// concurrently; workers <= 0 uses GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Len returns the number of documents in the pool.
func (p *Pool) Len() int { return len(p.entries) }

// Names returns the document names in pool order.
func (p *Pool) Names() []string {
	out := make([]string, len(p.entries))
	for i, e := range p.entries {
		out[i] = e.name
	}
	return out
}

// Add registers a document under name. The data is retained, not copied.
func (p *Pool) Add(name string, doc []byte) {
	p.entries = append(p.entries, &poolEntry{name: name, doc: Load(doc)})
}

// AddDir loads every regular *.xml file directly under dir (sorted by
// name, so pool order is stable) and returns how many were added.
func (p *Pool) AddDir(dir string) (int, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("core: reading corpus directory: %w", err)
	}
	var names []string
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".xml") {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, fmt.Errorf("core: reading %s: %w", name, err)
		}
		p.Add(name, data)
	}
	return len(names), nil
}

// PrepareBatch parses and compresses every document's full tag skeleton
// concurrently (Document.Prepare per entry), and summarises each into a
// path synopsis over a pool-wide dictionary. Subsequent QueryAll calls
// then skip re-parsing for tag-only queries, and skip evaluation
// entirely for documents a query's signature rules out. The first error
// (in pool order) is returned; documents that prepared successfully stay
// prepared.
func (p *Pool) PrepareBatch() error {
	if p.idx == nil {
		p.idx = synopsis.NewIndex()
	}
	errs := make([]error, len(p.entries))
	engine.ForEach(len(p.entries), p.workers, func(i int) {
		e := p.entries[i]
		e.prep, errs[i] = e.doc.Prepare()
		if errs[i] == nil {
			e.syn = synopsis.Build(e.prep.Frozen().Instance(), p.idx.Dict(), synopsis.Options{})
		}
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: preparing %s: %w", p.entries[i].name, err)
		}
	}
	return nil
}

// BatchResult is the outcome of one document's evaluation within a batch.
type BatchResult struct {
	Name   string
	Result *Result
	Err    error
	// Pruned marks a document the path-synopsis index skipped: the
	// evaluation never ran because the index proved it would select
	// nothing. Result is a well-formed empty result.
	Pruned bool
	// Direct marks a document answered from its synopsis statistics
	// alone (exists/count-shaped queries): the counts are exact and no
	// evaluation ran; asking the Result for paths or an instance
	// evaluates lazily.
	Direct bool
}

// QueryAll compiles the query once and evaluates it against every
// document on the worker pool, returning one BatchResult per document in
// pool order. Per-document failures are reported in the results, not as
// a call error, so one malformed document doesn't sink the batch.
func (p *Pool) QueryAll(query string) ([]BatchResult, error) {
	prog, err := xpath.CompileQuery(query)
	if err != nil {
		return nil, err
	}
	return p.RunAll(prog), nil
}

// RunAll evaluates a compiled program against every document on the
// worker pool. Prepared documents (PrepareBatch) evaluate through their
// cached instance — reordered cheapest-first by the cost-based planner
// over the pool-wide synopsis statistics — unless their synopsis proves
// the program cannot match, in which case they are skipped with a Pruned
// empty result; others re-parse per query, like Document.Run
// (re-parsing already costs a full scan, so there is nothing for an
// index to save there). Synopsis-direct answering is left to the archive
// store, whose results don't promise the DAG-level selection stats an
// evaluation produces.
func (p *Pool) RunAll(prog *xpath.Program) []BatchResult {
	var rs *synopsis.Resolved
	eval := prog
	if p.idx != nil {
		rs = p.idx.Resolve(prog.Sig)
		eval = plan.Build(prog, p.idx).Prog
	}
	out := make([]BatchResult, len(p.entries))
	engine.ForEach(len(p.entries), p.workers, func(i int) {
		e := p.entries[i]
		out[i].Name = e.name
		switch {
		case e.prep != nil && rs != nil && e.syn != nil && !e.syn.CanMatch(rs):
			out[i].Pruned = true
			out[i].Result = EmptyResult()
		case e.prep != nil:
			out[i].Result, out[i].Err = e.prep.Run(eval)
		default:
			out[i].Result, out[i].Err = e.doc.Run(eval)
		}
	})
	return out
}

// BatchStats summarises a batch: summed Figure 7 statistics over the
// documents that evaluated successfully, plus the error count. Times are
// summed CPU-side costs (wall-clock is lower under parallel evaluation).
type BatchStats struct {
	Docs, Errors int
	// Pruned counts documents the path-synopsis index skipped (their
	// empty results are still included in the other sums).
	Pruned int

	ParseTime, EvalTime time.Duration

	VertsBefore, EdgesBefore int
	VertsAfter, EdgesAfter   int
	SelectedDAG              int
	SelectedTree             uint64
	TreeVertices             uint64
}

// Summarize folds batch results into totals.
func Summarize(results []BatchResult) BatchStats {
	var s BatchStats
	for _, r := range results {
		if r.Err != nil {
			s.Errors++
			continue
		}
		s.Docs++
		if r.Pruned {
			s.Pruned++
		}
		s.ParseTime += r.Result.ParseTime
		s.EvalTime += r.Result.EvalTime
		s.VertsBefore += r.Result.VertsBefore
		s.EdgesBefore += r.Result.EdgesBefore
		s.VertsAfter += r.Result.VertsAfter
		s.EdgesAfter += r.Result.EdgesAfter
		s.SelectedDAG += r.Result.SelectedDAG
		s.SelectedTree += r.Result.SelectedTree
		s.TreeVertices += r.Result.TreeVertices
	}
	return s
}
