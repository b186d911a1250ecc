package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// Prepared is a document whose tag skeleton has been compressed once and
// is reused across queries — the evaluation mode Section 4 of the paper
// describes as the intended design: "Whenever a property P is required
// that is not yet represented in the instance, we can search the ...
// document on disk, distill a compressed instance over schema {P}, and
// merge it with the instance that holds our current intermediate result
// using the common extensions algorithm of Section 2.3."
//
// Queries run on the frozen base instance itself — never on a copy. The
// engine's overlay mode (engine.RunFrozen) reads the immutable base all
// in-flight queries share and confines its writes to a pooled per-query
// overlay, so a tag-only query allocates in proportion to its result,
// not to the document. Queries with string conditions distill a
// strings-only instance in one text scan, merge it into the cached tag
// instance with dag.CommonExtension, and memoise the frozen merged
// instance keyed by the query's string-condition set — so repeated
// queries over the same conditions (a server's hot queries) also run
// overlay-style with no scan at all. The memo is a small FIFO
// (mergedCacheCap entries); each entry costs about one base instance.
//
// A Prepared value is safe for concurrent use: frozen instances are
// never mutated, and the memo index is guarded by a mutex.
type Prepared struct {
	frozen  *dag.Frozen
	distill Distiller

	mu     sync.Mutex
	merged map[string]*dag.Frozen // string-set key -> frozen base+marks
	order  []string               // FIFO eviction order for merged
}

// mergedCacheCap bounds how many distinct string-condition sets a
// Prepared memoises.
const mergedCacheCap = 8

// A Distiller produces a compressed instance over just the given string
// patterns (the skeleton.TagsNone + Strings build) for the same document a
// Prepared's base instance represents. Document.Prepare distils by
// re-scanning the XML source; storage-backed documents (internal/store)
// distil by a direct walk of the archive's value containers
// (container.Archive.DistillStrings), with no XML involved. A Distiller
// must be safe for concurrent use.
type Distiller func(patterns []string) (*dag.Instance, error)

// Prepare parses the document once, compressing its skeleton with all
// tags recorded.
func (d *Document) Prepare() (*Prepared, error) {
	base, _, err := skeleton.BuildCompressed(d.source, skeleton.Options{Mode: skeleton.TagsAll})
	if err != nil {
		return nil, fmt.Errorf("core: preparing document: %w", err)
	}
	return NewPrepared(base, func(patterns []string) (*dag.Instance, error) {
		inst, _, err := skeleton.BuildCompressed(d.source, skeleton.Options{
			Mode:    skeleton.TagsNone,
			Strings: patterns,
		})
		return inst, err
	}), nil
}

// NewPrepared wraps an externally built full-tag instance (skeleton mode
// TagsAll, e.g. distilled from a stored archive) and its string-condition
// distiller as a Prepared document. base is frozen, not copied: the
// caller must not mutate it afterwards. distill may be nil, in which case
// queries with string conditions fail.
func NewPrepared(base *dag.Instance, distill Distiller) *Prepared {
	return &Prepared{frozen: dag.Freeze(base), distill: distill}
}

// Frozen returns the shared frozen base instance.
func (p *Prepared) Frozen() *dag.Frozen { return p.frozen }

// BaseVertices returns the size of the cached instance, for reporting.
func (p *Prepared) BaseVertices() int { return p.frozen.NumVertices() }

// TreeVertices returns |V_T| of the prepared document: the number of
// elements it contains, excluding the virtual document vertex. The size
// is computed once and cached on the frozen base.
func (p *Prepared) TreeVertices() uint64 { return p.frozen.TreeSize() - 1 }

// BaseEdges returns the edge count of the cached instance.
func (p *Prepared) BaseEdges() int { return p.frozen.NumEdges() }

// mergedFor returns the frozen base instance extended with marks for the
// given string conditions, distilling and merging on first use and
// memoising the result. Relations are matched by name, so the instance
// for a string set serves every program over that set.
func (p *Prepared) mergedFor(patterns []string) (*dag.Frozen, error) {
	key := mergeKey(patterns)
	p.mu.Lock()
	m := p.merged[key]
	p.mu.Unlock()
	if m != nil {
		return m, nil
	}

	// Distill a compressed instance over just the string conditions (one
	// scan of the text or the archive containers), then merge.
	if p.distill == nil {
		return nil, fmt.Errorf("core: prepared document has no string distiller for conditions %q", patterns)
	}
	strInst, err := p.distill(patterns)
	if err != nil {
		return nil, fmt.Errorf("core: distilling string conditions: %w", err)
	}
	mi, err := dag.CommonExtension(p.frozen.Instance(), strInst)
	if err != nil {
		return nil, fmt.Errorf("core: merging string conditions: %w", err)
	}
	m = dag.Freeze(mi)

	p.mu.Lock()
	defer p.mu.Unlock()
	if existing, ok := p.merged[key]; ok {
		// A concurrent distillation won; both instances are equivalent —
		// keep the published one.
		return existing, nil
	}
	if p.merged == nil {
		p.merged = make(map[string]*dag.Frozen)
	}
	for len(p.order) >= mergedCacheCap {
		delete(p.merged, p.order[0])
		p.order = p.order[1:]
	}
	p.merged[key] = m
	p.order = append(p.order, key)
	return m, nil
}

// MemoSize reports the summed size (vertices, edges) of the memoised
// merged instances, for callers that account prepared-document memory —
// e.g. the archive store charges it against its cache budget after
// string-condition queries.
func (p *Prepared) MemoSize() (verts, edges int) {
	verts, edges, _ = p.Footprint()
	return verts, edges
}

// AuxBytes estimates the memory held by the frozen views beyond the
// instances themselves — cached topological orders, path counts and
// per-relation selection columns, for the base and every memoised merged
// instance. The archive store charges it against its cache budget.
func (p *Prepared) AuxBytes() int64 {
	_, _, aux := p.Footprint()
	return aux
}

// Footprint returns the memo sizes and the frozen views' aux bytes in
// one lock round — the store's per-query cache re-estimate calls this on
// the hot path, so the exclusive memo lock is taken exactly once.
func (p *Prepared) Footprint() (memoVerts, memoEdges int, aux int64) {
	aux = p.frozen.AuxBytes()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.merged {
		memoVerts += m.NumVertices()
		memoEdges += m.NumEdges()
		aux += m.AuxBytes()
	}
	return memoVerts, memoEdges, aux
}

// mergeKey canonicalises a pattern set. Patterns cannot contain NUL (they
// come from XML text), so it is collision-free.
func mergeKey(patterns []string) string {
	ps := append([]string(nil), patterns...)
	sort.Strings(ps)
	return strings.Join(ps, "\x00")
}

// Query parses, compiles and evaluates a query against the prepared
// document.
func (p *Prepared) Query(query string) (*Result, error) {
	prog, err := xpath.CompileQuery(query)
	if err != nil {
		return nil, err
	}
	return p.Run(prog)
}

// Run evaluates a compiled program on the shared frozen instance — no
// clone, no schema mutation; the per-query state is a pooled overlay
// (engine.RunFrozen). Result.ParseTime covers only the per-query
// preparation actually performed (string distillation and merging;
// zero-ish for tag-only queries), never a full re-parse of tags.
func (p *Prepared) Run(prog *xpath.Program) (*Result, error) {
	t0 := time.Now()
	f := p.frozen
	if len(prog.Strings) > 0 {
		var err error
		f, err = p.mergedFor(prog.Strings)
		if err != nil {
			return nil, err
		}
	}
	prepTime := time.Since(t0)

	t1 := time.Now()
	er, err := engine.RunFrozen(f, prog)
	if err != nil {
		return nil, err
	}
	evalTime := time.Since(t1)

	res := newResult(er)
	res.ParseTime = prepTime
	res.EvalTime = evalTime
	res.TreeVertices = p.TreeVertices()
	return res, nil
}

// RunCount evaluates a compiled program for its cardinalities only
// (engine.RunFrozenCount): the result carries the full counting fields
// but selects into no view or instance — Paths and Instance report an
// empty selection. Count-shaped consumers (totals, exists checks,
// estimator-soundness harnesses) use it to skip the view detach.
func (p *Prepared) RunCount(prog *xpath.Program) (*Result, error) {
	t0 := time.Now()
	f := p.frozen
	if len(prog.Strings) > 0 {
		var err error
		f, err = p.mergedFor(prog.Strings)
		if err != nil {
			return nil, err
		}
	}
	prepTime := time.Since(t0)

	t1 := time.Now()
	er, err := engine.RunFrozenCount(f, prog)
	if err != nil {
		return nil, err
	}
	evalTime := time.Since(t1)

	res := newResult(er)
	in := dag.New()
	res.inst, res.lbl = in, in.Schema.Intern("result:count")
	res.ParseTime = prepTime
	res.EvalTime = evalTime
	res.TreeVertices = p.TreeVertices()
	return res, nil
}
