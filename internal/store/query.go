package store

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/synopsis"
	"repro/internal/xpath"
)

// Request is one query against the store.
type Request struct {
	Query string
	// Doc names the one document to query; "" fans out over the whole
	// catalog.
	Doc string
	// Max caps the result addresses rendered. A fan-out spends it as one
	// budget across documents in catalog order, unless PerDoc is set.
	Max int
	// PerDoc gives every document of a fan-out its own Max budget: the
	// form a cluster peer answers in, because the router merges several
	// nodes' documents into global catalog order before it spends the
	// shared budget.
	PerDoc bool
	// Trace attaches the per-stage timing breakdown to the response.
	Trace bool
}

// Response is Do's answer: Doc for a one-document request, Fanout for
// a catalog fan-out.
type Response struct {
	Doc    *QueryResponse
	Fanout *FanoutResponse
}

// QueryResponse is the /query response for a single document.
type QueryResponse struct {
	Doc     string   `json:"doc"`
	Query   string   `json:"query"`
	Matches uint64   `json:"matches"` // tree nodes selected
	Paths   []string `json:"paths"`   // up to `max` tree addresses, document order

	// Pruned marks a document the path-synopsis index skipped during a
	// fan-out: provably zero matches, so the instance-size and timing
	// fields below stay zero (the document was never touched).
	Pruned bool `json:"pruned,omitempty"`

	// Direct marks a document the planner answered from synopsis
	// statistics alone during a fan-out: matches is exact but no
	// evaluation ran, so selected_dag and the instance-size fields stay
	// zero (requesting paths of a count-shaped result evaluates lazily).
	Direct bool `json:"direct,omitempty"`

	// Engine statistics for the evaluation (the Figure 7 columns).
	SelectedDAG int   `json:"selected_dag"`
	VertsBefore int   `json:"verts_before"`
	EdgesBefore int   `json:"edges_before"`
	VertsAfter  int   `json:"verts_after"`
	EdgesAfter  int   `json:"edges_after"`
	PrepNanos   int64 `json:"prep_ns"` // string distillation + merge; 0 for tag-only
	EvalNanos   int64 `json:"eval_ns"`

	// Trace is the per-stage timing breakdown, present when the request
	// asked for it with trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// TraceInfo is the JSON rendering of a query's stage trace (trace=1).
type TraceInfo struct {
	TotalNanos int64            `json:"total_ns"`
	Stages     map[string]int64 `json:"stages_ns"` // only stages that ran

	Considered   int   `json:"docs_considered"`
	Pruned       int   `json:"docs_pruned,omitempty"`
	Direct       int   `json:"docs_direct,omitempty"`
	Scanned      int   `json:"docs_scanned"`
	Failed       int   `json:"docs_failed,omitempty"`
	BytesDecoded int64 `json:"bytes_decoded"` // archive bytes decoded on cache misses
}

// FanoutResponse is the /query response when no document is named: one
// query evaluated against the whole catalog.
type FanoutResponse struct {
	Query        string          `json:"query"`
	Docs         []QueryResponse `json:"docs"`
	Failed       []FanoutError   `json:"failed,omitempty"`
	TotalMatches uint64          `json:"total_matches"`
	Pruned       int             `json:"pruned"` // documents the synopsis index skipped
	Direct       int             `json:"direct"` // documents answered from synopsis statistics
	WallNanos    int64           `json:"wall_ns"`
	Workers      int             `json:"workers"`

	// Trace is the per-stage timing breakdown, present when the request
	// asked for it with trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// FanoutError reports one document that failed during a fan-out.
type FanoutError struct {
	Doc   string `json:"doc"`
	Error string `json:"error"`

	// RetryAfter carries a shedding peer's Retry-After hint (seconds),
	// preserved per document when a clustered fan-out degrades a 429
	// into error entries instead of failing the whole request.
	RetryAfter string `json:"retry_after,omitempty"`
}

// Do answers one request: it compiles and plans the query, then either
// evaluates it on the named document or fans it out over the catalog —
// pruning from the synopsis index, answering exists/count-shaped plans
// direct, loading and evaluating the rest — and renders the response.
// Per-document fan-out failures land in Fanout.Failed; the call error
// is a bad request (unparsable query, negative Max), an unservable
// named document, or ctx's error once it is done. Every request is
// traced into the latency histograms and the slow-query log when those
// are on.
func (s *Store) Do(ctx context.Context, req Request) (Response, error) {
	if req.Max < 0 {
		return Response{}, fmt.Errorf("store: negative address budget %d", req.Max)
	}
	tr := s.newTrace(req.Query, req.Doc, req.Trace)
	var resp Response
	var err error
	if req.Doc != "" {
		var res *core.Result
		if res, err = s.queryDoc(ctx, tr, req.Doc, req.Query); err == nil {
			t0 := tr.Now()
			qr := toResponse(req.Doc, req.Query, res, req.Max)
			tr.Record(obs.StageMaterialize, t0)
			resp.Doc = &qr
		}
	} else {
		t0 := time.Now()
		var results []core.BatchResult
		if results, err = s.queryAll(ctx, tr, req.Query); err == nil {
			wall := time.Since(t0)
			m0 := tr.Now()
			resp.Fanout = s.renderFanout(req, results)
			resp.Fanout.WallNanos = int64(wall)
			tr.Record(obs.StageMaterialize, m0)
		}
	}
	s.closeTrace(tr, err)
	if err != nil {
		return Response{}, err
	}
	if req.Trace {
		if resp.Doc != nil {
			resp.Doc.Trace = traceInfo(tr)
		} else {
			resp.Fanout.Trace = traceInfo(tr)
		}
	}
	return resp, nil
}

// QueryCtx evaluates one query against one document, through both
// caches. The planner's reordered program is used (cheapest operands
// first) but the synopsis-direct shortcut is not: a single-document
// caller is about to touch the document anyway, and its response
// reports evaluation statistics a direct answer cannot supply.
// Evaluation is skipped once ctx is cancelled or past its deadline, and
// the context's error is returned.
func (s *Store) QueryCtx(ctx context.Context, name, query string) (*core.Result, error) {
	tr := s.newTrace(query, name, false)
	res, err := s.queryDoc(ctx, tr, name, query)
	s.closeTrace(tr, err)
	return res, err
}

// QueryAllCtx evaluates one query against every catalogued document and
// returns one result per document in name order. The path-synopsis
// index is consulted first: documents whose synopsis proves the query
// cannot match are skipped entirely — not loaded, not decoded, not
// evaluated — and report a Pruned empty result. The rest are loaded (or
// fetched from cache) concurrently, then every evaluation fans out on
// the worker pool directly against the shared frozen instances — the
// coordination-free read path: nothing is cloned, workers share only
// the read-only bases and program, and each query's writes live in its
// own pooled overlay (engine.RunFrozen via core.Prepared.Run). Pruning
// is coordination-free too: synopses are immutable, the index lock
// covers one map read per document, and a pruned answer for a name
// racing a concurrent replacement is the correct (empty) answer for the
// version the synopsis described — the same per-document snapshot
// semantics unpruned fan-out already has. Programs with string
// conditions distil per document on the same pool.
//
// Per-document failures (corrupt archives included) land in their
// result slots and never fail the call. Cancellation is cooperative:
// once ctx is done no further documents are dispatched (loads and
// evaluations already running finish), and the context's error is
// returned with nil results — the fan-out has no complete answer to
// give.
func (s *Store) QueryAllCtx(ctx context.Context, query string) ([]core.BatchResult, error) {
	tr := s.newTrace(query, "", false)
	out, err := s.queryAll(ctx, tr, query)
	s.closeTrace(tr, err)
	return out, err
}

// queryDoc is the one-document evaluation behind Do and QueryCtx,
// recording plan (compile + planning), load (cache lookup or decode)
// and eval spans into tr. Cancellation is checked between stages (an
// evaluation already running finishes).
func (s *Store) queryDoc(ctx context.Context, tr *obs.Trace, name, query string) (*core.Result, error) {
	t0 := tr.Now()
	prog, err := s.Program(query)
	if err != nil {
		tr.Record(obs.StagePlan, t0)
		return nil, err
	}
	pl, _ := s.planFor(query, prog)
	tr.Record(obs.StagePlan, t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t0 = tr.Now()
	d, decoded, err := s.doc(name)
	tr.AddDecodedBytes(decoded)
	tr.Record(obs.StageLoad, t0)
	if tr != nil {
		tr.Considered = 1
	}
	if err != nil {
		if tr != nil {
			tr.Failed = 1
		}
		s.noteDocFailure(name, err)
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.m.queries.Inc()
	t0 = tr.Now()
	res, err := d.Run(pl.Prog)
	tr.Record(obs.StageEval, t0)
	if err == nil {
		if tr != nil {
			tr.Scanned = 1
		}
		// Tag-only queries grow the frozen view's caches too (path
		// counts, label columns), so every query re-estimates.
		s.recharge(name, d)
	} else if tr != nil {
		tr.Failed = 1
	}
	return res, err
}

// queryAll is the catalog fan-out behind Do and QueryAllCtx, recording
// plan, prune, direct, load and eval spans into tr plus the fan-out's
// document accounting (considered/pruned/direct/scanned/failed) and
// decoded bytes.
func (s *Store) queryAll(ctx context.Context, tr *obs.Trace, query string) ([]core.BatchResult, error) {
	t0 := tr.Now()
	prog, err := s.Program(query)
	if err != nil {
		tr.Record(obs.StagePlan, t0)
		return nil, err
	}
	pl, chain := s.planFor(query, prog)
	tr.Record(obs.StagePlan, t0)
	eval := pl.Prog
	names := s.Names()
	out := make([]core.BatchResult, len(names))
	docs := make([]*Doc, len(names))
	t0 = tr.Now()
	skip := s.pruneSet(prog, names, out)
	tr.Record(obs.StagePrune, t0)
	t0 = tr.Now()
	skip = s.directSet(pl, chain, eval, names, out, skip)
	tr.Record(obs.StageDirect, t0)
	t0 = tr.Now()
	err = s.forEachCtx(ctx, len(names), func(i int) {
		out[i].Name = names[i]
		if skip != nil && skip[i] {
			return
		}
		var decoded int64
		docs[i], decoded, out[i].Err = s.doc(names[i])
		if decoded > 0 {
			tr.AddDecodedBytes(decoded) // shared by the workers: skip cache hits
		}
		if out[i].Err != nil {
			s.noteDocFailure(names[i], out[i].Err)
		}
	})
	tr.Record(obs.StageLoad, t0)
	if err != nil {
		return nil, err
	}

	scanned := uint64(len(names))
	t0 = tr.Now()
	err = s.forEachCtx(ctx, len(names), func(i int) {
		if out[i].Err != nil || (skip != nil && skip[i]) {
			return
		}
		out[i].Result, out[i].Err = docs[i].Run(eval)
		if out[i].Err == nil {
			s.recharge(names[i], docs[i])
		}
	})
	tr.Record(obs.StageEval, t0)
	if err != nil {
		return nil, err
	}
	if skip != nil {
		for _, sk := range skip {
			if sk {
				scanned--
			}
		}
	}
	s.m.queries.Add(scanned)
	if tr != nil {
		tr.Considered = len(names)
		for i := range out {
			switch {
			case out[i].Pruned:
				tr.Pruned++
			case out[i].Direct:
				tr.Direct++
			case out[i].Err != nil:
				tr.Failed++
			default:
				tr.Scanned++
			}
		}
	}
	return out, nil
}

// renderFanout renders one fan-out's results in catalog order. The
// address budget is shared — documents early in catalog order consume
// it first — unless req.PerDoc gives each document all of req.Max.
func (s *Store) renderFanout(req Request, results []core.BatchResult) *FanoutResponse {
	resp := &FanoutResponse{Query: req.Query, Docs: make([]QueryResponse, 0, len(results)), Workers: s.Workers()}
	remaining := req.Max
	for _, br := range results {
		if br.Err != nil {
			resp.Failed = append(resp.Failed, FanoutError{Doc: br.Name, Error: br.Err.Error()})
			continue
		}
		qr := toResponse(br.Name, req.Query, br.Result, remaining)
		qr.Pruned = br.Pruned
		if br.Pruned {
			resp.Pruned++
		}
		qr.Direct = br.Direct
		if br.Direct {
			resp.Direct++
		}
		if !req.PerDoc {
			remaining -= len(qr.Paths)
		}
		resp.Docs = append(resp.Docs, qr)
		resp.TotalMatches += br.Result.SelectedTree
	}
	return resp
}

func toResponse(name, q string, res *core.Result, max int) QueryResponse {
	paths := res.Paths(max)
	if paths == nil {
		paths = []string{}
	}
	return QueryResponse{
		Doc:         name,
		Query:       q,
		Matches:     res.SelectedTree,
		Paths:       paths,
		SelectedDAG: res.SelectedDAG,
		VertsBefore: res.VertsBefore,
		EdgesBefore: res.EdgesBefore,
		VertsAfter:  res.VertsAfter,
		EdgesAfter:  res.EdgesAfter,
		PrepNanos:   int64(res.ParseTime),
		EvalNanos:   int64(res.EvalTime),
	}
}

// newTrace starts a per-query trace, or returns nil when nothing will
// consume it: tracing costs one allocation and a time.Now() pair per
// stage, and with metrics disabled, no slow log and no explicit request
// (force — the ?trace=1 parameter) the nil trace turns every Record
// into a pointer test.
func (s *Store) newTrace(query, doc string, force bool) *obs.Trace {
	if !force && s.slow == nil && s.reg.Disabled() {
		return nil
	}
	return obs.NewTrace(query, doc)
}

// closeTrace finalizes tr: stamps the total wall time, feeds the query
// and per-stage latency histograms, and offers the trace to the
// slow-query log. Nil-safe, so untraced paths need no guard.
func (s *Store) closeTrace(tr *obs.Trace, err error) {
	if tr == nil {
		return
	}
	tr.Finish()
	s.m.queryHist.Observe(uint64(tr.Total))
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if d := tr.Spans[st]; d > 0 {
			s.m.stage[st].Observe(uint64(d))
		}
	}
	s.slow.Observe(tr, err)
}

// traceInfo renders a trace closeTrace has finalized.
func traceInfo(tr *obs.Trace) *TraceInfo {
	if tr == nil {
		return nil
	}
	stages := make(map[string]int64, obs.NumStages)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if d := tr.Spans[st]; d > 0 {
			stages[st.String()] = int64(d)
		}
	}
	return &TraceInfo{
		TotalNanos:   int64(tr.Total),
		Stages:       stages,
		Considered:   tr.Considered,
		Pruned:       tr.Pruned,
		Direct:       tr.Direct,
		Scanned:      tr.Scanned,
		Failed:       tr.Failed,
		BytesDecoded: tr.BytesDecoded(),
	}
}

// Program returns the compiled form of query, caching compilations in an
// LRU keyed by the query text. Programs are schema-independent (relations
// are resolved by name at evaluation time), so one cached program serves
// every document in the store.
func (s *Store) Program(query string) (*xpath.Program, error) {
	s.mu.Lock()
	if el, ok := s.progs[query]; ok {
		s.progLRU.MoveToFront(el)
		s.m.progHits.Inc()
		prog := el.Value.(*progEntry).prog
		s.mu.Unlock()
		return prog, nil
	}
	s.m.progMisses.Inc()
	s.mu.Unlock()

	prog, err := xpath.CompileQuery(query)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if _, ok := s.progs[query]; !ok {
		s.progs[query] = s.progLRU.PushFront(&progEntry{query: query, prog: prog})
		for s.progLRU.Len() > s.progCap {
			back := s.progLRU.Back()
			pe := back.Value.(*progEntry)
			s.progLRU.Remove(back)
			delete(s.progs, pe.query)
		}
	}
	s.mu.Unlock()
	return prog, nil
}

type progEntry struct {
	query string
	prog  *xpath.Program
}

// planEntry is one cached planner outcome: the (possibly reordered)
// plan and the chain labels resolved against the dictionary version the
// cache key pins.
type planEntry struct {
	key   string
	pl    *plan.Plan
	chain []label.ID // resolved ChainShape labels; nil when not chain-shaped
}

// planFor plans one compiled query against the synopsis statistics,
// caching the outcome. The cache key binds the plan to the dictionary
// version and index generation its statistics were read at, so catalog
// changes (AddArchive/RemoveArchive, new labels) invalidate by key
// mismatch — stale entries just age out of the LRU. With the planner
// disabled the original program evaluates as-is.
func (s *Store) planFor(query string, prog *xpath.Program) (*plan.Plan, []label.ID) {
	if s.noPlan || s.syn == nil {
		return &plan.Plan{Prog: prog}, nil
	}
	key := plan.CacheKey(query, uint64(s.syn.Dict().Len()), s.syn.Generation())
	s.mu.Lock()
	if el, ok := s.plans[key]; ok {
		s.planLRU.MoveToFront(el)
		pe := el.Value.(*planEntry)
		s.mu.Unlock()
		return pe.pl, pe.chain
	}
	s.mu.Unlock()

	pl := plan.Build(prog, s.syn)
	var chain []label.ID
	if pl.Chain != nil {
		chain = s.syn.Dict().ResolveChain(pl.Chain.Labels)
	}
	if pl.Reordered {
		s.m.planReordered.Inc()
	}

	s.mu.Lock()
	if _, ok := s.plans[key]; !ok {
		s.plans[key] = s.planLRU.PushFront(&planEntry{key: key, pl: pl, chain: chain})
		for s.planLRU.Len() > s.progCap {
			back := s.planLRU.Back()
			pe := back.Value.(*planEntry)
			s.planLRU.Remove(back)
			delete(s.plans, pe.key)
		}
	}
	s.mu.Unlock()
	return pl, chain
}

// directSet marks every document an exists/count-shaped plan can answer
// from its synopsis statistics alone, filling its result slot with a
// Direct result — no load, no decode, no evaluation. Documents already
// pruned stay pruned (an exact-zero chain count and a signature proof
// agree). The returned skip set is the union of pruned and direct
// documents; nil means nothing was skippable either way. Count-shaped
// direct results carry a fallback that evaluates the planned program for
// real if a consumer asks for paths or an instance — counted as a
// planner fallback, and charged like any other query.
func (s *Store) directSet(pl *plan.Plan, chain []label.ID, eval *xpath.Program, names []string, out []core.BatchResult, skip []bool) []bool {
	if s.syn == nil || pl.Chain == nil || chain == nil {
		return skip
	}
	live := s.liveView()
	direct := uint64(0)
	for i, name := range names {
		if skip != nil && skip[i] {
			continue
		}
		count, exact := s.docSynopsis(live, name).ChainCount(chain)
		if !exact {
			continue
		}
		if skip == nil {
			skip = make([]bool, len(names))
		}
		skip[i] = true
		out[i].Direct = true
		direct++
		switch {
		case pl.Chain.Exists:
			out[i].Result = core.ExistsResult(count > 0)
		case count == 0:
			out[i].Result = core.ExistsResult(false)
		default:
			nm := name
			out[i].Result = core.DirectResult(count, func() (*core.Result, error) {
				s.m.planFallback.Inc()
				d, err := s.Doc(nm)
				if err != nil {
					return nil, err
				}
				res, err := d.Run(eval)
				if err == nil {
					s.recharge(nm, d)
				}
				return res, err
			})
		}
	}
	s.m.planDirect.Add(direct)
	return skip
}

// docSynopsis returns the synopsis describing the currently served
// version of name: the live document's own synopsis when the name is
// live (so a replacement ingested over an archived name is never judged
// by the stale archive summary), else the indexed one. May be nil —
// every consumer (CanMatch, ChainCount) treats nil as "no information".
func (s *Store) docSynopsis(live Live, name string) *synopsis.Synopsis {
	if live != nil {
		if ls, isLive := live.LiveSynopsis(name); isLive {
			return ls
		}
	}
	return s.syn.Get(name)
}

// pruneSet consults the synopsis index for one fan-out: it resolves the
// program's signature once against the shared dictionary and marks every
// document whose synopsis proves emptiness, filling its result slot with
// a Pruned empty result. Returns nil when nothing can prune (index
// disabled, or the signature carries no checkable fact). Live documents
// are judged by their own synopses (via the Live view), archived ones by
// the index; documents with no synopsis anywhere are scanned.
func (s *Store) pruneSet(prog *xpath.Program, names []string, out []core.BatchResult) []bool {
	if s.syn == nil {
		return nil
	}
	rs := s.syn.Resolve(prog.Sig)
	if rs == nil {
		return nil
	}
	live := s.liveView()
	skip := make([]bool, len(names))
	pruned := 0
	for i, name := range names {
		if !s.docSynopsis(live, name).CanMatch(rs) {
			skip[i] = true
			out[i].Pruned = true
			out[i].Result = core.EmptyResult()
			pruned++
		}
	}
	// Considered before pruned, matching the load order in Stats (pruned
	// first), so considered >= pruned under any interleaving.
	s.m.pruneConsidered.Add(uint64(len(names)))
	s.m.prunePruned.Add(uint64(pruned))
	return skip
}

// forEachCtx runs fn(i) for i in [0, n) on the store's worker pool
// with cooperative cancellation: once ctx is done no further indices
// are dispatched and the context's error is returned. Indices never
// dispatched are left untouched in the caller's slices.
func (s *Store) forEachCtx(ctx context.Context, n int, fn func(i int)) error {
	return engine.ForEachCtx(ctx, n, s.workers, fn)
}

// noteDocFailure classifies a per-document serving failure inside a
// query: every one counts as a degraded serve, and decode corruption
// additionally queues the artifact as a scrub suspect so the background
// scrubber verifies and quarantines it instead of the read path
// tripping over it forever. Cancellation errors are the caller's doing,
// not degradation.
func (s *Store) noteDocFailure(name string, err error) {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	s.m.degradedDocs.Inc()
	if !errors.Is(err, codec.ErrCorrupt) {
		return
	}
	s.mu.Lock()
	e := s.entries[name]
	s.mu.Unlock()
	if e == nil {
		return
	}
	su := Suspect{Name: name, Path: e.path, Reason: err.Error()}
	if e.b != nil {
		su.Path, su.Bundled = e.b.Path(), true
	}
	s.addSuspect(su)
}
