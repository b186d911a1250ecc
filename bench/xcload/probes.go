package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bundle"
	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/ingest"
	"repro/internal/plan"
	"repro/internal/saxml"
	"repro/internal/skeleton"
	"repro/internal/store"
	"repro/internal/synopsis"
	"repro/internal/xpath"
)

// Outside-in layer probes: the harness calls each layer's public entry
// point itself, on the workload's own documents and ops, and records a
// span around every call. Nothing inside the program is instrumented,
// so these numbers can be compared across any two commits that keep
// the entry points.

// probeOps caps how many ops of the sequence the per-op store probes
// replay, probeEvals how many bare evaluations the engine probe times
// (each may decode its document first).
const (
	probeOps   = 1200
	probeEvals = 300
	// probeWarmOps distinct ops run untimed before the store probes,
	// which then stop after probeBudget whatever they have replayed.
	probeWarmOps = 64
	probeBudget  = 3 * time.Second
)

// nopHandler discards SAX events.
type nopHandler struct{}

func (nopHandler) StartElement(string, []saxml.Attr) error { return nil }
func (nopHandler) EndElement(string) error                 { return nil }
func (nopHandler) Text([]byte) error                       { return nil }

// layers accumulates the per-layer metrics of a traced run.
type layers map[string]metric

func (l layers) set(name string, v float64, unit string) { l[name] = metric{v, unit} }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func perMs(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// probeDocuments runs the write-side and read-side document probes and
// leaves every document packed (archive + sidecar) under dir, returning
// the encoded archives by catalog position.
func (e *env) probeDocuments(rec *recorder, l layers, dir string) ([][]byte, error) {
	var parse, split, encode, synBuild, decode, decodeSkel, events, build, freeze time.Duration
	var xmlBytes, archiveBytes, sidecarBytes int64
	var verts, treeNodes float64
	dict := synopsis.NewDict()
	archives := make([][]byte, len(e.cat.docs))
	for di := range e.cat.docs {
		d := &e.cat.docs[di]
		xml := d.xml[0]
		xmlBytes += int64(len(xml))
		op := rec.op("doc")
		var err error
		var a *container.Archive
		var enc, side bytes.Buffer
		var syn *synopsis.Synopsis

		parse += rec.time("saxml.Parse", op, func() { err = saxml.Parse(xml, nopHandler{}) })
		if err != nil {
			return nil, err
		}
		split += rec.time("container.Split", op, func() { a, err = container.Split(xml) })
		if err != nil {
			return nil, err
		}
		encode += rec.time("codec.EncodeArchive", op, func() { err = codec.EncodeArchive(&enc, a) })
		if err != nil {
			return nil, err
		}
		synBuild += rec.time("synopsis.Build", op, func() { syn = synopsis.Build(a.Skeleton, dict, synopsis.Options{}) })
		rec.time("synopsis.EncodeSidecar", op, func() { err = synopsis.EncodeSidecar(&side, syn, dict, int64(enc.Len())) })
		if err != nil {
			return nil, err
		}
		archives[di] = enc.Bytes()
		archiveBytes += int64(enc.Len())
		sidecarBytes += int64(side.Len())
		path := filepath.Join(dir, d.name+store.Ext)
		if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
			return nil, err
		}
		if err := os.WriteFile(synopsis.SidecarPath(path), side.Bytes(), 0o644); err != nil {
			return nil, err
		}

		var back *container.Archive
		var inst *dag.Instance
		var st skeleton.Stats
		decode += rec.time("codec.DecodeArchiveBytes", op, func() { back, err = codec.DecodeArchiveBytes(archives[di]) })
		if err != nil {
			return nil, err
		}
		decodeSkel += rec.time("codec.DecodeSkeletonBytes", op, func() { _, err = codec.DecodeSkeletonBytes(archives[di]) })
		if err != nil {
			return nil, err
		}
		events += rec.time("container.Events", op, func() { err = back.Events(nopHandler{}) })
		if err != nil {
			return nil, err
		}
		build += rec.time("skeleton.BuildCompressedFrom", op, func() {
			inst, st, err = skeleton.BuildCompressedFrom(back.Events, skeleton.Options{Mode: skeleton.TagsAll})
		})
		if err != nil {
			return nil, err
		}
		freeze += rec.time("dag.Freeze", op, func() { dag.Freeze(inst) })
		rec.time("store.NewDoc", op, func() { _, err = store.NewDoc(d.name, back) })
		if err != nil {
			return nil, err
		}
		rec.end(op)
		verts += float64(inst.NumVertices())
		treeNodes += float64(st.TreeVertices)
	}
	n := len(e.cat.docs)
	l.set("saxml.parse_mb_per_s", mbPerS(xmlBytes, parse), "MB/s")
	l.set("container.split_mb_per_s", mbPerS(xmlBytes, split), "MB/s")
	l.set("codec.encode_mb_per_s", mbPerS(xmlBytes, encode), "MB/s")
	l.set("codec.decode_ms_per_doc", perMs(decode, n), "ms")
	l.set("codec.decode_mb_per_s", mbPerS(archiveBytes, decode), "MB/s")
	l.set("codec.decode_skeleton_ms_per_doc", perMs(decodeSkel, n), "ms")
	l.set("container.events_ms_per_doc", perMs(events, n), "ms")
	l.set("skeleton.build_ms_per_doc", perMs(build, n), "ms")
	l.set("dag.freeze_ms_per_doc", perMs(freeze, n), "ms")
	l.set("dag.vertices_per_tree_node", verts/treeNodes, "ratio")
	l.set("synopsis.build_ms_per_doc", perMs(synBuild, n), "ms")
	l.set("synopsis.sidecar_bytes_per_archive_byte", float64(sidecarBytes)/float64(archiveBytes), "ratio")
	return archives, nil
}

// probeBundle packs every archive into one bundle file and times
// reading each needle back.
func (e *env) probeBundle(rec *recorder, l layers, dir string, archives [][]byte) error {
	path := filepath.Join(dir, bundle.FileName(1))
	w, err := bundle.Create(path)
	if err != nil {
		return err
	}
	for di, a := range archives {
		if err := w.Add(e.cat.docs[di].name, a, nil); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Seal(); err != nil {
		return err
	}
	b, err := bundle.Open(path)
	if err != nil {
		return err
	}
	defer b.Close()
	var read time.Duration
	for di := range archives {
		op := rec.op("needle")
		read += rec.time("bundle.Archive", op, func() { _, err = b.Archive(e.cat.docs[di].name) })
		rec.end(op)
		if err != nil {
			return err
		}
	}
	l.set("bundle.read_ms_per_needle", perMs(read, len(archives)), "ms")
	return nil
}

// probeQueries times compilation, planning and synopsis checks for
// every distinct query text of the workload.
func (e *env) probeQueries(rec *recorder, l layers, st *store.Store) error {
	var compile, build, canMatch time.Duration
	queries, checks := 0, 0
	idx := st.Synopses()
	for _, c := range e.cat.corpora {
		for _, text := range c.Queries {
			op := rec.op("query")
			var prog *xpath.Program
			var err error
			compile += rec.time("xpath.CompileQuery", op, func() { prog, err = xpath.CompileQuery(text) })
			if err != nil {
				return err
			}
			build += rec.time("plan.Build", op, func() { plan.Build(prog, idx) })
			queries++
			if rs := idx.Resolve(prog.Sig); rs != nil {
				canMatch += rec.time("synopsis.CanMatch", op, func() {
					for di := range e.cat.docs {
						idx.Get(e.cat.docs[di].name).CanMatch(rs)
					}
				})
				checks += len(e.cat.docs)
			}
			rec.end(op)
		}
	}
	l.set("xpath.compile_us_per_query", perMs(compile, queries)*1e3, "us")
	l.set("plan.build_us_per_query", perMs(build, queries)*1e3, "us")
	if checks > 0 {
		l.set("synopsis.canmatch_ns_per_doc", float64(canMatch)/float64(checks), "ns")
	} else {
		l.set("synopsis.canmatch_ns_per_doc", 0, "ns")
	}
	return nil
}

// readOps returns up to probeOps read ops of the sequence, in order.
func (e *env) readOps() []*op {
	var out []*op
	for _, oi := range e.plan.seq {
		if o := &e.plan.ops[oi]; o.kind != opWrite {
			out = append(out, o)
			if len(out) == probeOps {
				break
			}
		}
	}
	return out
}

func (e *env) queryText(o *op) string { return e.cat.corpora[o.corpus].Queries[o.query] }

// probeStore replays the workload's read ops against an in-process
// store three ways: the store call plus result materialization, the
// full HTTP handler without a socket, and the JSON encoding of the
// response alone. Handler wall minus store call is the HTTP and JSON
// share.
func (e *env) probeStore(rec *recorder, l layers, st *store.Store) error {
	ctx := context.Background()
	ops := e.readOps()
	// Untimed first: up to probeWarmOps distinct ops of the replay, so
	// program, plan and (where they fit) document caches are as warm as
	// the served ones.
	warmed := make(map[*op]bool)
	for _, o := range ops {
		if warmed[o] || len(warmed) == probeWarmOps {
			continue
		}
		warmed[o] = true
		if o.kind == opPoint {
			if _, err := st.QueryCtx(ctx, e.cat.docs[o.doc].name, e.queryText(o)); err != nil {
				return err
			}
		} else if _, err := st.QueryAllCtx(ctx, e.queryText(o)); err != nil {
			return err
		}
	}
	var point, fan, material, handlerT, encodeT time.Duration
	points, fans := 0, 0
	viaStore := func(o *op, root int) error {
		var err error
		if o.kind == opPoint {
			var res *core.Result
			point += rec.time("store.QueryCtx", root, func() { res, err = st.QueryCtx(ctx, e.cat.docs[o.doc].name, e.queryText(o)) })
			if err != nil {
				return err
			}
			material += rec.time("core.Result.Paths", root, func() { res.Paths(maxPaths) })
			points++
			return nil
		}
		var out []core.BatchResult
		fan += rec.time("store.QueryAllCtx", root, func() { out, err = st.QueryAllCtx(ctx, e.queryText(o)) })
		if err != nil {
			return err
		}
		material += rec.time("core.Result.Paths", root, func() {
			remaining := maxPaths
			for i := range out {
				if out[i].Err == nil {
					remaining -= len(out[i].Result.Paths(remaining))
				}
			}
		})
		fans++
		return nil
	}
	h := store.NewHandler(st, store.ServerOptions{})
	viaHandler := func(o *op, root int) error {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, o.path, nil)
		handlerT += rec.time("store.Handler", root, func() { h.ServeHTTP(w, req) })
		if w.Code != http.StatusOK {
			return fmt.Errorf("in-process handler: %s: %d", o.path, w.Code)
		}
		var resp any = &store.QueryResponse{}
		if o.kind == opFanout {
			resp = &store.FanoutResponse{}
		}
		err := json.Unmarshal(w.Body.Bytes(), resp)
		if err != nil {
			return err
		}
		encodeT += rec.time("json.Encode", root, func() {
			enc := json.NewEncoder(io.Discard)
			enc.SetEscapeHTML(false)
			err = enc.Encode(resp)
		})
		return err
	}
	// Each op goes both ways. The second call finds the document the
	// first one loaded and the processor caches it warmed, so the
	// difference of the two sums is only fair if each way is second
	// equally often: which way goes first alternates from one distinct
	// op to the next, and from one visit of an op to its next.
	ways := [2]func(*op, int) error{viaStore, viaHandler}
	seen := make(map[*op]int)
	// Collect now, so that the harness's own collector, with the whole
	// corpus on its heap to mark, is unlikely to run beside the loop.
	runtime.GC()
	began := time.Now()
	for i, o := range ops {
		if time.Since(began) > probeBudget {
			ops = ops[:i]
			break
		}
		if _, ok := seen[o]; !ok {
			seen[o] = len(seen)
		}
		root := rec.op("op")
		for k := range ways {
			if err := ways[(seen[o]+k)%2](o, root); err != nil {
				return err
			}
		}
		seen[o]++
		rec.end(root)
	}
	l.set("store.query_ms_per_op", perMs(point, points), "ms")
	l.set("store.queryall_ms_per_op", perMs(fan, fans), "ms")
	l.set("core.materialize_ms_per_op", perMs(material, len(ops)), "ms")
	l.set("store.http_overhead_ms_per_op", perMs(handlerT-point-fan-material, len(ops)), "ms")
	l.set("store.json_encode_ms_per_op", perMs(encodeT, len(ops)), "ms")
	return nil
}

// probeEngine times bare evaluation (Prepared.Run on a cached
// document, no store around it), counts its allocations, and measures
// what the first string-condition query on a fresh document pays for
// distillation and merging.
func (e *env) probeEngine(rec *recorder, l layers, st *store.Store, archives [][]byte) error {
	type evalOp struct {
		doc  int
		prog *xpath.Program
	}
	progs := map[string]*xpath.Program{}
	compiled := func(text string) (*xpath.Program, error) {
		if p, ok := progs[text]; ok {
			return p, nil
		}
		p, err := xpath.CompileQuery(text)
		progs[text] = p
		return p, err
	}
	var evals []evalOp
	for _, o := range e.readOps() {
		if o.kind != opPoint || len(evals) == probeEvals {
			continue
		}
		p, err := compiled(e.queryText(o))
		if err != nil {
			return err
		}
		evals = append(evals, evalOp{o.doc, p})
	}
	if len(evals) == 0 {
		// A fan-out-only workload: evaluate Q3-Q5 of an evenly spaced
		// sample of documents on themselves, what the fan-out runs on
		// the documents it does not prune.
		stride := (3*len(e.cat.docs) + probeEvals - 1) / probeEvals
		for di := 0; di < len(e.cat.docs); di += stride {
			for _, q := range []int{2, 3, 4} {
				p, err := compiled(e.cat.corpora[e.cat.docs[di].corpus].Queries[q])
				if err != nil {
					return err
				}
				evals = append(evals, evalOp{di, p})
			}
		}
	}
	preps := make(map[int]*core.Prepared)
	for _, ev := range evals {
		if preps[ev.doc] == nil {
			d, err := st.Doc(e.cat.docs[ev.doc].name)
			if err != nil {
				return err
			}
			preps[ev.doc] = d.Prepared()
			if _, err := d.Prepared().Run(ev.prog); err != nil {
				return err
			}
		}
	}
	var eval time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, ev := range evals {
		root := rec.op("eval")
		var err error
		eval += rec.time("core.Prepared.Run", root, func() { _, err = preps[ev.doc].Run(ev.prog) })
		rec.end(root)
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	l.set("engine.eval_ms_per_op", perMs(eval, len(evals)), "ms")
	l.set("engine.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(evals)), "count")

	// Distil + merge: first run of a string-condition query on a fresh
	// document minus the same query again, over up to 16 documents.
	var distill []float64
	for di := 0; di < len(e.cat.docs) && len(distill) < 16; di++ {
		d := &e.cat.docs[di]
		p, err := compiled(e.cat.corpora[d.corpus].Queries[2])
		if err != nil {
			return err
		}
		a, err := codec.DecodeArchiveBytes(archives[di])
		if err != nil {
			return err
		}
		fresh, err := store.NewDoc(d.name, a)
		if err != nil {
			return err
		}
		root := rec.op("distill")
		first := rec.time("core.Prepared.Run(first)", root, func() { _, err = fresh.Run(p) })
		if err != nil {
			return err
		}
		again := rec.time("core.Prepared.Run", root, func() { _, err = fresh.Run(p) })
		rec.end(root)
		if err != nil {
			return err
		}
		distill = append(distill, ms(first-again))
	}
	l.set("core.distill_merge_ms", median(distill), "ms")
	return nil
}

// probeIngest drives the write path in-process on a fresh directory:
// Ingester.Add per document (fsync per write), then one Flush, then
// bare WAL appends of the same documents.
func (e *env) probeIngest(rec *recorder, l layers, dir string) error {
	storeDir := filepath.Join(dir, "ingest-store")
	if err := os.Mkdir(storeDir, 0o755); err != nil {
		return err
	}
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	walDir := filepath.Join(storeDir, "wal")
	// A memtable that never seals on its own, so the WAL holds every
	// write when it is sized and Flush compacts all of them at once.
	ing, err := ingest.Open(ingest.Options{WALDir: walDir, Store: st, Sync: true, MemTableBytes: 1 << 40})
	if err != nil {
		return err
	}
	docs := e.cat.docs
	if len(docs) > 64 {
		docs = docs[:64]
	}
	var add time.Duration
	var xmlBytes int64
	for i := range docs {
		root := rec.op("ingest")
		add += rec.time("ingest.Add", root, func() { err = ing.Add(docs[i].name, docs[i].xml[0]) })
		rec.end(root)
		if err != nil {
			ing.Kill()
			return err
		}
		xmlBytes += int64(len(docs[i].xml[0]))
	}
	walBytes := ing.Stats().WALBytes
	root := rec.op("flush")
	flush := rec.time("ingest.Flush", root, func() { err = ing.Flush() })
	rec.end(root)
	if err != nil {
		ing.Kill()
		return err
	}
	if err := ing.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(walDir); err != nil {
		return err
	}
	archived, err := dirBytes(storeDir)
	if err != nil {
		return err
	}
	l.set("ingest.add_ms_per_doc", perMs(add, len(docs)), "ms")
	l.set("ingest.flush_s", flush.Seconds(), "s")
	l.set("ingest.bytes_written_per_xml_byte", float64(walBytes+archived)/float64(xmlBytes), "ratio")

	log, err := ingest.OpenLog(filepath.Join(dir, "wal-probe"), ingest.LogOptions{Sync: true}, func(ingest.Record) error { return nil })
	if err != nil {
		return err
	}
	defer log.Close()
	var appends []float64
	for i := range docs {
		root := rec.op("wal")
		d := rec.time("ingest.Log.Append", root, func() {
			err = log.Append(ingest.Record{Op: ingest.OpAdd, Name: docs[i].name, Data: docs[i].xml[0]})
		})
		rec.end(root)
		if err != nil {
			return err
		}
		appends = append(appends, ms(d))
	}
	l.set("ingest.wal_append_ms_p50", median(appends), "ms")
	return nil
}

// probeLayers runs every in-process probe and returns the recorder
// with all their spans.
func (e *env) probeLayers(l layers) (*recorder, error) {
	rec := newRecorder()
	dir := filepath.Join(e.tmp, "probe-store")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	archives, err := e.probeDocuments(rec, l, dir)
	if err != nil {
		return nil, fmt.Errorf("document probes: %w", err)
	}
	bundleDir := filepath.Join(e.tmp, "probe-bundle")
	if err := os.Mkdir(bundleDir, 0o755); err != nil {
		return nil, err
	}
	if err := e.probeBundle(rec, l, bundleDir, archives); err != nil {
		return nil, fmt.Errorf("bundle probe: %w", err)
	}

	var st *store.Store
	root := rec.op("open")
	open := rec.time("store.Open", root, func() { st, err = store.Open(dir, store.Options{CacheBytes: e.w.cacheBytes}) })
	rec.end(root)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	l.set("store.open_s", open.Seconds(), "s")
	if err := e.probeQueries(rec, l, st); err != nil {
		return nil, fmt.Errorf("query probes: %w", err)
	}
	if err := e.probeStore(rec, l, st); err != nil {
		return nil, fmt.Errorf("store probes: %w", err)
	}
	if err := e.probeEngine(rec, l, st, archives); err != nil {
		return nil, fmt.Errorf("engine probes: %w", err)
	}
	if err := e.probeIngest(rec, l, e.tmp); err != nil {
		return nil, fmt.Errorf("ingest probes: %w", err)
	}
	if err := e.probeCluster(rec, l, archives); err != nil {
		return nil, fmt.Errorf("cluster probes: %w", err)
	}
	return rec, nil
}
