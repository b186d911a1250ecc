package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are measured sizes that are not metrics: sample counts,
	// catalog bytes, compactions seen.
	Notes map[string]float64 `json:"notes,omitempty"`
}

// config is how long and how often a run measures.
type config struct {
	seed    uint64
	windows int
	window  time.Duration
	warm    time.Duration
	setups  int
	trace   bool

	xcserve, xcarchive string
	outDir             string
}

// env is one workload's generated input plus where its files live.
type env struct {
	cfg    *config
	w      *workload
	cat    *catalog
	plan   *traffic
	client *http.Client
	tmp    string // removed at exit
	xmlDir string // the corpus as *.xml files (archived workloads)
	begun  time.Time
}

// progress reports where a run is, with the time since it began, on
// standard error.
func (e *env) progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xcload: %s +%.1fs: %s\n", e.w.name, time.Since(e.begun).Seconds(), fmt.Sprintf(format, args...))
}

func newEnv(cfg *config, w *workload) (*env, error) {
	begun := time.Now()
	cat, err := buildCatalog(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "xcload-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	atExit.add(func() { os.RemoveAll(tmp) })
	e := &env{cfg: cfg, w: w, cat: cat, plan: buildPlan(w, cat, cfg.seed), client: newHTTPClient(), tmp: tmp, begun: begun}
	if !w.ingest {
		e.xmlDir = filepath.Join(tmp, "xml")
		if err := os.Mkdir(e.xmlDir, 0o755); err != nil {
			return nil, err
		}
		for i := range cat.docs {
			if err := os.WriteFile(filepath.Join(e.xmlDir, cat.docs[i].name+".xml"), cat.docs[i].xml[0], 0o644); err != nil {
				return nil, err
			}
		}
	}
	e.progress("generated %d documents (%d XML bytes) and their oracle", len(cat.docs), cat.xmlBytes(nil))
	return e, nil
}

// instance is one set-up store directory with its running server.
type instance struct {
	dir string
	srv *server
	drv *driver
	sem [][]byte // semantic fields of the set-up verify pass
}

// runTool runs an xcarchive step, returning its output on failure.
func runTool(bin string, args ...string) error {
	var out bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %v: %w\n%s", filepath.Base(bin), args, err, out.Bytes())
	}
	return nil
}

// medianArchiveBytes is the median .xca size under dir.
func medianArchiveBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.xca"))
	if err != nil {
		return 0, err
	}
	sizes := make([]float64, 0, len(paths))
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		sizes = append(sizes, float64(st.Size()))
	}
	return int64(median(sizes)), nil
}

// start launches a server on dir with the workload's flags.
func (e *env) start(dir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	return startServer(e.cfg.xcserve, serverArgs(e.w, dir, port), port, e.client)
}

// setUp is one complete cold set-up into a fresh directory: pack the
// corpus (or start empty and POST it), start the server, wait for
// /readyz, and answer every distinct op once, verified. It returns the
// running instance and how long all of that took.
func (e *env) setUp(n int) (*instance, time.Duration, error) {
	t0 := time.Now()
	in := &instance{dir: filepath.Join(e.tmp, "store"+strconv.Itoa(n))}
	if err := os.Mkdir(in.dir, 0o755); err != nil {
		return nil, 0, err
	}
	if !e.w.ingest {
		if err := runTool(e.cfg.xcarchive, "pack-dir", e.xmlDir, in.dir); err != nil {
			return nil, 0, err
		}
		if e.w.bundle {
			med, err := medianArchiveBytes(in.dir)
			if err != nil {
				return nil, 0, err
			}
			if err := runTool(e.cfg.xcarchive, "-bundle-max-doc", strconv.FormatInt(med, 10), "pack-bundle", in.dir); err != nil {
				return nil, 0, err
			}
		}
	}
	srv, err := e.start(in.dir)
	if err != nil {
		return nil, 0, err
	}
	in.srv = srv
	in.drv = &driver{client: e.client, base: srv.base, cat: e.cat, plan: e.plan}
	if e.w.ingest {
		for i := range e.cat.docs {
			d := &e.cat.docs[i]
			status, err := srv.post(e.client, "/docs/"+d.name, d.xml[0])
			if err != nil || status != http.StatusCreated {
				return nil, 0, fmt.Errorf("loading %s: status %d: %v\n%s", d.name, status, err, srv.stderr.String())
			}
		}
		if err := e.flush(srv); err != nil {
			return nil, 0, err
		}
	}
	if in.sem, err = in.drv.verifyPass(nil); err != nil {
		return nil, 0, fmt.Errorf("%w\n%s", err, srv.stderr.String())
	}
	return in, time.Since(t0), nil
}

func (e *env) flush(srv *server) error {
	status, err := srv.post(e.client, "/flush", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("flush: status %d: %v\n%s", status, err, srv.stderr.String())
	}
	return nil
}

// coldSetUps performs cfg.setups complete set-ups, keeps the last one
// running and returns it with the median set-up time.
func (e *env) coldSetUps() (*instance, float64, error) {
	var times []float64
	for n := 0; ; n++ {
		in, took, err := e.setUp(n)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, took.Seconds())
		e.progress("cold set-up %d of %d took %.3fs", n+1, e.cfg.setups, took.Seconds())
		if n == e.cfg.setups-1 {
			return in, median(times), nil
		}
		in.srv.kill()
		if err := os.RemoveAll(in.dir); err != nil {
			return nil, 0, err
		}
	}
}

// calibrate times a fixed CPU loop (FNV-1a over 32 MiB). It reads the
// same on an idle box whatever the commit, so a high value beside a
// slow run points at the box, not at the change.
func calibrate() float64 {
	block := make([]byte, 1<<20)
	for i := range block {
		block[i] = byte(i * 31)
	}
	t0 := time.Now()
	h := fnv.New64a()
	for i := 0; i < 32; i++ {
		h.Write(block)
	}
	calibSink = h.Sum64()
	return float64(time.Since(t0)) / 1e6
}

var calibSink uint64

// endToEnd is the untraced run: three cold set-ups, a discarded warm
// loop, the measured windows, then the correctness passes.
func (e *env) endToEnd() (*result, error) {
	cfg := e.cfg
	calib0 := calibrate()
	in, setupS, err := e.coldSetUps()
	if err != nil {
		return nil, err
	}
	srv, drv := in.srv, in.drv
	fail := func(err error) (*result, error) {
		return nil, fmt.Errorf("%w\nserver stderr:\n%s", err, srv.stderr.String())
	}
	if _, err := drv.run(cfg.warm, false, srv.pid()); err != nil {
		return fail(err)
	}
	st0, _, err := srv.health(e.client)
	if err != nil {
		return fail(err)
	}
	ph, err := drv.run(time.Duration(cfg.windows)*cfg.window, false, srv.pid())
	if err != nil {
		return fail(err)
	}
	peak, err := procStatusMB(srv.pid(), "VmHWM")
	if err != nil {
		return fail(err)
	}
	st1, _, err := srv.health(e.client)
	if err != nil {
		return fail(err)
	}
	e.progress("measured %d windows of %v", cfg.windows, cfg.window)
	ws := reduceWindows(ph.samples, cfg.windows, int64(cfg.window))
	if ws.ops == 0 {
		return fail(fmt.Errorf("no operation completed inside the measured windows"))
	}

	// Correctness after timing: every distinct op again, against the
	// oracle for what the server must now hold.
	var versions []int
	if e.w.ingest {
		if versions, err = drv.settleVersions(); err != nil {
			return fail(err)
		}
	}
	sem, err := drv.verifyPass(versions)
	if err != nil {
		return fail(err)
	}
	if e.w.ingest {
		if err := e.flush(srv); err != nil {
			return fail(err)
		}
	} else {
		for k := range sem {
			if !bytes.Equal(sem[k], in.sem[k]) {
				return fail(fmt.Errorf("%s answered differently after timing:\n before %s\n after  %s",
					e.plan.ops[e.plan.distinct[k]].path, in.sem[k], sem[k]))
			}
		}
	}
	stored, err := dirBytes(in.dir)
	if err != nil {
		return fail(err)
	}
	xmlBytes := e.cat.xmlBytes(versions)
	if e.w.ingest {
		// Durability: kill -9, restart on the same directory, and every
		// acknowledged write must still read back as acknowledged.
		srv.kill()
		if srv, err = e.start(in.dir); err != nil {
			return nil, err
		}
		drv.base = srv.base
		if _, err := drv.verifyPass(versions); err != nil {
			return fail(fmt.Errorf("after kill -9 and restart: %w", err))
		}
	}
	srv.kill()
	e.progress("answers verified after timing")
	calib1 := calibrate()

	if err := drv.failure(); err != nil {
		return nil, err
	}
	return &result{
		Workload: e.w.name, Seed: cfg.seed, Correct: true,
		Attempted: drv.attempted, Failed: drv.failed,
		Metrics: map[string]metric{
			"setup_s":                   {setupS, "s"},
			"ops_per_s":                 {ws.opsPerSec, "ops/s"},
			"read_p50_ms":               {ws.readP50ms, "ms"},
			"server_cpu_ms_per_op":      {ph.cpuMs / float64(ws.ops), "ms"},
			"server_rss_mb":             {ph.rssMB, "MB"},
			"stored_bytes_per_xml_byte": {float64(stored) / float64(xmlBytes), "ratio"},
		},
		Notes: map[string]float64{
			"windows":              float64(ws.windows),
			"window_s":             cfg.window.Seconds(),
			"measured_ops":         float64(ws.ops),
			"read_samples":         float64(ws.readCount),
			"write_samples":        float64(ws.writeCount),
			"read_p99_ms":          ws.readP99ms,
			"rss_peak_mb":          peak,
			"write_p50_ms":         ws.writeP50ms,
			"window_cv":            ws.windowCV,
			"xml_bytes":            float64(xmlBytes),
			"stored_bytes":         float64(stored),
			"bundled_docs":         float64(st1.BundledDocs),
			"cache_hit_ratio":      ratio(st1.DocHits-st0.DocHits, st1.DocHits-st0.DocHits+st1.DocMisses-st0.DocMisses),
			"calib_before_ms":      calib0,
			"calib_after_ms":       calib1,
			"distinct_read_ops":    float64(len(e.plan.distinct)),
			"sequence_wraps":       float64(drv.next.Load()) / float64(len(e.plan.seq)),
			"compactions_measured": float64(st1.compactions() - st0.compactions()),
		},
	}, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
