package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanups runs registered teardown functions exactly once, on every
// exit path: normal return, fatal error, SIGINT/SIGTERM.
type cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func (c *cleanups) add(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

// run holds the lock until the last function has returned, so that a
// second caller (the main goroutine failing because the signal handler
// just killed its server) cannot exit the process mid-teardown.
func (c *cleanups) run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.fns) - 1; i >= 0; i-- {
		c.fns[i]()
	}
	c.fns = nil
}

var atExit cleanups

// trapSignals tears everything down on SIGINT/SIGTERM and exits.
func trapSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		atExit.run()
		os.Exit(130)
	}()
}

// lockedBuffer collects a child's output while the child still runs.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// server is one running xcserve process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	stderr *lockedBuffer
	waited chan struct{}
}

// freePort asks the kernel for an unused TCP port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// serverArgs are the flags every benchmark server runs with: nothing
// triggered by wall-clock time (compaction and scrub timers off, slow
// log off, no cluster prober), so background work lands on the same
// ops every run.
func serverArgs(w *workload, dir string, port int) []string {
	args := []string{
		"-store", dir,
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-scrub-interval", "0",
		"-slow-query", "0",
	}
	if w.cacheBytes > 0 {
		args = append(args, "-cache-bytes", strconv.FormatInt(w.cacheBytes, 10))
	}
	if w.ingest {
		args = append(args, "-ingest", "-wal-sync=true", "-compact-interval", "0",
			"-memtable-bytes", strconv.Itoa(ingestMemtableBytes))
	}
	return args
}

// startServer execs xcserve and polls /readyz every millisecond until
// it answers 200.
func startServer(bin string, args []string, port int, client *http.Client) (*server, error) {
	s := &server{
		cmd:    exec.Command(bin, args...),
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		stderr: &lockedBuffer{},
		waited: make(chan struct{}),
	}
	s.cmd.Stderr = s.stderr
	s.cmd.Stdout = s.stderr
	dieWithParent(s.cmd)
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	atExit.add(s.kill)
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed server carries nothing
		close(s.waited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.waited:
			return nil, fmt.Errorf("xcserve exited during start-up:\n%s", s.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("xcserve not ready after 60s:\n%s", s.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the server and waits until it has ended. Safe to call
// more than once.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited is fine
	<-s.waited
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// getJSON fetches path and decodes the body into v.
func (s *server) getJSON(client *http.Client, path string, v any) error {
	resp, err := client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// post sends body to path and returns the status code.
func (s *server) post(client *http.Client, path string, body []byte) (int, error) {
	resp, err := client.Post(s.base+path, "application/xml", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// serverStats is the part of /stats the harness reads.
type serverStats struct {
	DocHits             uint64 `json:"doc_hits"`
	DocMisses           uint64 `json:"doc_misses"`
	Evictions           uint64 `json:"evictions"`
	PruneConsidered     uint64 `json:"prune_considered"`
	PrunePruned         uint64 `json:"prune_pruned"`
	PlanSynopsisDirect  uint64 `json:"plan_synopsis_direct"`
	SynopsisWriteErrors uint64 `json:"synopsis_write_errors"`
	BundledDocs         int    `json:"bundled_docs"`
	DecodeBytes         uint64 `json:"decode_bytes"`
	BundleReads         uint64 `json:"bundle_reads"`
	DegradedDocs        uint64 `json:"degraded_docs"`
	Ingest              *struct {
		Compactions        uint64 `json:"compactions"`
		CompactionFailures uint64 `json:"compaction_failures"`
		LastError          string `json:"last_error"`
	} `json:"ingest"`
}

// compactions is the ingest compaction count, 0 on a read-only server.
func (st *serverStats) compactions() uint64 {
	if st.Ingest == nil {
		return 0
	}
	return st.Ingest.Compactions
}

// health fetches /stats and /metrics and fails if the server reports
// anything that would make its numbers incomparable: documents served
// degraded, shed or timed-out queries, sidecar write errors, failed
// compactions.
func (s *server) health(client *http.Client) (serverStats, map[string]float64, error) {
	var st serverStats
	if err := s.getJSON(client, "/stats", &st); err != nil {
		return st, nil, err
	}
	m, err := s.metrics(client)
	if err != nil {
		return st, nil, err
	}
	switch {
	case st.DegradedDocs != 0:
		err = fmt.Errorf("server reports %d degraded documents", st.DegradedDocs)
	case st.SynopsisWriteErrors != 0:
		err = fmt.Errorf("server reports %d synopsis write errors", st.SynopsisWriteErrors)
	case m["xc_queries_shed_total"] != 0:
		err = fmt.Errorf("server shed %v queries", m["xc_queries_shed_total"])
	case m["xc_query_timeouts_total"] != 0:
		err = fmt.Errorf("server timed out %v queries", m["xc_query_timeouts_total"])
	case st.Ingest != nil && (st.Ingest.CompactionFailures != 0 || st.Ingest.LastError != ""):
		err = fmt.Errorf("server reports compaction failures: %d, last error %q", st.Ingest.CompactionFailures, st.Ingest.LastError)
	}
	return st, m, err
}

// metrics scrapes /metrics into name{labels} -> value.
func (s *server) metrics(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body)), nil
}

// parseMetrics reads Prometheus text exposition: one "name value" or
// "name{labels} value" sample per non-comment line.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir: archives,
// sidecars, bundles, bundle indexes and WAL segments.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
