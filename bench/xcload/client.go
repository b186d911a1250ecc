package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// numClients is the closed-loop client count: one per core of the
// 2-core box the benchmark is sized for, each sending its next request
// only when the previous one has completed.
const numClients = 2

// writeRec is one acknowledged write: which version of which document,
// and when it was in flight.
type writeRec struct {
	doc, version int
	start, end   time.Time
}

// driver walks a plan's op sequence against one server. The position
// in the sequence carries over from phase to phase.
type driver struct {
	client *http.Client
	base   string
	cat    *catalog
	plan   *traffic
	next   atomic.Int64

	// Filled in between phases, by the goroutine that runs them.
	writes    []writeRec
	attempted int
	failed    int
	firstErr  error
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: numClients,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
}

// note records the outcome of n attempted operations.
func (d *driver) note(n int, errs ...error) {
	d.attempted += n
	for _, err := range errs {
		if err == nil {
			continue
		}
		d.failed++
		if d.firstErr == nil {
			d.firstErr = err
		}
	}
}

// failure is nil if every operation so far succeeded.
func (d *driver) failure() error {
	if d.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d operations failed; first: %w", d.failed, d.attempted, d.firstErr)
}

// stageTotals accumulates the trace=1 breakdowns of a traced phase.
type stageTotals struct {
	ops      int
	stagesNs map[string]int64
	totalNs  int64
	clientNs int64 // client-side latency of the same ops
}

// phase is the outcome of one timed run of the clients.
type phase struct {
	samples []sample
	cpuMs   float64 // server CPU consumed between phase start and end
	rssMB   float64 // median of the server's VmRSS sampled through the phase
	stages  stageTotals
}

// rssSampleEvery is the resident-set sampling period: 150 samples in a
// 15-second phase, each one read of /proc/<pid>/status.
const rssSampleEvery = 100 * time.Millisecond

// traceTail is the trace object at the end of a traced response.
type traceTail struct {
	TotalNs  int64            `json:"total_ns"`
	StagesNs map[string]int64 `json:"stages_ns"`
}

var traceKey = []byte(`"trace":`)

// parseTraceTail extracts the trailing trace object of a trace=1
// response without decoding the (possibly 400-entry) body before it.
func parseTraceTail(body []byte) (traceTail, error) {
	var tt traceTail
	i := bytes.LastIndex(body, traceKey)
	if i < 0 {
		return tt, fmt.Errorf("no trace object in response")
	}
	dec := json.NewDecoder(bytes.NewReader(body[i+len(traceKey):]))
	err := dec.Decode(&tt)
	return tt, err
}

// run drives numClients closed-loop clients for dur. During timing a
// response is only drained and checked for a 2xx status and a
// non-empty body, so the generator's own CPU stays small; answers are
// verified in the passes before and after. With traced set, reads ask
// for trace=1 and the stage breakdowns are summed. pid is the server
// whose CPU is sampled at both ends of the phase.
func (d *driver) run(dur time.Duration, traced bool, pid int) (*phase, error) {
	cpu0, err := procCPUms(pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(dur)
	type clientOut struct {
		samples []sample
		writes  []writeRec
		stages  stageTotals
		n       int
		errs    []error
	}
	outs := make([]clientOut, numClients)
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(out *clientOut) {
			defer wg.Done()
			out.stages.stagesNs = make(map[string]int64)
			var buf bytes.Buffer
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				i := int(d.next.Add(1) - 1)
				o := &d.plan.ops[d.plan.seq[i%len(d.plan.seq)]]
				path := o.path
				if traced && o.kind != opWrite {
					path += "&trace=1"
				}
				buf.Reset()
				err := d.do(o, path, &buf)
				t1 := time.Now()
				out.n++
				if err != nil {
					out.errs = append(out.errs, err)
					continue
				}
				out.samples = append(out.samples, sample{
					end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), write: o.kind == opWrite,
				})
				if o.kind == opWrite {
					out.writes = append(out.writes, writeRec{doc: o.doc, version: o.version, start: t0, end: t1})
				} else if traced {
					tt, err := parseTraceTail(buf.Bytes())
					if err != nil {
						out.errs = append(out.errs, fmt.Errorf("%s: %w", path, err))
						continue
					}
					out.stages.ops++
					out.stages.totalNs += tt.TotalNs
					out.stages.clientNs += int64(t1.Sub(t0))
					for k, v := range tt.StagesNs {
						out.stages.stagesNs[k] += v
					}
				}
			}
		}(&outs[c])
	}
	// Sample the server's resident set through the phase, and its CPU
	// when the phase ends, not when the last in-flight request does:
	// ops completing after the deadline fall outside every window.
	var rss []float64
	for time.Now().Before(deadline) {
		if mb, err := procStatusMB(pid, "VmRSS"); err == nil {
			rss = append(rss, mb)
		}
		time.Sleep(min(rssSampleEvery, time.Until(deadline)))
	}
	cpu1, err := procCPUms(pid)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	ph := &phase{cpuMs: cpu1 - cpu0, rssMB: median(rss), stages: stageTotals{stagesNs: make(map[string]int64)}}
	for i := range outs {
		o := &outs[i]
		ph.samples = append(ph.samples, o.samples...)
		ph.stages.ops += o.stages.ops
		ph.stages.totalNs += o.stages.totalNs
		ph.stages.clientNs += o.stages.clientNs
		for k, v := range o.stages.stagesNs {
			ph.stages.stagesNs[k] += v
		}
		d.note(o.n, o.errs...)
		d.writes = append(d.writes, o.writes...)
	}
	return ph, nil
}

// do performs one op, draining the response into buf. Anything but a
// 2xx status with a non-empty body is an error.
func (d *driver) do(o *op, path string, buf *bytes.Buffer) error {
	method, body := http.MethodGet, io.Reader(nil)
	if o.kind == opWrite {
		method, body = http.MethodPost, bytes.NewReader(d.cat.docs[o.doc].xml[o.version])
	}
	req, err := http.NewRequest(method, d.base+path, body)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return fmt.Errorf("%s %s: %w", method, path, err)
	case resp.StatusCode/100 != 2:
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(buf.Bytes()))
	case buf.Len() == 0:
		return fmt.Errorf("%s %s: empty body", method, path)
	}
	return nil
}

// verifyPass issues every distinct read op once, numClients at a time,
// and compares each answer with the oracle for the catalog at the
// given content versions (nil = version 0). It returns the canonical
// semantic fields of each response, keyed like plan.distinct.
func (d *driver) verifyPass(versions []int) ([][]byte, error) {
	names := make([]string, len(d.cat.docs))
	for i := range d.cat.docs {
		names[i] = d.cat.docs[i].name
	}
	version := func(di int) int {
		if versions == nil {
			return 0
		}
		return versions[di]
	}
	sem := make([][]byte, len(d.plan.distinct))
	errs := make([]error, len(d.plan.distinct))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				k := int(next.Add(1) - 1)
				if k >= len(d.plan.distinct) {
					return
				}
				o := &d.plan.ops[d.plan.distinct[k]]
				buf.Reset()
				if errs[k] = d.do(o, o.path, &buf); errs[k] != nil {
					continue
				}
				if o.kind == opPoint {
					doc := &d.cat.docs[o.doc]
					errs[k] = checkPoint(buf.Bytes(), doc.name, doc.oracle[version(o.doc)][o.corpus][o.query])
				} else {
					want := make([]answer, len(d.cat.docs))
					for di := range d.cat.docs {
						want[di] = d.cat.docs[di].oracle[version(di)][o.corpus][o.query]
					}
					errs[k] = checkFanout(buf.Bytes(), names, want)
				}
				if errs[k] == nil {
					sem[k], errs[k] = semanticFields(o.kind, buf.Bytes())
				}
				if errs[k] != nil {
					errs[k] = fmt.Errorf("verify %s: %w", o.path, errs[k])
				}
			}
		}()
	}
	wg.Wait()
	d.note(len(errs), errs...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sem, nil
}

// lastAcked returns, per document, the content versions the server may
// hold after every recorded write: the versions of the writes no other
// write to the same name started after. Normally that is one version;
// two writes to one name in flight together leave two candidates. A
// document never written holds version 0.
func (d *driver) lastAcked() [][]int {
	byDoc := make([][]writeRec, len(d.cat.docs))
	for _, w := range d.writes {
		byDoc[w.doc] = append(byDoc[w.doc], w)
	}
	out := make([][]int, len(byDoc))
	for di, ws := range byDoc {
		if len(ws) == 0 {
			out[di] = []int{0}
			continue
		}
		var lastStart time.Time
		for _, w := range ws {
			if w.start.After(lastStart) {
				lastStart = w.start
			}
		}
		for _, w := range ws {
			if !w.end.Before(lastStart) {
				out[di] = append(out[di], w.version)
			}
		}
	}
	return out
}

// settleVersions decides which acknowledged version each document
// holds by asking the server the document's own point queries: the
// answers must match the oracle of one candidate from lastAcked on
// every query.
func (d *driver) settleVersions() ([]int, error) {
	cands := d.lastAcked()
	versions := make([]int, len(cands))
	var buf bytes.Buffer
	for di, cs := range cands {
		versions[di] = cs[0]
		if len(cs) == 1 {
			continue
		}
		doc := &d.cat.docs[di]
		found := false
	candidates:
		for _, v := range cs {
			for _, q := range doc.queries {
				buf.Reset()
				o := op{kind: opPoint, path: pointPath(doc.name, d.cat.corpora[doc.corpus].Queries[q])}
				if err := d.do(&o, o.path, &buf); err != nil {
					return nil, err
				}
				if checkPoint(buf.Bytes(), doc.name, doc.oracle[v][doc.corpus][q]) != nil {
					continue candidates
				}
			}
			versions[di], found = v, true
			break
		}
		if !found {
			return nil, fmt.Errorf("%s holds none of its last acknowledged versions %v", doc.name, cs)
		}
	}
	return versions, nil
}
