package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

func TestPercentileAndMedianAgainstSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 200; n += 13 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
			// Oracle: the smallest sorted value with at least p*n values <= it.
			want := sorted[n-1]
			for i, v := range sorted {
				if float64(i+1) >= p*float64(n) {
					want = v
					break
				}
			}
			if got := percentile(vals, p); got != want {
				t.Fatalf("percentile(n=%d, p=%v) = %v, want %v", n, p, got, want)
			}
		}
		want := sorted[n/2]
		if n%2 == 0 {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		if got := median(vals); got != want {
			t.Fatalf("median(n=%d) = %v, want %v", n, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Fatal("empty input must yield 0")
	}
}

func TestReduceWindowsUsesWindowMedians(t *testing.T) {
	const win = int64(time.Second)
	var samples []sample
	// Windows 0..4 complete 10, 10, 40, 10, 10 reads; window 2 is the
	// outlier a whole-run mean would follow and the median must not.
	for w, n := range []int{10, 10, 40, 10, 10} {
		for i := 0; i < n; i++ {
			lat := int64(time.Millisecond)
			if w == 2 {
				lat = 5 * int64(time.Millisecond)
			}
			samples = append(samples, sample{end: int64(w)*win + int64(i), lat: lat})
		}
	}
	samples = append(samples, sample{end: 5 * win, lat: 1}) // past the last window
	samples = append(samples, sample{end: win / 2, lat: 2 * int64(time.Millisecond), write: true})
	ws := reduceWindows(samples, 5, win)
	if ws.ops != 81 || ws.readCount != 80 || ws.writeCount != 1 {
		t.Fatalf("ops=%d reads=%d writes=%d, want 81/80/1", ws.ops, ws.readCount, ws.writeCount)
	}
	if ws.opsPerSec != 10 {
		t.Fatalf("opsPerSec = %v, want the window median 10", ws.opsPerSec)
	}
	if ws.readP50ms != 1 {
		t.Fatalf("readP50ms = %v, want 1", ws.readP50ms)
	}
	if ws.writeP50ms != 2 {
		t.Fatalf("writeP50ms = %v, want 2", ws.writeP50ms)
	}
	if ws.windowCV <= 0 {
		t.Fatal("windowCV must see the outlier window")
	}
}

// tinyWorkload exercises every op kind on a catalog small enough to
// generate in milliseconds.
var tinyWorkload = workload{
	name: "tiny",
	docs: []docSet{
		{corpus: "DBLP", mul: 0.005, count: 3, queries: allQueries},
		{corpus: "Baseball", mul: 0.1, count: 2, queries: allQueries},
	},
	point: true, fanout: true, ingest: true, variants: 3,
}

func planBytes(p *traffic) []byte {
	var b bytes.Buffer
	for _, oi := range p.seq {
		o := p.ops[oi]
		fmt.Fprintf(&b, "%d %s %d\n", o.kind, o.path, o.version)
	}
	return b.Bytes()
}

func TestSameSeedSameOpSequence(t *testing.T) {
	build := func(seed uint64) []byte {
		cat, err := buildCatalog(&tinyWorkload, seed)
		if err != nil {
			t.Fatal(err)
		}
		return planBytes(buildPlan(&tinyWorkload, cat, seed))
	}
	a, b, c := build(3), build(3), build(4)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different op sequences")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced the same op sequence")
	}
	if n := bytes.Count(a, []byte("\n")); n != seqLen {
		t.Fatalf("sequence has %d ops, want %d", n, seqLen)
	}
}

func TestOracleAgreesWithCompressedEngine(t *testing.T) {
	cat, err := buildCatalog(&tinyWorkload, 1)
	if err != nil {
		t.Fatal(err)
	}
	for di := range cat.docs {
		d := &cat.docs[di]
		for ci, c := range cat.corpora {
			for q, text := range c.Queries {
				res, err := core.Load(d.xml[0]).Query(text)
				if err != nil {
					t.Fatal(err)
				}
				paths := res.Paths(maxPaths)
				if paths == nil {
					paths = []string{}
				}
				want := d.oracle[0][ci][q]
				if res.SelectedTree != want.matches || !reflect.DeepEqual(paths, want.paths) {
					t.Fatalf("%s %s Q%d: engine %d %v, oracle %d %v", d.name, c.Name, q+1,
						res.SelectedTree, paths, want.matches, want.paths)
				}
			}
		}
	}
}

func TestProcParsing(t *testing.T) {
	stat := "4242 (xc serve) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 25 0 0 20 0 9 0 12345 1000000 2000 18446744073709551615"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 1750 {
		t.Fatalf("parseStatCPU = %v, %v; want 1750 ms", cpu, err)
	}
	if _, err := parseStatCPU("no comm here"); err == nil {
		t.Fatal("want an error without a comm field")
	}
	if _, err := parseStatCPU("1 (x) S 1 2"); err == nil {
		t.Fatal("want an error on a short line")
	}
	status := "Name:\txcserve\nVmPeak:\t  999 kB\nVmHWM:\t   73216 kB\nVmRSS:\t   70000 kB\n"
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 73216 {
		t.Fatalf("parseStatusKB = %v, %v; want 73216", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Fatal("want an error for a missing key")
	}
	if _, err := parseStatusKB("VmHWM:\t12 pages\n", "VmHWM"); err == nil {
		t.Fatal("want an error for a malformed line")
	}
	// The live files parse too.
	if _, err := procCPUms(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if mb, err := procStatusMB(os.Getpid(), "VmRSS"); err != nil || mb <= 0 {
		t.Fatalf("procStatusMB = %v, %v", mb, err)
	}
}

func TestSemanticFieldsIgnoreTimingFields(t *testing.T) {
	point := func(matches, evalNs int) []byte {
		return []byte(fmt.Sprintf(`{"doc":"d","query":"//a","matches":%d,"paths":["1.2"],"selected_dag":3,"verts_before":9,"prep_ns":5,"eval_ns":%d}`, matches, evalNs))
	}
	a, err := semanticFields(opPoint, point(4, 100))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := semanticFields(opPoint, point(4, 999999))
	c, _ := semanticFields(opPoint, point(5, 100))
	if !bytes.Equal(a, b) {
		t.Fatalf("timing fields leaked into the semantic form:\n%s\n%s", a, b)
	}
	if bytes.Equal(a, c) {
		t.Fatal("a different match count must change the semantic form")
	}
	fan := func(wallNs int, pruned bool) []byte {
		return []byte(fmt.Sprintf(`{"query":"//a","docs":[{"doc":"d","matches":0,"paths":[],"pruned":%v,"eval_ns":%d}],"total_matches":0,"pruned":1,"direct":0,"wall_ns":%d,"workers":2,"trace":{"total_ns":%d}}`,
			pruned, wallNs, wallNs, wallNs))
	}
	fa, err := semanticFields(opFanout, fan(1, true))
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := semanticFields(opFanout, fan(2, true))
	fc, _ := semanticFields(opFanout, fan(1, false))
	if !bytes.Equal(fa, fb) || bytes.Equal(fa, fc) {
		t.Fatalf("fan-out semantic form wrong:\n%s\n%s\n%s", fa, fb, fc)
	}
}

func TestCheckFanoutSpendsPathBudgetInCatalogOrder(t *testing.T) {
	many := make([]string, maxPaths)
	for i := range many {
		many[i] = fmt.Sprint(i + 1)
	}
	want := []answer{
		{matches: 150, paths: many},
		{matches: 2, paths: []string{"1", "2"}},
		{matches: 0, paths: []string{}},
	}
	body := func(secondPaths string, pruned int) []byte {
		first, _ := json.Marshal(many)
		return []byte(fmt.Sprintf(`{"docs":[{"doc":"a","matches":150,"paths":%s},{"doc":"b","matches":2,"paths":%s,"direct":true},{"doc":"c","matches":0,"paths":[],"pruned":true}],"total_matches":152,"pruned":%d,"direct":1}`,
			first, secondPaths, pruned))
	}
	names := []string{"a", "b", "c"}
	if err := checkFanout(body(`[]`, 1), names, want); err != nil {
		t.Fatalf("budget exhausted by the first document: %v", err)
	}
	if err := checkFanout(body(`["1","2"]`, 1), names, want); err == nil {
		t.Fatal("paths beyond the response budget must be rejected")
	}
	if err := checkFanout(body(`[]`, 0), names, want); err == nil {
		t.Fatal("a pruned count that disagrees with the flags must be rejected")
	}
}

func TestLastAckedKeepsOverlappingWrites(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	d := &driver{cat: &catalog{docs: make([]document, 3)}}
	d.writes = []writeRec{
		{doc: 0, version: 1, start: at(0), end: at(5)},
		{doc: 0, version: 2, start: at(10), end: at(15)}, // strictly last
		{doc: 1, version: 1, start: at(0), end: at(12)},
		{doc: 1, version: 2, start: at(10), end: at(11)}, // overlaps the first
	}
	got := d.lastAcked()
	want := [][]int{{2}, {1, 2}, {0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lastAcked = %v, want %v", got, want)
	}
}

func TestMetricNamesAndArgs(t *testing.T) {
	for _, ok := range []string{"setup_s", "codec.decode_mb_per_s", "a-b", "9lives"} {
		if err := validMetricName(ok); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []string{"", ".hidden", "has space", "slash/no", string(make([]byte, 65))} {
		if validMetricName(bad) == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
	got := normalizeArgs([]string{"--workload", "hot-eval", "--trace", "0", "-trace", "-seed", "2", "--trace", "1", "--trace"})
	want := []string{"--workload", "hot-eval", "-trace=0", "-trace=1", "-seed", "2", "-trace=1", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("normalizeArgs = %v, want %v", got, want)
	}
}

func TestParseTraceTailAndMetrics(t *testing.T) {
	tt, err := parseTraceTail([]byte(`{"docs":[{"doc":"trace","paths":[]}],"trace":{"total_ns":90,"stages_ns":{"eval":60,"load":20}}}`))
	if err != nil || tt.TotalNs != 90 || tt.StagesNs["eval"] != 60 {
		t.Fatalf("parseTraceTail = %+v, %v", tt, err)
	}
	if _, err := parseTraceTail([]byte(`{"docs":[]}`)); err == nil {
		t.Fatal("want an error without a trace object")
	}
	m := parseMetrics("# HELP x y\nxc_queries_shed_total 0\nxc_query_stage_seconds_sum{stage=\"load\"} 1.5\n")
	if m["xc_queries_shed_total"] != 0 || m[`xc_query_stage_seconds_sum{stage="load"}`] != 1.5 || len(m) != 2 {
		t.Fatalf("parseMetrics = %v", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := &recorder{t0: time.Now()}
	r.spans = []span{
		{Name: "op", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "decode", Op: 1, Parent: 0, Start: 10, End: 40},
		{Name: "eval", Op: 1, Parent: 0, Start: 40, End: 90},
		{Name: "merge", Op: 1, Parent: 2, Start: 50, End: 60},
	}
	got := r.byLayer()
	if got["op"].SelfNs != 20 || got["eval"].SelfNs != 40 || got["decode"].SelfNs != 30 || got["merge"].TotalNs != 10 {
		t.Fatalf("byLayer = %+v %+v %+v %+v", got["op"], got["decode"], got["eval"], got["merge"])
	}
}

// TestBenchmarkJSONMatchesHarness keeps the driver's description of the
// benchmark and the harness's own tables from drifting apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds%int(windowLen/time.Second) != 0 {
		t.Fatalf("run_seconds %d is not a whole number of windows", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Fatalf("workload %d is %q (%q), harness has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Fatalf("workload %q: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEndBounds) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(spec.EndToEnd), len(endToEndBounds))
	}
	for i, m := range spec.EndToEnd {
		want := endToEndBounds[i]
		better := "higher"
		if want.lower {
			better = "lower"
		}
		if m.Name != want.name || m.Unit != want.unit || m.Better != better || m.Bound != want.bound {
			t.Fatalf("end-to-end metric %d is %+v, harness has %+v", i, m, want)
		}
	}
	var names []string
	for _, m := range spec.PerLayer {
		if err := validMetricName(m.Name); err != nil {
			t.Fatal(err)
		}
		names = append(names, m.Name)
	}
	want := append([]string(nil), perLayerNames...)
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("per-layer metrics differ:\n BENCHMARK.json %v\n harness        %v", names, want)
	}
}
