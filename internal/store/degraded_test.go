package store_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/synopsis"
)

// TestQueryAllDegradedCorruptDoc pins the degraded-serving contract: a
// document whose archive rots on disk after open fails alone inside the
// fan-out — the call succeeds, healthy documents answer normally, the
// failure is counted, and the artifact lands in the scrubber's suspect
// queue so the next pass quarantines it.
func TestQueryAllDegradedCorruptDoc(t *testing.T) {
	docs := map[string][]byte{
		"alpha": []byte("<r><a/></r>"),
		"beta":  []byte("<r><a/></r>"),
		"gamma": []byte("<r><a/></r>"),
	}
	dir := packDir(t, docs)
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Rot a bit in beta's archive body after open: the catalog holds the
	// entry (open probes only the header), the load will fail its CRC.
	bad := filepath.Join(dir, "beta"+store.Ext)
	fi, err := os.Stat(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.FlipBit(bad, (fi.Size()/2)*8); err != nil {
		t.Fatal(err)
	}

	out, err := s.QueryAllCtx(context.Background(), "//a")
	if err != nil {
		t.Fatalf("fan-out must not fail on one corrupt doc: %v", err)
	}
	var failed, ok int
	for _, br := range out {
		switch {
		case br.Name == "beta":
			if br.Err == nil {
				t.Fatalf("corrupt doc beta served a result")
			}
			failed++
		case br.Err != nil:
			t.Fatalf("healthy doc %s failed: %v", br.Name, br.Err)
		default:
			ok++
		}
	}
	if failed != 1 || ok != 2 {
		t.Fatalf("got %d failed / %d ok, want 1 / 2", failed, ok)
	}
	st := s.Stats()
	if st.DegradedDocs == 0 {
		t.Fatalf("degraded serve not counted: %+v", st)
	}
	if len(s.Suspects()) != 1 || s.Suspects()[0].Name != "beta" {
		t.Fatalf("suspect queue = %+v, want beta", s.Suspects())
	}

	// The scrubber drains the suspect into quarantine; the healthy pair
	// keeps serving.
	rep, err := s.Scrub(context.Background(), store.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("scrub quarantined %d, want 1: %+v", rep.Quarantined, rep)
	}
	if _, err := os.Stat(filepath.Join(dir, store.QuarantineDir, "beta"+store.Ext)); err != nil {
		t.Fatalf("beta not in quarantine: %v", err)
	}
	out, err = s.QueryAllCtx(context.Background(), "//a")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("catalog still serves %d docs after quarantine, want 2", len(out))
	}
	for _, br := range out {
		if br.Err != nil {
			t.Fatalf("doc %s failed after quarantine: %v", br.Name, br.Err)
		}
	}
}

// TestQueryAllCtxCancel pins cooperative cancellation: a cancelled
// context fails the fan-out with the context's error, and — the
// satellite invariant — every pooled evaluation overlay acquired by the
// partial run is released, and the document cache accounting stays
// balanced (a follow-up uncancelled fan-out answers identically to a
// never-cancelled store).
func TestQueryAllCtxCancel(t *testing.T) {
	docs := smallCorpora(t)
	dir := packDir(t, docs)
	s, err := store.Open(dir, store.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	base := dag.OverlaysLive()

	// Pre-cancelled: the deterministic path — nothing dispatches.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryAllCtx(ctx, "//*"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled fan-out returned %v, want context.Canceled", err)
	}

	// Mid-flight: race a cancel against repeated fan-outs so dispatch is
	// interrupted at varying points (under -race this also shakes out
	// unsynchronised cleanup).
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 100 * time.Microsecond)
			cancel()
		}()
		_, err := s.QueryAllCtx(ctx, "//*")
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: %v", i, err)
		}
		wg.Wait()
	}

	if live := dag.OverlaysLive(); live != base {
		t.Fatalf("overlay pool leaked: %d live overlays after cancellations, want %d", live, base)
	}

	// Cache accounting survived the partial runs: a clean fan-out matches
	// a fresh store byte for byte.
	got, err := s.QueryAllCtx(context.Background(), "//*")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := store.Open(dir, store.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.QueryAllCtx(context.Background(), "//*")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result count %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			t.Fatalf("doc %d: name %q != %q", i, got[i].Name, want[i].Name)
		}
		gm, wm := got[i].Result.SelectedTree, want[i].Result.SelectedTree
		if gm != wm {
			t.Fatalf("doc %s: matches %d != %d after cancelled runs", got[i].Name, gm, wm)
		}
	}
	st := s.Stats()
	if st.CacheBytes < 0 || st.CacheBytes > st.BudgetBytes {
		t.Fatalf("cache accounting out of bounds after cancellations: %+v", st)
	}
}

// blockingLive is a Live view whose name listing blocks until released —
// a deterministic way to hold one /query in flight inside the handler.
type blockingLive struct {
	entered chan struct{} // closed (once) when a fan-out reaches LiveNames
	release chan struct{} // closes to let it proceed
	once    sync.Once
}

func (l *blockingLive) LiveDoc(string) (*store.Doc, bool) { return nil, false }
func (l *blockingLive) LiveSynopsis(string) (*synopsis.Synopsis, bool) {
	return nil, false
}
func (l *blockingLive) LiveNames() (live, deleted []string) {
	l.once.Do(func() { close(l.entered) })
	<-l.release
	return nil, nil
}

// TestAdmissionGateSheds429 holds one fan-out in flight (via a blocking
// Live view) with MaxConcurrentQueries=1 and asserts the next request is
// shed immediately with 429, then that the slot frees once the first
// request finishes.
func TestAdmissionGateSheds429(t *testing.T) {
	dir := packDir(t, map[string][]byte{"only": []byte("<r><a/></r>")})
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bl := &blockingLive{entered: make(chan struct{}), release: make(chan struct{})}
	s.SetLive(bl)
	srv := httptest.NewServer(store.NewHandler(s, store.ServerOptions{MaxConcurrentQueries: 1}))
	defer srv.Close()

	type result struct {
		status int
		err    error
	}
	first := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/query?q=//a")
		if err != nil {
			first <- result{0, err}
			return
		}
		resp.Body.Close()
		first <- result{resp.StatusCode, nil}
	}()
	<-bl.entered // the first request now owns the only slot

	resp, err := http.Get(srv.URL + "/query?q=//a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("429 carries no Retry-After header")
	}

	close(bl.release)
	r := <-first
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("first request: status=%d err=%v, want 200", r.status, r.err)
	}

	// Slot released: the gate admits again.
	resp, err = http.Get(srv.URL + "/query?q=//a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release request got %d, want 200", resp.StatusCode)
	}
}

// TestQueryTimeout504 pins the -query-timeout contract: a deadline the
// evaluation cannot meet answers 504, for both single-document and
// fan-out shapes.
func TestQueryTimeout504(t *testing.T) {
	dir := packDir(t, map[string][]byte{"only": []byte("<r><a/></r>")})
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(store.NewHandler(s, store.ServerOptions{QueryTimeout: time.Nanosecond}))
	defer srv.Close()

	for _, url := range []string{
		srv.URL + "/query?q=//a",
		srv.URL + "/query?doc=only&q=//a",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: got %d, want 504", url, resp.StatusCode)
		}
	}
}
