package store_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bundle"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/synopsis"
)

// TestTortureCorruptionRecovery is the crash/corruption torture harness
// pinning the whole robustness stack: build a mixed loose+bundled
// catalog, record golden answers for every corpus query, corrupt a
// seeded selection of artifacts at rest (bit flips, torn tails — in
// archives, a bundle needle, a sidecar and a needle index), reopen,
// scrub, and assert (a) the quarantine set is exactly the corrupted
// documents — no false positives, derivable state repaired instead —
// and (b) every surviving document answers every query byte-equal to
// golden. Three fixed seeds vary which artifacts rot and where.
func TestTortureCorruptionRecovery(t *testing.T) {
	docs := smallCorpora(t)
	var queries []string
	seen := map[string]bool{}
	for _, c := range corpus.Catalog() {
		for _, q := range c.Queries {
			if !seen[q] {
				seen[q] = true
				queries = append(queries, q)
			}
		}
	}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tortureOnce(t, seed, docs, queries)
		})
	}
}

func tortureOnce(t *testing.T, seed int64, docs map[string][]byte, queries []string) {
	dir := packDir(t, docs)
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Pack roughly the smaller half of the catalog into a bundle so both
	// tiers are under torture.
	var sizes []int64
	for _, info := range s.Docs() {
		sizes = append(sizes, info.FileBytes)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	threshold := sizes[len(sizes)/2]
	if _, err := s.PackLoose(store.PackOptions{MaxDocBytes: threshold}); err != nil {
		t.Fatal(err)
	}
	var loose, bundled []string
	for _, info := range s.Docs() {
		if info.Bundle != "" {
			bundled = append(bundled, info.Name)
		} else {
			loose = append(loose, info.Name)
		}
	}
	sort.Strings(loose)
	sort.Strings(bundled)
	if len(loose) < 3 || len(bundled) < 1 {
		t.Fatalf("torture needs >=3 loose and >=1 bundled docs, got %d/%d", len(loose), len(bundled))
	}

	// Golden answers over the mixed catalog, before any corruption.
	golden := make(map[string]map[string]uint64, len(queries))
	for _, q := range queries {
		out, err := s.QueryAllCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("golden %q: %v", q, err)
		}
		perDoc := make(map[string]uint64, len(out))
		for _, br := range out {
			if br.Err != nil {
				t.Fatalf("golden %q on %s: %v", q, br.Name, br.Err)
			}
			perDoc[br.Name] = br.Result.SelectedTree
		}
		golden[q] = perDoc
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Seeded at-rest corruption.
	rnd := rand.New(rand.NewSource(seed))
	pick := func(names []string) string {
		return names[rnd.Intn(len(names))]
	}
	flipVictim := pick(loose)
	truncVictim := flipVictim
	for truncVictim == flipVictim {
		truncVictim = pick(loose)
	}
	sidecarVictim := flipVictim
	for sidecarVictim == flipVictim || sidecarVictim == truncVictim {
		sidecarVictim = pick(loose)
	}
	bundleVictim := pick(bundled)

	// Loose archive 1: one flipped bit somewhere past the header.
	flipPath := filepath.Join(dir, flipVictim+store.Ext)
	fi, err := os.Stat(flipPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.FlipBit(flipPath, 8*(5+rnd.Int63n(fi.Size()-5))); err != nil {
		t.Fatal(err)
	}
	// Loose archive 2: torn tail (header survives, body does not).
	truncPath := filepath.Join(dir, truncVictim+store.Ext)
	fi, err = os.Stat(truncPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.TruncateTail(truncPath, 5+fi.Size()/3); err != nil {
		t.Fatal(err)
	}
	// Bundled document: one flipped bit inside its archive payload, plus
	// a torn needle index (derivable — must be rebuilt, never
	// quarantined).
	bundles, err := filepath.Glob(filepath.Join(dir, "*"+bundle.Ext))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no bundle files: %v", err)
	}
	var victimRef bundle.Ref
	var victimBundle string
	for _, bp := range bundles {
		b, err := bundle.Open(bp)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := b.Ref(bundleVictim); ok {
			victimRef, victimBundle = r, bp
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if victimBundle == "" {
		t.Fatalf("bundled victim %q not found in any bundle", bundleVictim)
	}
	off := victimRef.PayloadOff + rnd.Int63n(victimRef.ArchiveLen)
	if err := fault.FlipBit(victimBundle, 8*off); err != nil {
		t.Fatal(err)
	}
	idxPath := bundle.IndexPath(victimBundle)
	if fi, err = os.Stat(idxPath); err != nil {
		t.Fatal(err)
	}
	if err := fault.TruncateTail(idxPath, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	// Reopen over the damage. The store must come up regardless.
	s, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen over corruption: %v", err)
	}
	defer s.Close()

	// Rot a healthy document's sidecar after open: derivable state the
	// scrubber must repair in place, not quarantine.
	scPath := synopsis.SidecarPath(filepath.Join(dir, sidecarVictim+store.Ext))
	if fi, err = os.Stat(scPath); err != nil {
		t.Fatal(err)
	}
	if err := fault.FlipBit(scPath, 8*rnd.Int63n(fi.Size())); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub(context.Background(), store.ScrubOptions{})
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Repaired == 0 {
		t.Fatalf("scrub repaired nothing; the rotten sidecar of %s must be rebuilt: %+v", sidecarVictim, rep)
	}

	// Exactly the corrupted documents are gone — no false positives.
	wantGone := map[string]bool{flipVictim: true, truncVictim: true, bundleVictim: true}
	served := map[string]bool{}
	for _, name := range s.Names() {
		if wantGone[name] {
			t.Fatalf("corrupt document %q still served after scrub", name)
		}
		served[name] = true
	}
	for name := range docs {
		if !wantGone[name] && !served[name] {
			t.Fatalf("healthy document %q lost (false-positive quarantine)", name)
		}
	}
	qdir := filepath.Join(dir, store.QuarantineDir)
	qfiles, err := filepath.Glob(filepath.Join(qdir, "*"+store.Ext))
	if err != nil {
		t.Fatal(err)
	}
	if len(qfiles) != 2 {
		t.Fatalf("quarantine holds %d loose archives %v, want 2", len(qfiles), qfiles)
	}
	reasons, err := filepath.Glob(filepath.Join(qdir, "*.reason"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reasons) != 3 {
		t.Fatalf("quarantine holds %d reason files %v, want 3", len(reasons), reasons)
	}

	// Convergence: a second pass finds a clean catalog.
	rep2, err := s.Scrub(context.Background(), store.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Corrupt != 0 || rep2.Quarantined != 0 {
		t.Fatalf("second scrub still finds damage: %+v", rep2)
	}

	// Golden equality on the surviving healthy subset, every query.
	for _, q := range queries {
		out, err := s.QueryAllCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("post-scrub %q: %v", q, err)
		}
		if len(out) != len(docs)-len(wantGone) {
			t.Fatalf("post-scrub %q: %d results, want %d", q, len(out), len(docs)-len(wantGone))
		}
		for _, br := range out {
			if br.Err != nil {
				t.Fatalf("post-scrub %q on %s: %v", q, br.Name, br.Err)
			}
			if got, want := br.Result.SelectedTree, golden[q][br.Name]; got != want {
				t.Fatalf("post-scrub %q on %s: %d matches, golden %d", q, br.Name, got, want)
			}
		}
	}
}
