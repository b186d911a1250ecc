package plan_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/plan"
	"repro/internal/store"
)

// This file is the planner's differential harness: every corpus query
// fanned over planner-on and planner-off stores must agree per document
// on count, error and paths — over archived documents, over live
// (ingested, not-yet-compacted) documents, and for every commuting
// permutation of each query's intersection chains. The planner is only
// allowed to change evaluation order and to substitute exact synopsis
// counts; these tests pin that nothing else ever changes.

// planCorpora generates one modest document per corpus, mirroring the
// store tests' smallCorpora helper.
func planCorpora(t *testing.T) map[string][]byte {
	t.Helper()
	docs := make(map[string][]byte)
	for _, c := range corpus.Catalog() {
		scale := c.DefaultScale / 40
		if scale < 3 {
			scale = 3
		}
		docs[c.Name] = c.Generate(scale, 7)
	}
	return docs
}

// packPlanDir writes each document as name.xca under a fresh directory.
func packPlanDir(t *testing.T, docs map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, doc := range docs {
		a, err := container.Split(doc)
		if err != nil {
			t.Fatalf("split %s: %v", name, err)
		}
		f, err := os.Create(filepath.Join(dir, name+store.Ext))
		if err != nil {
			t.Fatal(err)
		}
		if err := codec.EncodeArchive(f, a); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// allQueries yields every catalog query with its home corpus name.
func allQueries() []struct{ Corpus, Query string } {
	var qs []struct{ Corpus, Query string }
	for _, c := range corpus.Catalog() {
		for _, q := range c.Queries {
			qs = append(qs, struct{ Corpus, Query string }{c.Name, q})
		}
	}
	return qs
}

// diffBatches requires the planner-on and planner-off fan-outs to agree
// per document on name, error presence, tree-level selection and result
// paths. SelectedDAG is deliberately not compared: a synopsis-direct
// answer has no DAG-level selection to report.
func diffBatches(t *testing.T, q string, on, off []core.BatchResult) {
	t.Helper()
	if len(on) != len(off) {
		t.Fatalf("%s: planner on returned %d results, off %d", q, len(on), len(off))
	}
	for i := range on {
		p, o := on[i], off[i]
		if p.Name != o.Name {
			t.Fatalf("%s: result %d is %s with planner, %s without", q, i, p.Name, o.Name)
		}
		if (p.Err == nil) != (o.Err == nil) {
			t.Fatalf("%s doc %s: planner err %v, unplanned err %v", q, p.Name, p.Err, o.Err)
		}
		if p.Err != nil {
			continue
		}
		if p.Result.SelectedTree != o.Result.SelectedTree {
			t.Errorf("%s doc %s: planner selected %d, unplanned %d (direct=%v)",
				q, p.Name, p.Result.SelectedTree, o.Result.SelectedTree, p.Direct)
		}
		if pp, op := p.Result.Paths(16), o.Result.Paths(16); !reflect.DeepEqual(pp, op) {
			t.Errorf("%s doc %s: planner paths %v, unplanned paths %v", q, p.Name, pp, op)
		}
	}
}

// TestPlannerDifferentialArchived fans every catalog query over the same
// archived mixed store twice — cost-based planner on and off — and
// requires identical results, twice per query so the second round hits
// the plan cache and the warm document cache.
func TestPlannerDifferentialArchived(t *testing.T) {
	dir := packPlanDir(t, planCorpora(t))
	on, err := store.Open(dir, store.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	off, err := store.Open(dir, store.Options{Workers: 4, DisablePlanner: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cq := range allQueries() {
		for round := 0; round < 2; round++ {
			pr, perr := on.QueryAllCtx(context.Background(), cq.Query)
			or, oerr := off.QueryAllCtx(context.Background(), cq.Query)
			if (perr == nil) != (oerr == nil) {
				t.Fatalf("%s: planner err %v, unplanned err %v", cq.Query, perr, oerr)
			}
			if perr != nil {
				continue
			}
			diffBatches(t, cq.Query, pr, or)
		}
	}
	if st := on.Stats(); st.PlanSynopsisDirect == 0 {
		t.Fatalf("no query was answered synopsis-direct across the whole catalog: %+v", st)
	}
}

// TestPlannerDifferentialLive repeats the differential over live
// documents: two empty stores, each fed the same corpus documents
// through its own ingester, queried before any compaction so every
// answer comes from the memtable and the live synopsis.
func TestPlannerDifferentialLive(t *testing.T) {
	docs := planCorpora(t)
	open := func(disable bool) (*store.Store, *ingest.Ingester) {
		t.Helper()
		dir := t.TempDir()
		s, err := store.Open(dir, store.Options{Workers: 4, DisablePlanner: disable})
		if err != nil {
			t.Fatal(err)
		}
		ing, err := ingest.Open(ingest.Options{WALDir: filepath.Join(dir, "wal"), Store: s})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ing.Close() })
		return s, ing
	}
	on, ingOn := open(false)
	off, ingOff := open(true)
	for _, c := range corpus.Catalog() {
		name := fmt.Sprintf("live-%s", c.Name)
		if err := ingOn.Add(name, docs[c.Name]); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
		if err := ingOff.Add(name, docs[c.Name]); err != nil {
			t.Fatalf("add %s (unplanned): %v", name, err)
		}
	}
	for _, cq := range allQueries() {
		pr, perr := on.QueryAllCtx(context.Background(), cq.Query)
		or, oerr := off.QueryAllCtx(context.Background(), cq.Query)
		if (perr == nil) != (oerr == nil) {
			t.Fatalf("%s: planner err %v, unplanned err %v", cq.Query, perr, oerr)
		}
		if perr != nil {
			continue
		}
		diffBatches(t, cq.Query, pr, or)
	}
}

// TestChainPermutationEquality compiles every catalog query and runs
// every commuting permutation of its intersection chains against the
// syntactic-order program on every small corpus document. Intersection
// is commutative and associative over node sets, so any disagreement is
// a re-linearization bug in the planner's emission machinery.
func TestChainPermutationEquality(t *testing.T) {
	docs := planCorpora(t)
	loaded := make(map[string]*core.Document, len(docs))
	for name, xml := range docs {
		loaded[name] = core.Load(xml)
	}
	permuted := 0
	for _, cq := range allQueries() {
		prog, err := core.Compile(cq.Query)
		if err != nil {
			t.Fatalf("compile %s: %v", cq.Query, err)
		}
		perms := plan.ChainPermutations(prog)
		permuted += len(perms)
		for name, d := range loaded {
			base, err := d.Run(prog)
			if err != nil {
				t.Fatalf("%s on %s: %v", cq.Query, name, err)
			}
			for pi, perm := range perms {
				got, err := d.Run(perm)
				if err != nil {
					t.Fatalf("%s perm %d on %s: %v", cq.Query, pi, name, err)
				}
				if got.SelectedTree != base.SelectedTree {
					t.Errorf("%s perm %d on %s: selected %d, syntactic order %d",
						cq.Query, pi, name, got.SelectedTree, base.SelectedTree)
				}
				if gp, bp := got.Paths(16), base.Paths(16); !reflect.DeepEqual(gp, bp) {
					t.Errorf("%s perm %d on %s: paths %v, syntactic order %v", cq.Query, pi, name, gp, bp)
				}
			}
		}
	}
	if permuted == 0 {
		t.Fatal("no catalog query produced a commuting permutation; the harness is vacuous")
	}
}
