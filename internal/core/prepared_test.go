package core_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dagtest"
)

func TestPreparedMatchesDirectQuery(t *testing.T) {
	for _, c := range corpus.Catalog() {
		name := c.Name
		doc := core.Load(c.Generate(c.DefaultScale/20+2, 3))
		prep, err := doc.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range c.Queries {
			// direct distils a per-query instance over exactly the query's
			// relations; prepared evaluates on the shared full-tag base
			// (merged with string marks) — the golden pair of the two
			// instance-building paths.
			direct, err := doc.Query(q)
			if err != nil {
				t.Fatalf("%s Q%d direct: %v", name, qi+1, err)
			}
			cached, err := prep.Query(q)
			if err != nil {
				t.Fatalf("%s Q%d prepared: %v", name, qi+1, err)
			}
			if direct.SelectedTree != cached.SelectedTree {
				t.Errorf("%s Q%d: direct %d != prepared %d",
					name, qi+1, direct.SelectedTree, cached.SelectedTree)
			}
			if g, w := cached.Paths(500), direct.Paths(500); !reflect.DeepEqual(g, w) {
				t.Errorf("%s Q%d: prepared paths %v != direct %v", name, qi+1, g, w)
			}
		}
	}
}

func TestPreparedPropertyRandomQueries(t *testing.T) {
	tags := []string{"t0", "t1", "t2"}
	words := []string{"alpha", "beta", "veto"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		raw := dagtest.RandomXML(r, 80, 3, len(tags))
		doc := core.Load(raw)
		prep, err := doc.Prepare()
		if err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			q := dagtest.RandomQuery(r, tags, words)
			direct, err := doc.Query(q)
			if err != nil {
				t.Logf("direct %q: %v", q, err)
				return false
			}
			cached, err := prep.Query(q)
			if err != nil {
				t.Logf("prepared %q: %v", q, err)
				return false
			}
			if direct.SelectedTree != cached.SelectedTree {
				t.Logf("%q on %s: direct %d != prepared %d", q, raw,
					direct.SelectedTree, cached.SelectedTree)
				return false
			}
			if err := cached.Instance().Validate(); err != nil {
				t.Logf("prepared instance invalid after %q: %v", q, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedTagOnlyQuerySkipsParse(t *testing.T) {
	c, err := corpus.ByName("Baseball")
	if err != nil {
		t.Fatal(err)
	}
	doc := core.Load(c.Generate(3, 1))
	prep, err := doc.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	// Tag-only query: cached path must be far cheaper than a re-parse.
	q := `/SEASON/LEAGUE/DIVISION/TEAM/PLAYER`
	direct, err := doc.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := prep.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if cached.SelectedTree != direct.SelectedTree {
		t.Fatalf("results differ: %d vs %d", cached.SelectedTree, direct.SelectedTree)
	}
	if cached.ParseTime*5 > direct.ParseTime {
		t.Logf("note: cached prep %v vs direct parse %v (timing, not failing)",
			cached.ParseTime, direct.ParseTime)
	}
	if prep.BaseVertices() == 0 || prep.BaseEdges() == 0 {
		t.Fatal("base instance empty")
	}
}

func TestPreparedConcurrentQueries(t *testing.T) {
	c, err := corpus.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	doc := core.Load(c.Generate(150, 2))
	prep, err := doc.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(c.Queries))
	for i, q := range c.Queries {
		res, err := prep.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.SelectedTree
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range c.Queries {
				res, err := prep.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if res.SelectedTree != want[i] {
					errs <- errMismatch{i, res.SelectedTree, want[i]}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errMismatch struct {
	q          int
	got, want_ uint64
}

func (e errMismatch) Error() string {
	return "concurrent query result mismatch"
}
