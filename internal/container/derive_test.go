package container_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/container"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/label"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// replayed builds the reference instance by replaying the archive's
// events: the full-tag skeleton when patterns is nil, else the
// strings-only instance over patterns.
func replayed(t *testing.T, a *container.Archive, patterns []string) *dag.Instance {
	t.Helper()
	opts := skeleton.Options{Mode: skeleton.TagsAll}
	if patterns != nil {
		opts = skeleton.Options{Mode: skeleton.TagsNone, Strings: patterns}
	}
	want, _, err := skeleton.BuildCompressedFrom(a.Events, opts)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// derived builds the same instance directly from the archive DAG.
func derived(t *testing.T, a *container.Archive, patterns []string) *dag.Instance {
	t.Helper()
	var got *dag.Instance
	var err error
	if patterns == nil {
		got, err = a.TagSkeleton()
	} else {
		got, err = a.DistillStrings(patterns)
	}
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// sameAsReplay checks a derived instance against the replayed one: equal
// vertex and edge counts, equivalence, and — what keeps every merge and
// served answer downstream byte-equal — the same vertex and label
// numbering.
func sameAsReplay(t *testing.T, what string, a *container.Archive, patterns []string) *dag.Instance {
	t.Helper()
	want, got := replayed(t, a, patterns), derived(t, a, patterns)
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Errorf("%s %q: derived |V|=%d |E|=%d, replay |V|=%d |E|=%d", what, patterns,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if !dag.Equivalent(want, got) {
		t.Errorf("%s %q: derived instance not equivalent to the replay", what, patterns)
	}
	if got.String() != want.String() || !slices.Equal(got.Schema.Names(), want.Schema.Names()) {
		t.Errorf("%s %q: numbering differs from the replay:\n%s%v\nvs\n%s%v", what, patterns,
			got, got.Schema.Names(), want, want.Schema.Names())
	}
	return got
}

// TestDerivedMatchReplayOnCorpora: over every corpus, three seeds and the
// string set of every query, the derived tag skeleton and string
// instances equal the replay construction.
func TestDerivedMatchReplayOnCorpora(t *testing.T) {
	for _, c := range corpus.Catalog() {
		scale := c.DefaultScale / 100
		if scale < 2 {
			scale = 2
		}
		var sets [][]string
		for _, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if len(prog.Strings) > 0 {
				sets = append(sets, prog.Strings)
			}
		}
		for seed := uint64(1); seed <= 3; seed++ {
			a, err := container.Split(c.Generate(scale, seed))
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			sameAsReplay(t, c.Name, a, nil)
			for _, set := range sets {
				sameAsReplay(t, c.Name, a, set)
			}
		}
	}
}

// TestPropertyDerivedMatchReplay: random mixed-content documents, with
// patterns that land inside words, span element boundaries and overlap.
func TestPropertyDerivedMatchReplay(t *testing.T) {
	patterns := []string{"a", "ta", "agam", "vetox", "xyzalpha", "lph"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, err := container.Split(dagtest.RandomXML(r, 80, 4, 3))
		if err != nil {
			return false
		}
		sameAsReplay(t, "random", a, nil)
		sameAsReplay(t, "random", a, patterns)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedHandCases pins the cases the direct walk must get right by
// construction, each against the replay and against the count of
// document-tree nodes the condition selects (document node included).
func TestDerivedHandCases(t *testing.T) {
	for _, tc := range []struct {
		name, doc string
		patterns  []string
		selected  []uint64 // tree nodes marked, per pattern
	}{
		{"attribute value does not mark", `<r><a k="Chandra">x</a></r>`,
			[]string{"Chandra"}, []uint64{0}},
		{"match spans element boundaries", `<r><a>Ch<b>an</b>dra</a></r>`,
			[]string{"Chandra"}, []uint64{3}},
		{"two chunks split by a child", `<r><a>Cha<b/>ndra</a><a>Cha</a></r>`,
			[]string{"Chandra"}, []uint64{3}},
		{"whitespace-only text and empty elements", "<r> <a/> <a/>\n<a></a></r>",
			[]string{" ", "\n"}, []uint64{2, 2}},
		{"overlapping patterns", `<r><x>abc</x><y>b</y><x>ab</x></r>`,
			[]string{"ab", "bc", "abc", "b", "cb"}, []uint64{4, 3, 3, 5, 2}},
		{"shared subtree, different text", `<r><p><n>Codd</n></p><p><n>Date</n></p><p><n>Codd</n></p></r>`,
			[]string{"Codd", "Date"}, []uint64{6, 4}},
	} {
		a, err := container.Split([]byte(tc.doc))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameAsReplay(t, tc.name, a, nil)
		got := sameAsReplay(t, tc.name, a, tc.patterns)
		for i, p := range tc.patterns {
			if n := got.CountSelectedTree(got.Schema.Lookup(skeleton.StringLabel(p))); n != tc.selected[i] {
				t.Errorf("%s: %q selects %d tree nodes, want %d", tc.name, p, n, tc.selected[i])
			}
		}
	}
	// The last case must really be shared in the archive: one p vertex,
	// whose occurrences the walk splits by their text.
	a, err := container.Split([]byte(`<r><p><n>Codd</n></p><p><n>Date</n></p></r>`))
	if err != nil {
		t.Fatal(err)
	}
	if n := a.Skeleton.CountSelected(a.Skeleton.Schema.Lookup("tag:p")); n != 1 {
		t.Fatalf("archive holds %d p vertices, want 1 shared", n)
	}
}

// TestDerivedConcurrent: a served document's archive is shared by every
// query, and string sets are distilled on first use from whichever
// goroutines ask, so the derivations must only read the archive.
func TestDerivedConcurrent(t *testing.T) {
	a, err := container.Split(corpus.DBLP(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	patterns := []string{"Codd", "Chandra", "Harel"}
	tags, strs := replayed(t, a, nil).String(), replayed(t, a, patterns).String()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				ti, err := a.TagSkeleton()
				if err != nil || ti.String() != tags {
					t.Errorf("concurrent TagSkeleton differs (err %v)", err)
					return
				}
				si, err := a.DistillStrings(patterns)
				if err != nil || si.String() != strs {
					t.Errorf("concurrent DistillStrings differs (err %v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDerivedRejectUnsplitShapes: the derivations rely on Split's layout
// and refuse archives that break it, with an error rather than a wrong
// instance or a panic.
func TestDerivedRejectUnsplitShapes(t *testing.T) {
	leaf := func(b *dag.Builder, names ...string) dag.VertexID {
		var ls label.Set
		for _, n := range names {
			ls = ls.Set(b.Schema().Intern(n))
		}
		return b.Add(ls, nil)
	}
	elem := func(b *dag.Builder, tag string, kids ...dag.VertexID) dag.VertexID {
		return b.Add(label.Set(nil).Set(b.Schema().Intern("tag:"+tag)), kids)
	}
	for name, build := range map[string]func(*dag.Builder) dag.VertexID{
		"element root": func(b *dag.Builder) dag.VertexID {
			return elem(b, "a", leaf(b, "text:/a"))
		},
		"attribute after content": func(b *dag.Builder) dag.VertexID {
			return b.Add(nil, []dag.VertexID{elem(b, "a", leaf(b, "text:/a"), leaf(b, "attr:k", "text:/a/@k"))})
		},
		"document vertex below the root": func(b *dag.Builder) dag.VertexID {
			return b.Add(nil, []dag.VertexID{elem(b, "a", b.Add(nil, []dag.VertexID{leaf(b, "text:/a")}))})
		},
	} {
		b := dag.NewBuilder(nil)
		b.SetRoot(build(b))
		a := &container.Archive{Skeleton: b.Instance(), Store: container.NewStore()}
		a.Store.Append("/a", "x")
		a.Store.Append("/a/@k", "v")
		if _, err := a.TagSkeleton(); err == nil {
			t.Errorf("%s: TagSkeleton accepted it", name)
		}
		if _, err := a.DistillStrings([]string{"x"}); err == nil {
			t.Errorf("%s: DistillStrings accepted it", name)
		}
	}
}

// TestDerivedEmptyArchive: an archive with no root derives the one-vertex
// document instance, like the replay.
func TestDerivedEmptyArchive(t *testing.T) {
	a := &container.Archive{Skeleton: dag.New(), Store: container.NewStore()}
	sameAsReplay(t, "empty", a, nil)
	sameAsReplay(t, "empty", a, []string{"x"})
}
