package synopsis

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/container"
	"repro/internal/fault"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// buildFrom compresses doc's full tag skeleton and summarises it.
func buildFrom(t *testing.T, doc string, dict *Dict, opts Options) *Synopsis {
	t.Helper()
	inst, _, err := skeleton.BuildCompressed([]byte(doc), skeleton.Options{Mode: skeleton.TagsAll})
	if err != nil {
		t.Fatal(err)
	}
	return Build(inst, dict, opts)
}

// canMatch resolves query's signature against dict and tests it.
func canMatch(t *testing.T, s *Synopsis, dict *Dict, query string) bool {
	t.Helper()
	prog, err := xpath.CompileQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	return s.CanMatch(Resolve(prog.Sig, dict))
}

// paths enumerates the trie's maximal label paths as "a/b/c" (with "+"
// appended at truncation points), sorted — a canonical form for
// structural comparisons.
func (s *Synopsis) testPaths(dict *Dict) []string {
	var out []string
	var walk func(ni int32, prefix []string)
	walk = func(ni int32, prefix []string) {
		n := &s.nodes[ni]
		if len(n.children) == 0 {
			p := strings.Join(prefix, "/")
			if n.deeper {
				p += "+"
			}
			if p != "" {
				out = append(out, p)
			}
			return
		}
		for _, cr := range n.children {
			walk(cr.node, append(prefix, dict.Name(cr.lbl)))
		}
	}
	walk(0, nil)
	sort.Strings(out)
	return out
}

func TestBuildAndMatch(t *testing.T) {
	dict := NewDict()
	s := buildFrom(t, `<a><b><c/></b><b><d/></b></a>`, dict, Options{})

	if got := s.NumLabels(); got != 4 {
		t.Fatalf("NumLabels = %d, want 4", got)
	}
	want := []string{"tag:a/tag:b/tag:c", "tag:a/tag:b/tag:d"}
	if got := s.testPaths(dict); !reflect.DeepEqual(got, want) {
		t.Fatalf("paths = %v, want %v", got, want)
	}

	cases := []struct {
		query string
		want  bool
	}{
		{`/a/b/c`, true},
		{`/a/b/d`, true},
		{`/a/c`, false},       // c exists, but not at that path
		{`/a/b/e`, false},     // e nowhere in the document
		{`//c`, true},         // no prefix, label present
		{`//e`, false},        // label absent
		{`/a/*/c`, true},      // wildcard position
		{`/*/*/*`, true},      // pure depth requirement
		{`/*/*/*/*`, false},   // deeper than any path
		{`//a[c or e]`, true}, // one disjunct present
		{`//a[e or f]`, false},
		{`//a[not(e)]`, true},
		{`//a["sometext"]`, true}, // string conditions never prune
		{`/b/c`, false},           // both labels present, path not root-anchored
		{`/self::*[a/b/c]`, true},
		{`/self::*[a/c/b]`, true}, // labels present; no prefix from predicates
	}
	for _, c := range cases {
		if got := canMatch(t, s, dict, c.query); got != c.want {
			t.Errorf("CanMatch(%q) = %v, want %v", c.query, got, c.want)
		}
	}
}

func TestDepthTruncation(t *testing.T) {
	dict := NewDict()
	s := buildFrom(t, `<a><b><c><d/></c></b><e/></a>`, dict, Options{Depth: 2})

	want := []string{"tag:a/tag:b+", "tag:a/tag:e"}
	if got := s.testPaths(dict); !reflect.DeepEqual(got, want) {
		t.Fatalf("paths = %v, want %v", got, want)
	}
	// Beyond the truncation depth the synopsis cannot rule anything out
	// under a/b, but complete paths stay exact.
	for query, want := range map[string]bool{
		`/a/b/c/d`: true,
		`/a/b/x/y`: false, // x is not a label at all
		`/a/e/c`:   false, // a/e is complete at depth 2
		`/a/x`:     false,
	} {
		if got := canMatch(t, s, dict, query); got != want {
			t.Errorf("CanMatch(%q) = %v, want %v", query, got, want)
		}
	}
}

func TestDagDeduplication(t *testing.T) {
	// Many identical records share one DAG subtree; the trie must stay
	// proportional to the distinct paths, not the document.
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 500; i++ {
		sb.WriteString("<rec><x/><y/></rec>")
	}
	sb.WriteString("</root>")
	dict := NewDict()
	s := buildFrom(t, sb.String(), dict, Options{})
	if got := s.NumPathNodes(); got != 4 { // root, rec, x, y minus virtual root
		t.Fatalf("NumPathNodes = %d, want 4", got)
	}
}

func TestOverflow(t *testing.T) {
	// More distinct paths than the cap: prefix checks become
	// inconclusive (always match) but label pruning still works.
	var sb strings.Builder
	sb.WriteString("<r>")
	for _, a := range []string{"a", "b", "c", "d"} {
		for _, b := range []string{"e", "f", "g", "h"} {
			sb.WriteString("<" + a + "><" + b + "/></" + a + ">")
		}
	}
	sb.WriteString("</r>")
	dict := NewDict()
	s := buildFrom(t, sb.String(), dict, Options{MaxNodes: 3})
	if !s.Overflow() {
		t.Fatal("expected overflow")
	}
	// All labels present but in an order no root path has: only the
	// prefix check could prune this, and overflow disables it.
	if !canMatch(t, s, dict, `/e/a/r`) {
		t.Fatal("overflowed synopsis must not prune on prefix")
	}
	if canMatch(t, s, dict, `//zzz`) {
		t.Fatal("label pruning must survive overflow")
	}
}

func TestArchiveSkeletonEquivalence(t *testing.T) {
	// A synopsis built from the archive skeleton (with text/attr leaves)
	// must equal one built from the distilled query skeleton.
	doc := `<a id="1"><b>hello <i>world</i></b><b><c>text</c></b></a>`
	qd, ad := NewDict(), NewDict()
	q := buildFrom(t, doc, qd, Options{})

	arch, err := container.Split([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	a := Build(arch.Skeleton, ad, Options{})

	if got, want := a.testPaths(ad), q.testPaths(qd); !reflect.DeepEqual(got, want) {
		t.Fatalf("archive paths = %v, skeleton paths = %v", got, want)
	}
	if a.NumLabels() != q.NumLabels() {
		t.Fatalf("label counts differ: %d vs %d", a.NumLabels(), q.NumLabels())
	}
}

func TestSidecarRoundtrip(t *testing.T) {
	dict := NewDict()
	s := buildFrom(t, `<a><b><c/></b><b><d/></b><e at="v">txt</e></a>`, dict, Options{Depth: 2})

	var buf bytes.Buffer
	if err := EncodeSidecar(&buf, s, dict, 12345); err != nil {
		t.Fatal(err)
	}
	dict2 := NewDict()
	dict2.Intern("tag:unrelated") // shift IDs: decode must be dict-independent
	got, gotBytes, err := DecodeSidecar(buf.Bytes(), dict2)
	if err != nil {
		t.Fatal(err)
	}
	if gotBytes != 12345 {
		t.Fatalf("archive size = %d after roundtrip, want 12345", gotBytes)
	}
	if !reflect.DeepEqual(got.testPaths(dict2), s.testPaths(dict)) {
		t.Fatalf("paths differ after roundtrip: %v vs %v", got.testPaths(dict2), s.testPaths(dict))
	}
	if got.Depth() != s.Depth() || got.Overflow() != s.Overflow() || got.NumLabels() != s.NumLabels() {
		t.Fatalf("metadata differs after roundtrip")
	}
}

func TestSidecarRejectsCorruption(t *testing.T) {
	dict := NewDict()
	s := buildFrom(t, `<a><b/><c/></a>`, dict, Options{})
	var buf bytes.Buffer
	if err := EncodeSidecar(&buf, s, dict, 7); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Every single-byte flip must be rejected (CRC) — as must any
	// truncation.
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, _, err := DecodeSidecar(bad, NewDict()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	for _, n := range []int{0, 1, len(good) / 2, len(good) - 1} {
		if _, _, err := DecodeSidecar(good[:n], NewDict()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncate to %d: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestSidecarWriteLoad(t *testing.T) {
	dict := NewDict()
	s := buildFrom(t, `<a><b/></a>`, dict, Options{})
	path := t.TempDir() + "/doc.xcs"
	if err := WriteSidecar(fault.OS, path, s, dict, 99); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSidecar(path, NewDict(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLabels() != s.NumLabels() {
		t.Fatalf("labels differ after write/load")
	}
	// A size mismatch marks the pairing stale: the sidecar describes a
	// different archive (e.g. a replacement crashed before the new
	// sidecar landed) and must be rejected, not trusted.
	if _, err := LoadSidecar(path, NewDict(), 100); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stale pairing: err = %v, want ErrCorrupt", err)
	}
	// Negative size skips the check (inspection tools).
	if _, err := LoadSidecar(path, NewDict(), -1); err != nil {
		t.Fatalf("size check not skipped: %v", err)
	}
	if _, err := LoadSidecar(t.TempDir()+"/missing.xcs", NewDict(), -1); err == nil {
		t.Fatal("loading a missing sidecar must fail")
	}
}

func TestSidecarPath(t *testing.T) {
	if got := SidecarPath("/x/doc.xca"); got != "/x/doc.xcs" {
		t.Fatalf("SidecarPath = %q", got)
	}
	if got := SidecarPath("/x/doc.other"); got != "/x/doc.other.xcs" {
		t.Fatalf("SidecarPath = %q", got)
	}
}

func TestIndex(t *testing.T) {
	x := NewIndex()
	s := buildFrom(t, `<a><b/></a>`, x.Dict(), Options{})
	x.Put("doc", s)
	if x.Get("doc") != s || x.Len() != 1 {
		t.Fatal("Put/Get failed")
	}
	x.Put("doc", nil) // nil removes
	if x.Get("doc") != nil || x.Len() != 0 {
		t.Fatal("nil Put must remove")
	}
	x.Put("doc", s)
	x.Remove("doc")
	if x.Get("doc") != nil {
		t.Fatal("Remove failed")
	}
	if x.MemBytes() < 0 {
		t.Fatal("MemBytes negative")
	}

	// A signature naming a label no indexed document contains resolves
	// unsatisfiable: synopsis-backed documents are pruned, and a nil
	// synopsis (unindexed document) still matches.
	prog, err := xpath.CompileQuery(`//nowhere`)
	if err != nil {
		t.Fatal(err)
	}
	rs := x.Resolve(prog.Sig)
	if rs == nil {
		t.Fatal("prunable signature resolved nil")
	}
	if s.CanMatch(rs) {
		t.Fatal("unsatisfiable group must prune indexed documents")
	}
	if !(*Synopsis)(nil).CanMatch(rs) {
		t.Fatal("nil synopsis must never be pruned")
	}
}
