package strmatch_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/strmatch"
)

func TestSinglePattern(t *testing.T) {
	ms := strmatch.FindAll([]string{"abc"}, []byte("xxabcyyabc"))
	if len(ms) != 2 {
		t.Fatalf("matches = %v", ms)
	}
	if ms[0].Start != 2 || ms[0].End != 5 || ms[1].Start != 7 || ms[1].End != 10 {
		t.Fatalf("offsets wrong: %v", ms)
	}
}

func TestOverlappingPatterns(t *testing.T) {
	ms := strmatch.FindAll([]string{"aa"}, []byte("aaaa"))
	if len(ms) != 3 {
		t.Fatalf("overlapping matches = %v, want 3", ms)
	}
}

func TestMultiplePatternsSharedSuffix(t *testing.T) {
	// "he", "she", "his", "hers" — the classic Aho-Corasick example.
	ms := strmatch.FindAll([]string{"he", "she", "his", "hers"}, []byte("ushers"))
	got := map[int]int{}
	for _, m := range ms {
		got[m.Pattern]++
	}
	// "ushers" contains "she" (1..4), "he" (2..4), "hers" (2..6).
	if got[0] != 1 || got[1] != 1 || got[3] != 1 || got[2] != 0 {
		t.Fatalf("matches = %v", ms)
	}
}

func TestChunkBoundarySpanning(t *testing.T) {
	a := strmatch.New([]string{"hello world"})
	var ms []strmatch.Match
	emit := func(m strmatch.Match) { ms = append(ms, m) }
	a.Feed([]byte("say hel"), emit)
	a.Feed([]byte("lo wor"), emit)
	a.Feed([]byte("ld now"), emit)
	if len(ms) != 1 {
		t.Fatalf("matches = %v, want 1 spanning chunks", ms)
	}
	if ms[0].Start != 4 || ms[0].End != 15 {
		t.Fatalf("span = [%d,%d), want [4,15)", ms[0].Start, ms[0].End)
	}
}

func TestReset(t *testing.T) {
	a := strmatch.New([]string{"ab"})
	n := 0
	a.Feed([]byte("a"), nil)
	a.Reset()
	a.Feed([]byte("b"), func(strmatch.Match) { n++ })
	if n != 0 {
		t.Fatal("state leaked across Reset")
	}
	if a.Offset() != 1 {
		t.Fatalf("offset = %d after reset+feed", a.Offset())
	}
}

func TestNoPatterns(t *testing.T) {
	a := strmatch.New(nil)
	a.Feed([]byte("anything"), func(strmatch.Match) { t.Fatal("no patterns must not match") })
	if a.Offset() != 8 {
		t.Fatalf("offset = %d", a.Offset())
	}
}

func TestEmptyPatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty pattern")
		}
	}()
	strmatch.New([]string{""})
}

func TestDuplicatePatterns(t *testing.T) {
	ms := strmatch.FindAll([]string{"x", "x"}, []byte("x"))
	if len(ms) != 2 {
		t.Fatalf("duplicate patterns should both report: %v", ms)
	}
}

// TestPropertyAgainstStringsCount cross-checks match counts against a
// naive strings.Index scan, with random chunking of the input.
func TestPropertyAgainstStringsCount(t *testing.T) {
	alphabet := "abcb"
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random text and patterns over a tiny alphabet to force matches.
		text := make([]byte, 5+r.Intn(200))
		for i := range text {
			text[i] = alphabet[r.Intn(len(alphabet))]
		}
		var patterns []string
		for i := 0; i < 1+r.Intn(3); i++ {
			n := 1 + r.Intn(4)
			p := make([]byte, n)
			for j := range p {
				p[j] = alphabet[r.Intn(len(alphabet))]
			}
			patterns = append(patterns, string(p))
		}

		a := strmatch.New(patterns)
		got := make([]int, len(patterns))
		emit := func(m strmatch.Match) {
			got[m.Pattern]++
			// Verify the reported span.
			if string(text[m.Start:m.End]) != patterns[m.Pattern] {
				t.Logf("bad span %v for pattern %q", m, patterns[m.Pattern])
				got[m.Pattern] = -1 << 20
			}
		}
		// Feed in random chunks, mixing byte-slice and string chunks: the
		// automaton state must carry across both entry points.
		for pos := 0; pos < len(text); {
			n := 1 + r.Intn(7)
			if pos+n > len(text) {
				n = len(text) - pos
			}
			if r.Intn(2) == 0 {
				a.Feed(text[pos:pos+n], emit)
			} else {
				a.FeedString(string(text[pos:pos+n]), emit)
			}
			pos += n
		}

		for pi, p := range patterns {
			want := countOccurrences(string(text), p)
			if got[pi] != want {
				t.Logf("pattern %q in %q: got %d, want %d", p, text, got[pi], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// countOccurrences counts overlapping occurrences.
func countOccurrences(s, p string) int {
	n := 0
	for i := 0; i+len(p) <= len(s); i++ {
		if strings.HasPrefix(s[i:], p) {
			n++
		}
	}
	return n
}
