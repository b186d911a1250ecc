// Package strmatch implements multi-pattern substring search with an
// Aho–Corasick automaton. The query engine threads one automaton through a
// document's character data in document order ("string constraints are
// matched to nodes on the stack on the fly during parsing using
// automata-based techniques", Section 4 of the paper): whenever a pattern
// match ends, every element whose text span contains the whole match gets
// the pattern's label.
//
// Because the automaton state persists across Feed calls, matches that span
// chunk boundaries — e.g. text interrupted by a CDATA section, or the
// concatenated string value of an element with several text-bearing
// descendants — are found with their correct global start offsets.
package strmatch

// Match reports that pattern Pattern (by registration index) occurs in the
// global text stream at byte offsets [Start, End).
type Match struct {
	Pattern int
	Start   int64
	End     int64
}

// Automaton is an Aho–Corasick pattern matcher. Build one with New, then
// stream text through Feed. The zero pattern set is valid: Feed does
// nothing.
type Automaton struct {
	patterns []string
	// Trie in dense form.
	next [][256]int32 // next[state][byte] = goto (with failure links folded in)
	out  [][]int32    // out[state] = patterns ending at state
	plen []int32      // pattern lengths, indexed by pattern
	// Streaming state.
	state  int32
	offset int64
}

// New compiles an automaton over the given patterns. Empty patterns are
// rejected by panicking (they would match everywhere and indicate a caller
// bug). Duplicate patterns each report their own index.
func New(patterns []string) *Automaton {
	for _, p := range patterns {
		if p == "" {
			panic("strmatch: empty pattern")
		}
	}
	a := &Automaton{patterns: append([]string(nil), patterns...)}
	a.plen = make([]int32, len(patterns))
	for i, p := range patterns {
		a.plen[i] = int32(len(p))
	}
	a.build()
	return a
}

// NumPatterns returns how many patterns the automaton searches for.
func (a *Automaton) NumPatterns() int { return len(a.patterns) }

// Pattern returns the i-th registered pattern.
func (a *Automaton) Pattern(i int) string { return a.patterns[i] }

func (a *Automaton) build() {
	// State 0 is the root. In the raw trie a zero transition means
	// "absent": no edge ever points back to the root because trie states
	// are allocated append-only starting at 1.
	a.out = append(a.out, nil)
	goto_ := [][256]int32{{}}
	// Build the raw trie.
	for pi, p := range a.patterns {
		s := int32(0)
		for i := 0; i < len(p); i++ {
			b := p[i]
			if goto_[s][b] == 0 {
				goto_ = append(goto_, [256]int32{})
				a.out = append(a.out, nil)
				goto_[s][b] = int32(len(goto_) - 1)
			}
			s = goto_[s][b]
		}
		a.out[s] = append(a.out[s], int32(pi))
	}
	// BFS to compute failure links and fold them into the transition table.
	n := len(goto_)
	fail := make([]int32, n)
	a.next = make([][256]int32, n)
	queue := make([]int32, 0, n)
	for c := 0; c < 256; c++ {
		if s := goto_[0][c]; s != 0 {
			fail[s] = 0
			a.next[0][c] = s
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		a.out[s] = append(a.out[s], a.out[fail[s]]...)
		for c := 0; c < 256; c++ {
			t := goto_[s][c]
			if t != 0 {
				fail[t] = a.next[fail[s]][c]
				a.next[s][c] = t
				queue = append(queue, t)
			} else {
				a.next[s][c] = a.next[fail[s]][c]
			}
		}
	}
}

// Reset rewinds the automaton to its initial state and offset 0, allowing
// reuse across documents.
func (a *Automaton) Reset() {
	a.state = 0
	a.offset = 0
}

// Offset returns the number of text bytes consumed so far.
func (a *Automaton) Offset() int64 { return a.offset }

// Feed consumes a chunk of the text stream, invoking emit for every pattern
// occurrence that ends inside the chunk. emit may be nil when only offset
// accounting is wanted.
func (a *Automaton) Feed(chunk []byte, emit func(Match)) { feed(a, chunk, emit) }

// FeedString is Feed over a string chunk, without copying it — how
// archive container chunks, which are held as strings, reach the matcher.
func (a *Automaton) FeedString(chunk string, emit func(Match)) { feed(a, chunk, emit) }

func feed[T string | []byte](a *Automaton, chunk T, emit func(Match)) {
	if len(a.patterns) == 0 {
		a.offset += int64(len(chunk))
		return
	}
	s := a.state
	for i := 0; i < len(chunk); i++ {
		s = a.next[s][chunk[i]]
		if outs := a.out[s]; len(outs) != 0 && emit != nil {
			end := a.offset + int64(i) + 1
			for _, pi := range outs {
				emit(Match{Pattern: int(pi), Start: end - int64(a.plen[pi]), End: end})
			}
		}
	}
	a.state = s
	a.offset += int64(len(chunk))
}

// FindAll is a convenience for tests: it returns all matches of the
// patterns in one self-contained text.
func FindAll(patterns []string, text []byte) []Match {
	a := New(patterns)
	var out []Match
	a.Feed(text, func(m Match) { out = append(out, m) })
	return out
}
