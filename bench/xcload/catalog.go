package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/xpath"
)

// maxPaths is the server's default cap on result addresses per response.
const maxPaths = 100

// answer is the oracle for one (document content, query) pair: the
// match count and the first maxPaths tree addresses in document order.
type answer struct {
	matches uint64
	paths   []string
}

// document is one catalog name with its content versions. Read-only
// workloads have exactly one version.
type document struct {
	name    string
	corpus  int      // index into catalog.corpora
	queries []int    // point-query indexes used on this document
	xml     [][]byte // [version]
	// oracle[version][ci][q] answers query q of catalog corpus ci on
	// that version. Fan-out workloads fill every corpus (a catalog-wide
	// query meets every document); point-only workloads just the
	// document's own.
	oracle [][][5]answer
}

// catalog is a workload's generated input: documents in name order and
// the corpora whose queries the ops use.
type catalog struct {
	corpora []corpus.Corpus
	docs    []document // sorted by name, the store's catalog order
}

// docSeed derives a generator seed from the run seed, the document's
// position in the workload and its content version.
func docSeed(seed uint64, idx, version int) uint64 {
	return seed<<24 + uint64(idx)<<8 + uint64(version)
}

func scaled(base int, mul float64) int {
	n := int(float64(base) * mul)
	if n < 1 {
		n = 1
	}
	return n
}

// buildCatalog generates every document version of w from seed and
// computes the oracle answers from the raw XML with the uncompressed
// baseline evaluator, which shares no evaluation code with the served
// path.
func buildCatalog(w *workload, seed uint64) (*catalog, error) {
	cat := &catalog{}
	versions := 1
	if w.ingest {
		versions = w.variants
	}
	if w.fixedCorpus {
		seed = corpusSeed
	}
	idx := 0
	for _, ds := range w.docs {
		c, err := corpus.ByName(ds.corpus)
		if err != nil {
			return nil, err
		}
		ci := len(cat.corpora)
		cat.corpora = append(cat.corpora, c)
		for i := 0; i < ds.count; i++ {
			d := document{
				name:    fmt.Sprintf("%s%03d", strings.ToLower(c.Name), i),
				corpus:  ci,
				queries: ds.queries,
			}
			for v := 0; v < versions; v++ {
				d.xml = append(d.xml, c.Generate(scaled(c.DefaultScale, ds.mul), docSeed(seed, idx, v)))
			}
			cat.docs = append(cat.docs, d)
			idx++
		}
	}
	sort.Slice(cat.docs, func(i, j int) bool { return cat.docs[i].name < cat.docs[j].name })

	progs := make([][5]*xpath.Program, len(cat.corpora))
	var patterns []string
	seen := map[string]bool{}
	for ci, c := range cat.corpora {
		for q, text := range c.Queries {
			p, err := xpath.CompileQuery(text)
			if err != nil {
				return nil, fmt.Errorf("compiling %s Q%d: %w", c.Name, q+1, err)
			}
			progs[ci][q] = p
			for _, s := range p.Strings {
				if !seen[s] {
					seen[s] = true
					patterns = append(patterns, s)
				}
			}
		}
	}
	for di := range cat.docs {
		d := &cat.docs[di]
		d.oracle = make([][][5]answer, len(d.xml))
		for v, xml := range d.xml {
			t, err := baseline.Build(xml, patterns)
			if err != nil {
				return nil, fmt.Errorf("oracle: parsing %s v%d: %w", d.name, v, err)
			}
			pos := childPositions(t)
			d.oracle[v] = make([][5]answer, len(cat.corpora))
			for ci := range cat.corpora {
				if ci != d.corpus && !w.fanout {
					continue
				}
				for q, p := range progs[ci] {
					set, err := baseline.Eval(t, p)
					if err != nil {
						return nil, fmt.Errorf("oracle: %s on %s Q%d: %w", d.name, cat.corpora[ci].Name, q+1, err)
					}
					d.oracle[v][ci][q] = answerOf(t, pos, set)
				}
			}
		}
	}
	return cat, nil
}

// childPositions returns each node's 1-based position among its
// siblings.
func childPositions(t *baseline.Tree) []int32 {
	pos := make([]int32, t.NumNodes())
	for _, kids := range t.Children {
		for i, k := range kids {
			pos[k] = int32(i + 1)
		}
	}
	return pos
}

// answerOf turns a baseline result set into the served form: the count
// and the first maxPaths addresses (child positions from the document
// node joined with '.', the document node itself being "").
func answerOf(t *baseline.Tree, pos []int32, set []bool) answer {
	a := answer{paths: []string{}}
	var steps []string
	for n, sel := range set {
		if !sel {
			continue
		}
		a.matches++
		if len(a.paths) >= maxPaths {
			continue
		}
		steps = steps[:0]
		for m := int32(n); m != 0; m = t.Parent[m] {
			steps = append(steps, strconv.Itoa(int(pos[m])))
		}
		for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
			steps[i], steps[j] = steps[j], steps[i]
		}
		a.paths = append(a.paths, strings.Join(steps, "."))
	}
	return a
}

// xmlBytes sums the raw XML size of the catalog at the given versions
// (nil = version 0 everywhere).
func (c *catalog) xmlBytes(versions []int) int64 {
	var n int64
	for i := range c.docs {
		v := 0
		if versions != nil {
			v = versions[i]
		}
		n += int64(len(c.docs[i].xml[v]))
	}
	return n
}
