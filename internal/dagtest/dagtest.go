// Package dagtest provides helpers shared by the test suites: building
// instances from a compact term syntax, generating random trees for
// property-based tests, and rendering reference-evaluator answers as
// result paths.
package dagtest

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/skeleton"
)

// FromTerm builds an uncompressed tree-instance from a term such as
//
//	"bib(book(title,author,author,author),paper(title,author),paper(title,author))"
//
// Each name becomes an element labelled with skeleton.TagLabel(name).
// Whitespace is ignored. FromTerm panics on malformed input (test helper).
func FromTerm(term string) *dag.Instance {
	p := &termParser{src: term}
	inst := &dag.Instance{Root: dag.NilVertex, Schema: label.NewSchema()}
	root := p.parse(inst)
	p.skipSpace()
	if p.pos != len(p.src) {
		panic(fmt.Sprintf("dagtest: trailing input at %d in %q", p.pos, term))
	}
	inst.Root = root
	return inst
}

// CompressedFromTerm is Compress(FromTerm(term)).
func CompressedFromTerm(term string) *dag.Instance {
	return dag.Compress(FromTerm(term))
}

type termParser struct {
	src string
	pos int
}

func (p *termParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\n' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *termParser) parse(inst *dag.Instance) dag.VertexID {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune("(), \n\t", rune(p.src[p.pos])) {
		p.pos++
	}
	name := p.src[start:p.pos]
	if name == "" {
		panic(fmt.Sprintf("dagtest: expected a name at %d in %q", p.pos, p.src))
	}
	var children []dag.VertexID
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			children = append(children, p.parse(inst))
			p.skipSpace()
			if p.pos >= len(p.src) {
				panic("dagtest: unterminated term")
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			panic(fmt.Sprintf("dagtest: unexpected %q at %d", p.src[p.pos], p.pos))
		}
	}
	var labels label.Set
	labels = labels.Set(inst.Schema.Intern(skeleton.TagLabel(name)))
	edges := make([]dag.Edge, len(children))
	for i, c := range children {
		edges[i] = dag.Edge{Child: c, Count: 1}
	}
	id := dag.VertexID(len(inst.Verts))
	inst.Verts = append(inst.Verts, dag.Vertex{Edges: edges, Labels: labels})
	return id
}

// RandomTree generates a random tree-instance with up to maxNodes nodes,
// fan-out up to maxFanout, and tags drawn from a pool of numTags names
// ("t0".."tN"). Small tag pools make subtree sharing likely, which is what
// the compression property tests need.
func RandomTree(r *rand.Rand, maxNodes, maxFanout, numTags int) *dag.Instance {
	inst := &dag.Instance{Root: dag.NilVertex, Schema: label.NewSchema()}
	budget := 1 + r.Intn(maxNodes)
	inst.Root = randomSubtree(r, inst, &budget, maxFanout, numTags)
	return inst
}

func randomSubtree(r *rand.Rand, inst *dag.Instance, budget *int, maxFanout, numTags int) dag.VertexID {
	*budget--
	var children []dag.VertexID
	if *budget > 0 {
		n := r.Intn(maxFanout + 1)
		for i := 0; i < n && *budget > 0; i++ {
			children = append(children, randomSubtree(r, inst, budget, maxFanout, numTags))
		}
	}
	var labels label.Set
	tag := fmt.Sprintf("t%d", r.Intn(numTags))
	labels = labels.Set(inst.Schema.Intern(skeleton.TagLabel(tag)))
	edges := make([]dag.Edge, len(children))
	for i, c := range children {
		edges[i] = dag.Edge{Child: c, Count: 1}
	}
	id := dag.VertexID(len(inst.Verts))
	inst.Verts = append(inst.Verts, dag.Vertex{Edges: edges, Labels: labels})
	return id
}

// RandomXML renders a random element tree as an XML document, with random
// short text interspersed, for parser and end-to-end differential tests.
func RandomXML(r *rand.Rand, maxNodes, maxFanout, numTags int) []byte {
	var sb strings.Builder
	budget := 1 + r.Intn(maxNodes)
	wordPool := []string{"alpha", "beta", "gamma", "delta", "veto", "xyz"}
	var emit func()
	emit = func() {
		budget--
		tag := fmt.Sprintf("t%d", r.Intn(numTags))
		sb.WriteString("<" + tag + ">")
		n := r.Intn(maxFanout + 1)
		for i := 0; i < n && budget > 0; i++ {
			if r.Intn(3) == 0 {
				sb.WriteString(wordPool[r.Intn(len(wordPool))])
			}
			emit()
		}
		if r.Intn(3) == 0 {
			sb.WriteString(wordPool[r.Intn(len(wordPool))])
		}
		sb.WriteString("</" + tag + ">")
	}
	emit()
	return []byte(sb.String())
}

// RandomQuery generates a random Core XPath query over the given tag and
// word pools, exercising every axis, nested predicates, and/or/not and
// string conditions. Suitable for differential testing against a reference
// evaluator.
func RandomQuery(r *rand.Rand, tags, words []string) string {
	var sb strings.Builder
	if r.Intn(2) == 0 {
		sb.WriteString("/")
	} else {
		sb.WriteString("//")
	}
	writePath(r, &sb, tags, words, 1+r.Intn(3), 2)
	return sb.String()
}

var forwardAxes = []string{
	"child", "child", "child", "descendant", "descendant-or-self",
	"self", "parent", "ancestor", "ancestor-or-self",
	"following-sibling", "preceding-sibling", "following", "preceding",
}

func writePath(r *rand.Rand, sb *strings.Builder, tags, words []string, steps, predDepth int) {
	for i := 0; i < steps; i++ {
		if i > 0 {
			if r.Intn(4) == 0 {
				sb.WriteString("//")
			} else {
				sb.WriteString("/")
			}
		}
		if r.Intn(3) == 0 {
			sb.WriteString(forwardAxes[r.Intn(len(forwardAxes))])
			sb.WriteString("::")
		}
		if r.Intn(4) == 0 {
			sb.WriteString("*")
		} else {
			sb.WriteString(tags[r.Intn(len(tags))])
		}
		if predDepth > 0 && r.Intn(3) == 0 {
			sb.WriteString("[")
			writeCond(r, sb, tags, words, predDepth-1)
			sb.WriteString("]")
		}
	}
}

func writeCond(r *rand.Rand, sb *strings.Builder, tags, words []string, predDepth int) {
	switch r.Intn(6) {
	case 0:
		sb.WriteString(fmt.Sprintf("%q", words[r.Intn(len(words))]))
	case 1:
		sb.WriteString("not(")
		writeCond(r, sb, tags, words, predDepth)
		sb.WriteString(")")
	case 2:
		writeCond(r, sb, tags, words, 0)
		sb.WriteString(" and ")
		writeCond(r, sb, tags, words, 0)
	case 3:
		writeCond(r, sb, tags, words, 0)
		sb.WriteString(" or ")
		writeCond(r, sb, tags, words, 0)
	default:
		writePath(r, sb, tags, words, 1+r.Intn(2), predDepth)
	}
}

// Expand returns a random instance equivalent to in but partially
// decompressed: it duplicates some shared vertices (splitting an
// equivalence class of the bisimilarity lattice), which must not change
// query semantics or equivalence class. in must be non-empty.
func Expand(r *rand.Rand, in *dag.Instance) *dag.Instance {
	out := in.Clone()
	// Repeat a few times: pick a vertex with in-degree >= 2 (or a
	// multiplicity >= 2 edge) and split one incoming reference onto a
	// fresh copy.
	for round := 0; round < 1+r.Intn(3); round++ {
		type ref struct {
			parent dag.VertexID
			edge   int
		}
		var refs []ref
		indeg := make(map[dag.VertexID]int)
		for p := range out.Verts {
			for ei, e := range out.Verts[p].Edges {
				indeg[e.Child] += int(e.Count)
				refs = append(refs, ref{dag.VertexID(p), ei})
			}
		}
		var candidates []ref
		for _, rf := range refs {
			e := out.Verts[rf.parent].Edges[rf.edge]
			if indeg[e.Child] >= 2 {
				candidates = append(candidates, rf)
			}
		}
		if len(candidates) == 0 {
			break
		}
		rf := candidates[r.Intn(len(candidates))]
		e := out.Verts[rf.parent].Edges[rf.edge]
		// Deep-copy the child vertex (shallow: shares grandchildren).
		nv := dag.Vertex{
			Edges:  append([]dag.Edge(nil), out.Verts[e.Child].Edges...),
			Labels: out.Verts[e.Child].Labels.Clone(),
		}
		nid := dag.VertexID(len(out.Verts))
		out.Verts = append(out.Verts, nv)
		if e.Count >= 2 {
			// Split the run: one occurrence moves to the copy. To keep
			// RLE normal form, insert the new single edge after the run.
			out.Verts[rf.parent].Edges[rf.edge].Count = e.Count - 1
			rest := append([]dag.Edge(nil), out.Verts[rf.parent].Edges[rf.edge+1:]...)
			out.Verts[rf.parent].Edges = append(out.Verts[rf.parent].Edges[:rf.edge+1],
				append([]dag.Edge{{Child: nid, Count: 1}}, rest...)...)
		} else {
			out.Verts[rf.parent].Edges[rf.edge].Child = nid
		}
	}
	return out
}

// BaselinePaths returns the tree addresses of the nodes set selects in
// t, in document order, in the format of dag.SelectedPaths: 1-based child
// positions joined with '.', with the virtual document node (node 0) at
// "". It turns the reference evaluator's answer into the form the
// compressed engine reports, so differential tests compare node
// identities, not just counts.
func BaselinePaths(t *baseline.Tree, set []bool) []string {
	addr := make([]string, t.NumNodes())
	for p, children := range t.Children {
		for i, c := range children {
			pos := strconv.Itoa(i + 1)
			if p == 0 {
				addr[c] = pos
			} else {
				addr[c] = addr[p] + "." + pos
			}
		}
	}
	var out []string
	for n, in := range set {
		if in {
			out = append(out, addr[n])
		}
	}
	return out
}
