package container

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/skeleton"
	"repro/internal/strmatch"
)

// TagSkeleton derives the full-tag query skeleton from the archive DAG:
// the instance skeleton.BuildCompressedFrom(a.Events, TagsAll) builds by
// replaying every event, made instead in one memoised bottom-up pass over
// the archive's vertices. Text and attribute leaves are dropped, element
// vertices take their "tag:" label, runs that become equal are merged,
// and the result is re-minimised through a dag.Builder — so the work is
// proportional to the compressed skeleton, not to the document. Vertex
// and label numbering match the replay construction's.
func (a *Archive) TagSkeleton() (*dag.Instance, error) {
	b := dag.NewBuilder(nil)
	if a.Skeleton.Root == dag.NilVertex {
		b.SetRoot(b.Add(nil, nil))
		return b.Instance(), nil
	}
	infos, err := a.shape()
	if err != nil {
		return nil, err
	}
	tags := make(map[string]label.Set)
	im := newImager(a.Skeleton, infos, b, func(v dag.VertexID) label.Set {
		if infos[v].kind != kindElement {
			return nil // the document vertex
		}
		// Interned on first visit, which is the tag's first start tag in
		// document order — the replay's interning order.
		name := infos[v].name
		ls, ok := tags[name]
		if !ok {
			ls = label.Set(nil).Set(b.Schema().Intern(skeleton.TagLabel(name)))
			tags[name] = ls
		}
		return ls
	})
	b.SetRoot(im.image(a.Skeleton.Root))
	return b.Instance(), nil
}

// DistillStrings builds the compressed instance over just the given
// string conditions — what skeleton.BuildCompressedFrom(a.Events,
// {Mode: TagsNone, Strings: patterns}) builds by full replay — in one
// direct document-order walk of the archive DAG. Per-container cursors
// hand each text occurrence its chunk, which goes to the Aho–Corasick
// automaton uncopied; matches mark open elements by skeleton's frame rule.
//
// Only element occurrences whose text span holds a match are hash-consed.
// An unmarked element cannot have a marked descendant (the descendant's
// span lies inside its own), so every unmarked occurrence is the
// memoised structure-only image of its archive vertex, and a subtree
// without text is never walked at all. Vertex and label numbering match
// the replay construction's.
func (a *Archive) DistillStrings(patterns []string) (*dag.Instance, error) {
	b := dag.NewBuilder(nil)
	strIDs := make([]label.ID, len(patterns))
	for i, p := range patterns {
		strIDs[i] = b.Schema().Intern(skeleton.StringLabel(p))
	}
	if a.Skeleton.Root == dag.NilVertex {
		b.SetRoot(b.Add(nil, nil))
		return b.Instance(), nil
	}
	infos, err := a.shape()
	if err != nil {
		return nil, err
	}
	d := &distiller{
		in:      a.Skeleton,
		infos:   infos,
		store:   a.Store,
		cursors: make([]int, a.Store.NumContainers()),
		ac:      strmatch.New(patterns),
		strIDs:  strIDs,
		b:       b,
		plain:   newImager(a.Skeleton, infos, b, nil),
		text:    make([]int8, len(infos)),
	}
	d.emit = d.mark
	d.push()
	if err := d.content(a.Skeleton.Verts[a.Skeleton.Root].Edges); err != nil {
		return nil, err
	}
	b.SetRoot(b.AddEdges(d.frames[0].labels, d.kids))
	return b.Instance(), nil
}

// shape classifies the archive's vertices and checks the layout Split
// produces, which the direct derivations rely on: the root and only the
// root is a document vertex, attribute leaves come only as the leading
// children of an element, and no vertex has more than MaxUint32
// children, so merging runs cannot overflow a count.
func (a *Archive) shape() ([]vertexInfo, error) {
	in := a.Skeleton
	infos := a.classify()
	if infos[in.Root].kind != kindDoc {
		return nil, fmt.Errorf("container: archive root is not a document vertex")
	}
	for v := range in.Verts {
		kind := infos[v].kind
		if kind == kindText || kind == kindAttr {
			continue
		}
		leading := kind == kindElement
		var children uint64
		for _, e := range in.Verts[v].Edges {
			children += uint64(e.Count)
			switch infos[e.Child].kind {
			case kindDoc:
				return nil, fmt.Errorf("container: document vertex below the root")
			case kindAttr:
				if !leading {
					return nil, fmt.Errorf("container: attribute vertex outside start tag")
				}
			default:
				leading = false
			}
		}
		if children > math.MaxUint32 {
			return nil, fmt.Errorf("container: vertex %d has %d children", v, children)
		}
	}
	return infos, nil
}

// appendRun appends count occurrences of child to the run-length-encoded
// child list kids[base:], merging with its last run when the child is the
// same.
func appendRun(kids []dag.Edge, base int, child dag.VertexID, count uint32) []dag.Edge {
	if n := len(kids); n > base && kids[n-1].Child == child {
		kids[n-1].Count += count
		return kids
	}
	return append(kids, dag.Edge{Child: child, Count: count})
}

// imager maps archive element vertices to their element-only images in a
// builder, each archive vertex once: text and attribute leaves are
// dropped and adjacent runs whose images coincide are merged.
type imager struct {
	in     *dag.Instance
	infos  []vertexInfo
	b      *dag.Builder
	labels func(dag.VertexID) label.Set // an image's labels; nil for none
	memo   []dag.VertexID               // image ID + 1; 0 while unimaged
	kids   []dag.Edge                   // child-run stack shared by nested images
}

func newImager(in *dag.Instance, infos []vertexInfo, b *dag.Builder, labels func(dag.VertexID) label.Set) *imager {
	return &imager{in: in, infos: infos, b: b, labels: labels, memo: make([]dag.VertexID, len(in.Verts))}
}

func (m *imager) image(v dag.VertexID) dag.VertexID {
	if id := m.memo[v]; id != 0 {
		return id - 1
	}
	var ls label.Set
	if m.labels != nil {
		ls = m.labels(v)
	}
	base := len(m.kids)
	for _, e := range m.in.Verts[v].Edges {
		if m.infos[e.Child].kind == kindElement {
			m.kids = appendRun(m.kids, base, m.image(e.Child), e.Count)
		}
	}
	id := m.b.AddEdges(ls, m.kids[base:])
	m.kids = m.kids[:base]
	m.memo[v] = id + 1
	return id
}

// distiller is DistillStrings' walk state.
type distiller struct {
	in      *dag.Instance
	infos   []vertexInfo
	store   *Store
	cursors []int // per container: chunks consumed so far
	ac      *strmatch.Automaton
	emit    func(strmatch.Match)
	strIDs  []label.ID // pattern index -> label
	b       *dag.Builder
	plain   *imager // structure-only images of unmarked elements
	text    []int8  // per vertex: 0 unknown, 1 its subtree holds text, 2 not
	frames  []frame // open elements, the document at the bottom
	kids    []dag.Edge
}

// frame is one open element occurrence.
type frame struct {
	start  int64     // automaton offset when the element opened
	labels label.Set // string conditions matched inside its text span
	kids   int       // where its child runs begin in distiller.kids
}

// push opens a frame, reusing the label storage of the slot it lands in.
func (d *distiller) push() {
	n := len(d.frames)
	if n == cap(d.frames) {
		d.frames = append(d.frames, frame{})
	}
	d.frames = d.frames[:n+1]
	f := &d.frames[n]
	f.start, f.labels, f.kids = d.ac.Offset(), f.labels[:0], len(d.kids)
}

// content walks one run list of the open element in document order.
func (d *distiller) content(runs []dag.Edge) error {
	base := d.frames[len(d.frames)-1].kids
	for _, e := range runs {
		c := e.Child
		switch d.infos[c].kind {
		case kindText:
			for i := uint32(0); i < e.Count; i++ {
				chunk, err := d.store.next(d.infos[c].cont, d.cursors, d.infos[c].name)
				if err != nil {
					return err
				}
				d.ac.FeedString(chunk, d.emit)
			}
		case kindElement:
			if !d.hasText(c) {
				d.kids = appendRun(d.kids, base, d.plain.image(c), e.Count)
				continue
			}
			for i := uint32(0); i < e.Count; i++ {
				id, err := d.element(c)
				if err != nil {
					return err
				}
				d.kids = appendRun(d.kids, base, id, 1)
			}
		}
	}
	return nil
}

// element walks one occurrence of the text-bearing element v and returns
// its vertex.
func (d *distiller) element(v dag.VertexID) (dag.VertexID, error) {
	d.push()
	if err := d.content(d.in.Verts[v].Edges); err != nil {
		return 0, err
	}
	f := &d.frames[len(d.frames)-1]
	var id dag.VertexID
	if len(f.labels) == 0 {
		id = d.plain.image(v)
	} else {
		id = d.b.AddEdges(f.labels, d.kids[f.kids:])
	}
	d.kids = d.kids[:f.kids]
	d.frames = d.frames[:len(d.frames)-1]
	return id, nil
}

// mark records match m on every open element whose text span contains
// it — skeleton's frame rule: spans start later towards the top of the
// stack, so the qualifying frames are a prefix from the bottom, and a
// frame already holding the label has every frame below holding it too.
func (d *distiller) mark(m strmatch.Match) {
	id := d.strIDs[m.Pattern]
	for i := len(d.frames) - 1; i >= 0; i-- {
		f := &d.frames[i]
		if f.start > m.Start {
			continue
		}
		if f.labels.Has(id) {
			break
		}
		f.labels = f.labels.Set(id)
	}
}

// hasText reports whether any text occurrence lies below v.
func (d *distiller) hasText(v dag.VertexID) bool {
	if t := d.text[v]; t != 0 {
		return t == 1
	}
	has := false
	for _, e := range d.in.Verts[v].Edges {
		switch d.infos[e.Child].kind {
		case kindText:
			has = true
		case kindElement:
			has = d.hasText(e.Child)
		}
		if has {
			break
		}
	}
	d.text[v] = 2
	if has {
		d.text[v] = 1
	}
	return has
}
