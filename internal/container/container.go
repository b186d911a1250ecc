// Package container implements the storage-side separation the paper
// builds on (Section 1): the skeleton is kept as a compressed instance
// while all character data and attribute values are "extracted ... and
// stored in separate containers", as in the XMILL compressor the paper
// cites. Unlike the query skeleton (package skeleton), the archive
// skeleton also records text and attribute *occurrences* as leaf vertices,
// so the original document can be fully reconstructed: a depth-first
// traversal of the DAG replays each container's chunks in document order —
// exactly how XMILL decompression works.
//
// Containers are keyed by the enclosing tag, XMILL's default grouping:
// the text of every <name> element goes to container "/name", and the
// values of its attribute x to "/name/@x". Values of the same kind share
// a container wherever they occur, and all text occurrences under the
// same tag share a single skeleton vertex, so text positions cost almost
// nothing in skeleton size and the schema grows with the vocabulary, not
// with the number of distinct paths. Archives written when containers
// were keyed by the root-to-node path still decode: a leaf names its own
// container in its label.
package container

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"strings"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/saxml"
)

// Label-name prefixes used in archive skeletons. Element vertices reuse
// the query skeleton's "tag:" prefix so archives remain queryable.
const (
	tagPrefix  = "tag:"
	textPrefix = "text:"
	attrPrefix = "attr:"
)

// Archive is a fully reconstructable document: compressed skeleton plus
// text/attribute containers.
type Archive struct {
	// Skeleton is the compressed instance. Element vertices carry
	// "tag:<name>"; text occurrences are leaves labelled "text:/<tag>"
	// after their enclosing element's container; attributes are leaves
	// labelled "attr:<name>" and "text:/<tag>/@<name>" for their value
	// container. A leaf's "text:" suffix names its container, whatever
	// key layout wrote it.
	Skeleton *dag.Instance
	// Store holds the extracted strings.
	Store *Store
}

// Store is the set of value containers.
type Store struct {
	keys  []string
	index map[string]int
	data  [][]string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{index: make(map[string]int)}
}

// Append adds a chunk to the container named key, creating it on first
// use.
func (s *Store) Append(key, chunk string) {
	i := s.container(key)
	s.data[i] = append(s.data[i], chunk)
}

// AppendChunks adds a run of chunks to the container named key, creating
// it on first use. A new container keeps the slice itself, so a decoder
// can hand over chunks cut from one buffer without copying them.
func (s *Store) AppendChunks(key string, chunks []string) {
	i := s.container(key)
	if s.data[i] == nil {
		s.data[i] = chunks
		return
	}
	s.data[i] = append(s.data[i], chunks...)
}

// next returns the next unconsumed chunk of container ci and advances its
// cursor; key names the container in errors.
func (s *Store) next(ci int, cursors []int, key string) (string, error) {
	if ci < 0 {
		return "", fmt.Errorf("container: missing container %q", key)
	}
	if cursors[ci] >= len(s.data[ci]) {
		return "", fmt.Errorf("container: container %q exhausted", key)
	}
	chunk := s.data[ci][cursors[ci]]
	cursors[ci]++
	return chunk, nil
}

// container returns the index of the container named key, creating it.
func (s *Store) container(key string) int {
	i, ok := s.index[key]
	if !ok {
		i = len(s.keys)
		s.index[key] = i
		s.keys = append(s.keys, key)
		s.data = append(s.data, nil)
	}
	return i
}

// NumContainers returns how many distinct containers exist.
func (s *Store) NumContainers() int { return len(s.keys) }

// Keys returns the container names in first-use order.
func (s *Store) Keys() []string { return append([]string(nil), s.keys...) }

// Chunks returns the chunk sequence of a container, or nil.
func (s *Store) Chunks(key string) []string {
	if i, ok := s.index[key]; ok {
		return append([]string(nil), s.data[i]...)
	}
	return nil
}

// NumChunks returns the total number of stored chunks across all
// containers (every text occurrence and attribute value in the document).
func (s *Store) NumChunks() int {
	n := 0
	for _, c := range s.data {
		n += len(c)
	}
	return n
}

// TotalBytes returns the summed length of all stored chunks.
func (s *Store) TotalBytes() int {
	n := 0
	for _, c := range s.data {
		for _, chunk := range c {
			n += len(chunk)
		}
	}
	return n
}

// Split parses doc into an Archive: one linear scan builds the compressed
// skeleton (with text/attribute leaves) and fills the containers.
func Split(doc []byte) (*Archive, error) {
	h := &splitHandler{
		builder: dag.NewBuilder(nil),
		store:   NewStore(),
	}
	h.schema = h.builder.Schema()
	// Virtual document frame (matching package skeleton's model).
	h.stack = append(h.stack, splitFrame{})
	if err := saxml.Parse(doc, h); err != nil {
		return nil, err
	}
	root := h.builder.Add(nil, h.stack[0].children)
	h.builder.SetRoot(root)
	return &Archive{Skeleton: h.builder.Instance(), Store: h.store}, nil
}

type splitFrame struct {
	tag      string // "" for the document frame
	children []dag.VertexID
}

type splitHandler struct {
	builder *dag.Builder
	schema  *label.Schema
	store   *Store
	stack   []splitFrame
}

func (h *splitHandler) StartElement(name string, attrs []saxml.Attr) error {
	f := splitFrame{tag: name}
	// Attributes become leading leaf children in document order, with
	// values extracted to per-attribute containers.
	for _, a := range attrs {
		key := "/" + name + "/@" + a.Name
		var ls label.Set
		ls = ls.Set(h.schema.Intern(attrPrefix + a.Name))
		ls = ls.Set(h.schema.Intern(textPrefix + key))
		f.children = append(f.children, h.builder.Add(ls, nil))
		h.store.Append(key, a.Value)
	}
	h.stack = append(h.stack, f)
	return nil
}

func (h *splitHandler) EndElement(string) error {
	top := h.stack[len(h.stack)-1]
	h.stack = h.stack[:len(h.stack)-1]
	var ls label.Set
	ls = ls.Set(h.schema.Intern(tagPrefix + top.tag))
	id := h.builder.Add(ls, top.children)
	parent := &h.stack[len(h.stack)-1]
	parent.children = append(parent.children, id)
	return nil
}

func (h *splitHandler) Text(data []byte) error {
	top := &h.stack[len(h.stack)-1]
	if top.tag == "" {
		// Whitespace outside the root: dropped (not part of content).
		return nil
	}
	key := "/" + top.tag
	var ls label.Set
	ls = ls.Set(h.schema.Intern(textPrefix + key))
	top.children = append(top.children, h.builder.Add(ls, nil))
	h.store.Append(key, string(data))
	return nil
}

// vertexKind classifies an archive vertex by its labels.
type vertexKind int

const (
	kindElement vertexKind = iota
	kindText
	kindAttr
	kindDoc
)

type vertexInfo struct {
	kind vertexKind
	name string // tag name, container key, or attribute name
	key  string // attr value container key (kindAttr only)
	// cont indexes the container a text or attribute leaf consumes its
	// chunk from, resolved once per vertex; -1 when the archive has no
	// such container.
	cont int
}

// classify precomputes per-vertex reconstruction info. Each schema name
// is classified by prefix once; a vertex then combines the classes of its
// labels in ascending ID order.
func (a *Archive) classify() []vertexInfo {
	in := a.Skeleton
	kinds := make([]vertexKind, in.Schema.Len())
	suffixes := make([]string, in.Schema.Len())
	for id := range kinds {
		name := in.Schema.Name(label.ID(id))
		switch {
		case strings.HasPrefix(name, attrPrefix):
			kinds[id], suffixes[id] = kindAttr, name[len(attrPrefix):]
		case strings.HasPrefix(name, textPrefix):
			kinds[id], suffixes[id] = kindText, name[len(textPrefix):]
		case strings.HasPrefix(name, tagPrefix):
			kinds[id], suffixes[id] = kindElement, name[len(tagPrefix):]
		default:
			kinds[id] = kindDoc // not an archive label: ignored
		}
	}
	infos := make([]vertexInfo, len(in.Verts))
	for i := range in.Verts {
		info := vertexInfo{kind: kindDoc, cont: -1}
		for w, word := range in.Verts[i].Labels {
			for ; word != 0; word &= word - 1 {
				id := w*64 + bits.TrailingZeros64(word)
				switch suffix := suffixes[id]; kinds[id] {
				case kindAttr:
					info.kind = kindAttr
					info.name = suffix
				case kindText:
					if info.kind == kindAttr {
						info.key = suffix
					} else {
						info.kind = kindText
						info.name = suffix
					}
				case kindElement:
					if info.kind != kindAttr {
						info.kind = kindElement
					}
					if info.name == "" {
						info.name = suffix
					}
				}
			}
		}
		key := info.name
		if info.kind == kindAttr {
			key = info.key
		}
		if info.kind == kindText || info.kind == kindAttr {
			if ci, ok := a.Store.index[key]; ok {
				info.cont = ci
			}
		}
		infos[i] = info
	}
	return infos
}

// Reconstruct writes the document the archive represents. The output is
// canonically encoded (escaped text, double-quoted attributes, explicit
// end tags); it parses to the same element structure, attributes and
// character data as the original input. It is the archive's event replay
// (Events) rendered back to XML.
func (a *Archive) Reconstruct(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := a.Events(&xmlWriter{bw: bw}); err != nil {
		return err
	}
	return bw.Flush()
}

func escapeText(w *bufio.Writer, s string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			w.WriteString("&lt;")
		case '>':
			w.WriteString("&gt;")
		case '&':
			w.WriteString("&amp;")
		default:
			w.WriteByte(s[i])
		}
	}
}

func escapeAttr(w *bufio.Writer, s string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			w.WriteString("&lt;")
		case '&':
			w.WriteString("&amp;")
		case '"':
			w.WriteString("&quot;")
		default:
			w.WriteByte(s[i])
		}
	}
}
