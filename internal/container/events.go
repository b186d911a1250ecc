package container

import (
	"bufio"
	"fmt"

	"repro/internal/dag"
	"repro/internal/saxml"
)

// Events replays the archive as the SAX event stream of the document it
// represents: one document-order traversal of the skeleton DAG, expanding
// shared vertices and pulling character data and attribute values from the
// containers, with no XML text ever materialised. The events — element
// boundaries, attributes, and entity-decoded character data chunks — match
// what saxml.Parse emits for the archived document, except that whitespace
// outside the root element is not replayed (Split drops it).
//
// Reconstruct and ExtractSubtree are this traversal driven into an XML
// writer. It is also the reference the serving path is tested against:
// skeleton.BuildCompressedFrom over Events builds, by full replay, the
// instances TagSkeleton and DistillStrings derive directly.
func (a *Archive) Events(h saxml.Handler) error {
	if a.Skeleton.Root == dag.NilVertex {
		return nil
	}
	return a.replay(a.Skeleton.Root, a.classify(), make([]int, a.Store.NumContainers()), h)
}

// replay walks the subtree DAG at v in document order, emitting SAX
// events. cursors holds, per container index, how many chunks were
// consumed before this subtree: each text or attribute occurrence
// consumes the next chunk of its container, exactly as the values were
// appended by Split.
func (a *Archive) replay(v dag.VertexID, infos []vertexInfo, cursors []int, h saxml.Handler) error {
	in := a.Skeleton
	var walk func(v dag.VertexID) error
	walk = func(v dag.VertexID) error {
		info := infos[v]
		switch info.kind {
		case kindDoc:
			for _, e := range in.Verts[v].Edges {
				for i := uint32(0); i < e.Count; i++ {
					if err := walk(e.Child); err != nil {
						return err
					}
				}
			}
			return nil
		case kindText:
			chunk, err := a.Store.next(info.cont, cursors, info.name)
			if err != nil {
				return err
			}
			return h.Text([]byte(chunk))
		case kindAttr:
			return fmt.Errorf("container: attribute vertex outside start tag")
		}
		// Element: leading kindAttr children become the start tag's
		// attributes; the rest of the children are content.
		edges := in.Verts[v].Edges
		var attrs []saxml.Attr
		nAttrs := 0
	attrLoop:
		for _, e := range edges {
			for i := uint32(0); i < e.Count; i++ {
				if infos[e.Child].kind != kindAttr {
					break attrLoop
				}
				val, err := a.Store.next(infos[e.Child].cont, cursors, infos[e.Child].key)
				if err != nil {
					return err
				}
				attrs = append(attrs, saxml.Attr{Name: infos[e.Child].name, Value: val})
				nAttrs++
			}
		}
		if err := h.StartElement(info.name, attrs); err != nil {
			return err
		}
		skipped := 0
		for _, e := range edges {
			for i := uint32(0); i < e.Count; i++ {
				if skipped < nAttrs {
					skipped++
					continue
				}
				if err := walk(e.Child); err != nil {
					return err
				}
			}
		}
		return h.EndElement(info.name)
	}
	return walk(v)
}

// xmlWriter is the saxml.Handler that renders an event stream back to
// canonically encoded XML (escaped text, double-quoted attributes,
// explicit end tags). Driving replay into it is exactly XMILL-style
// decompression.
type xmlWriter struct {
	bw *bufio.Writer
}

func (w *xmlWriter) StartElement(name string, attrs []saxml.Attr) error {
	w.bw.WriteByte('<')
	w.bw.WriteString(name)
	for _, a := range attrs {
		w.bw.WriteByte(' ')
		w.bw.WriteString(a.Name)
		w.bw.WriteString(`="`)
		escapeAttr(w.bw, a.Value)
		w.bw.WriteByte('"')
	}
	w.bw.WriteByte('>')
	return nil
}

func (w *xmlWriter) EndElement(name string) error {
	w.bw.WriteString("</")
	w.bw.WriteString(name)
	w.bw.WriteByte('>')
	return nil
}

func (w *xmlWriter) Text(data []byte) error {
	escapeText(w.bw, string(data))
	return nil
}
