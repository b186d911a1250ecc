package container_test

import (
	"bytes"
	"encoding/xml"
	"io"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/corpus"
)

// tagKeys lists the container keys XMILL's grouping gives doc, read with
// encoding/xml: "/<tag>" for every tag with character data directly
// inside it, "/<tag>/@<attr>" for every attribute of it.
func tagKeys(t *testing.T, doc []byte) []string {
	t.Helper()
	keys := make(map[string]bool)
	var open []string
	dec := xml.NewDecoder(bytes.NewReader(doc))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			open = append(open, tok.Name.Local)
			for _, a := range tok.Attr {
				keys["/"+tok.Name.Local+"/@"+a.Name.Local] = true
			}
		case xml.EndElement:
			open = open[:len(open)-1]
		case xml.CharData:
			if len(open) > 0 && len(tok) > 0 {
				keys["/"+open[len(open)-1]] = true
			}
		}
	}
	out := make([]string, 0, len(keys))
	for k := range keys {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestContainersAreTagKeyed checks that every corpus document, and one
// with attributes and a tag at several paths, gets exactly one container
// per enclosing tag or tag attribute that holds values.
func TestContainersAreTagKeyed(t *testing.T) {
	docs := map[string][]byte{
		"attrs": []byte(`<r x="1"><a k="2">p<b k="3">q</b></a><b>s<a>t</a></b><c/></r>`),
	}
	for _, c := range corpus.Catalog() {
		docs[c.Name] = c.Generate(3, 1)
	}
	for name, doc := range docs {
		a, err := container.Split(doc)
		if err != nil {
			t.Fatal(err)
		}
		got := a.Store.Keys()
		slices.Sort(got)
		want := tagKeys(t, doc)
		if a.Store.NumContainers() != len(want) || !slices.Equal(got, want) {
			t.Errorf("%s: %d containers %q, want %d %q", name, a.Store.NumContainers(), got, len(want), want)
		}
	}
}

// TestTreeBankArchiveCompresses is the compression gate on recursive
// data: TreeBank at a quarter of its default scale repeats few tags at
// many distinct paths, and its encoded archive must be smaller than its
// XML.
func TestTreeBankArchiveCompresses(t *testing.T) {
	for _, c := range corpus.Catalog() {
		if c.Name != "TreeBank" {
			continue
		}
		doc := c.Generate(c.DefaultScale/4, 1)
		a, err := container.Split(doc)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := codec.EncodeArchive(&b, a); err != nil {
			t.Fatal(err)
		}
		t.Logf("TreeBank: %d bytes of XML, archive %d bytes (%.3fx), %d containers",
			len(doc), b.Len(), float64(b.Len())/float64(len(doc)), a.Store.NumContainers())
		if b.Len() >= len(doc) {
			t.Fatalf("archive is %d bytes for %d bytes of XML", b.Len(), len(doc))
		}
		if got, want := a.Store.NumContainers(), len(tagKeys(t, doc)); got != want {
			t.Fatalf("%d containers, want %d", got, want)
		}
	}
}
