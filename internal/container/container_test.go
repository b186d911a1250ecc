package container_test

import (
	"bytes"
	"encoding/xml"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/container"
	"repro/internal/dagtest"
)

// canonical parses a document with encoding/xml into a comparable trace of
// structure, attributes, and character data, merging adjacent text.
func canonical(t *testing.T, doc []byte) string {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(doc))
	var sb strings.Builder
	pendingText := ""
	flush := func() {
		if pendingText != "" {
			sb.WriteString("#" + pendingText + "|")
			pendingText = ""
		}
	}
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("canonical parse: %v\n%s", err, doc)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			flush()
			sb.WriteString("<" + tok.Name.Local)
			for _, a := range tok.Attr {
				sb.WriteString(" " + a.Name.Local + "=" + a.Value)
			}
			sb.WriteString(">|")
			depth++
		case xml.EndElement:
			flush()
			sb.WriteString("</" + tok.Name.Local + ">|")
			depth--
		case xml.CharData:
			if depth > 0 {
				pendingText += string(tok)
			}
		}
	}
	return sb.String()
}

func roundTrip(t *testing.T, doc []byte) []byte {
	t.Helper()
	a, err := container.Split(doc)
	if err != nil {
		t.Fatalf("Split: %v\n%s", err, doc)
	}
	if err := a.Skeleton.Validate(); err != nil {
		t.Fatalf("skeleton invalid: %v", err)
	}
	var out bytes.Buffer
	if err := a.Reconstruct(&out); err != nil {
		t.Fatalf("Reconstruct: %v\n%s", err, doc)
	}
	return out.Bytes()
}

func TestRoundTripSimple(t *testing.T) {
	doc := []byte(`<bib><book year="1995"><title>Foundations</title><author>Abiteboul</author></book><paper><title>Models</title></paper></bib>`)
	got := roundTrip(t, doc)
	if canonical(t, got) != canonical(t, doc) {
		t.Fatalf("round trip mismatch:\n in: %s\nout: %s", doc, got)
	}
}

func TestRoundTripMixedContent(t *testing.T) {
	doc := []byte(`<p>before <b>bold</b> middle <i>ital</i> after</p>`)
	got := roundTrip(t, doc)
	if canonical(t, got) != canonical(t, doc) {
		t.Fatalf("mixed content lost:\n in: %s\nout: %s", doc, got)
	}
}

func TestRoundTripEscaping(t *testing.T) {
	doc := []byte(`<a attr="x &amp; &quot;y&quot;">1 &lt; 2 &amp; 3 &gt; 2</a>`)
	got := roundTrip(t, doc)
	if canonical(t, got) != canonical(t, doc) {
		t.Fatalf("escaping broken:\n in: %s\nout: %s", doc, got)
	}
}

func TestRoundTripSharedStructureDifferentText(t *testing.T) {
	// Identical structure, different content: skeleton shares the
	// vertices; containers must replay the right strings in order.
	doc := []byte(`<r><e><v>one</v></e><e><v>two</v></e><e><v>three</v></e></r>`)
	a, err := container.Split(doc)
	if err != nil {
		t.Fatal(err)
	}
	// doc + r + e + v + one shared text vertex = 5.
	if got := a.Skeleton.NumVertices(); got != 5 {
		t.Fatalf("skeleton vertices = %d, want 5 (structure fully shared)\n%s", got, a.Skeleton)
	}
	if got := a.Store.Chunks("/v"); len(got) != 3 || got[0] != "one" || got[2] != "three" {
		t.Fatalf("container = %v", got)
	}
	out := roundTrip(t, doc)
	if canonical(t, out) != canonical(t, doc) {
		t.Fatalf("mismatch:\n in: %s\nout: %s", doc, out)
	}
}

func TestContainersGroupByTag(t *testing.T) {
	// <a> at /r/a and at /r/b/a: one container, values in document order.
	doc := []byte(`<r><a>x</a><b><a>y</a></b></r>`)
	a, err := container.Split(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Store.Chunks("/a"); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("/a = %v", got)
	}
	if got := a.Store.Chunks("/r/b/a"); got != nil {
		t.Fatalf("/r/b/a = %v, want no path-keyed container", got)
	}
	if a.Store.NumContainers() != 1 {
		t.Fatalf("containers = %d (%v)", a.Store.NumContainers(), a.Store.Keys())
	}
}

func TestAttributesBecomeContainers(t *testing.T) {
	doc := []byte(`<r><e k="1"/><e k="2"/></r>`)
	a, err := container.Split(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Store.Chunks("/e/@k"); len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("@k container = %v", got)
	}
	out := roundTrip(t, doc)
	if canonical(t, out) != canonical(t, doc) {
		t.Fatalf("mismatch:\n in: %s\nout: %s", doc, out)
	}
}

func TestStoreTotalBytes(t *testing.T) {
	doc := []byte(`<r><a>abc</a><b>de</b></r>`)
	a, err := container.Split(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Store.TotalBytes(); got != 5 {
		t.Fatalf("TotalBytes = %d, want 5", got)
	}
}

func TestSplitRejectsMalformed(t *testing.T) {
	if _, err := container.Split([]byte(`<a><b></a>`)); err == nil {
		t.Fatal("expected error")
	}
}

// TestPropertyRoundTrip: random documents round-trip through
// split/reconstruct with identical canonical form.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := dagtest.RandomXML(r, 120, 4, 4)
		out := roundTrip(t, doc)
		if canonical(t, out) != canonical(t, doc) {
			t.Logf("mismatch:\n in: %s\nout: %s", doc, out)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSkeletonMuchSmallerThanDocument checks the storage claim on a
// regular corpus: the archive skeleton stays small even with text
// occurrence vertices included.
func TestSkeletonMuchSmallerThanDocument(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<table>")
	for i := 0; i < 2000; i++ {
		sb.WriteString("<row><a>xx</a><b>yy</b><c>zz</c></row>")
	}
	sb.WriteString("</table>")
	a, err := container.Split([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Skeleton.NumVertices(); got > 20 {
		t.Fatalf("skeleton vertices = %d, want ≤ 20 for fully regular data", got)
	}
	out := roundTrip(t, []byte(sb.String()))
	if canonical(t, out) != canonical(t, []byte(sb.String())) {
		t.Fatal("regular table did not round-trip")
	}
}
