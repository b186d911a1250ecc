package codec_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/skeleton"
)

func encodeDecode(t *testing.T, in *dag.Instance) *dag.Instance {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.EncodeInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := codec.DecodeInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestInstanceRoundTrip(t *testing.T) {
	in := dagtest.CompressedFromTerm("bib(book(title,author,author,author),paper(title,author),paper(title,author))")
	out := encodeDecode(t, in)
	if out.NumVertices() != in.NumVertices() || out.NumEdges() != in.NumEdges() {
		t.Fatalf("size changed: %d/%d -> %d/%d",
			in.NumVertices(), in.NumEdges(), out.NumVertices(), out.NumEdges())
	}
	if !dag.Equivalent(in, out) {
		t.Fatal("decoded instance not equivalent")
	}
	if out.Schema.Len() != in.Schema.Len() {
		t.Fatal("schema size changed")
	}
}

func TestEmptyInstanceRoundTrip(t *testing.T) {
	out := encodeDecode(t, dag.New())
	if out.NumVertices() != 0 || out.Root != dag.NilVertex {
		t.Fatalf("empty instance broken: %d verts root %d", out.NumVertices(), out.Root)
	}
}

func TestPropertyInstanceRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := dag.Compress(dagtest.RandomTree(r, 80, 4, 3))
		out := encodeDecode(t, in)
		return dag.Equivalent(in, out) &&
			out.NumVertices() == in.NumVertices() &&
			out.NumEdges() == in.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	in := dagtest.CompressedFromTerm("a(b,b,c)")
	var buf bytes.Buffer
	if err := codec.EncodeInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncations at every prefix length must fail cleanly.
	for n := 0; n < len(good); n++ {
		if _, err := codec.DecodeInstance(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Single-byte corruptions must either fail or still produce a valid
	// instance (some byte flips hit string content, which is fine) —
	// but never panic or return a structurally broken instance.
	for i := 0; i < len(good); i++ {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xFF
		out, err := codec.DecodeInstance(bytes.NewReader(mut))
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("byte %d: error not wrapped in ErrCorrupt: %v", i, err)
			}
			continue
		}
		if verr := out.Validate(); verr != nil {
			t.Fatalf("byte %d: decoder returned invalid instance: %v", i, verr)
		}
	}
}

func TestDecodeWrongMagic(t *testing.T) {
	if _, err := codec.DecodeInstance(bytes.NewReader([]byte("NOPE"))); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	doc := []byte(`<bib><book year="1995"><title>T1</title><author>A</author></book><book year="2001"><title>T2</title><author>B</author></book></bib>`)
	a, err := container.Split(doc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := codec.DecodeArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !dag.Equivalent(a.Skeleton, back.Skeleton) {
		t.Fatal("skeleton changed")
	}
	var origOut, backOut bytes.Buffer
	if err := a.Reconstruct(&origOut); err != nil {
		t.Fatal(err)
	}
	if err := back.Reconstruct(&backOut); err != nil {
		t.Fatal(err)
	}
	if origOut.String() != backOut.String() {
		t.Fatalf("reconstruction changed:\n%s\nvs\n%s", origOut.String(), backOut.String())
	}
}

func TestPropertyArchiveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := dagtest.RandomXML(r, 80, 3, 3)
		a, err := container.Split(doc)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := codec.EncodeArchive(&buf, a); err != nil {
			return false
		}
		back, err := codec.DecodeArchive(&buf)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		var w1, w2 bytes.Buffer
		if a.Reconstruct(&w1) != nil || back.Reconstruct(&w2) != nil {
			return false
		}
		return w1.String() == w2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveReencodesByteIdentically: decoding keeps every container
// key and chunk in encoding order, so a decoded archive encodes back to
// the bytes it came from.
func TestArchiveReencodesByteIdentically(t *testing.T) {
	for _, c := range corpus.Catalog() {
		a, err := container.Split(c.Generate(2, 1))
		if err != nil {
			t.Fatal(err)
		}
		var first, second bytes.Buffer
		if err := codec.EncodeArchive(&first, a); err != nil {
			t.Fatal(err)
		}
		back, err := codec.DecodeArchiveBytes(first.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if err := codec.EncodeArchive(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: re-encoded archive differs (%d vs %d bytes)", c.Name, second.Len(), first.Len())
		}
	}
}

// TestEncodedSizeIsCompact sanity-checks that the binary form of a
// well-compressing document's skeleton is far smaller than the document.
func TestEncodedSizeIsCompact(t *testing.T) {
	var sb bytes.Buffer
	sb.WriteString("<table>")
	for i := 0; i < 5000; i++ {
		sb.WriteString("<row><a>val</a><b>val</b></row>")
	}
	sb.WriteString("</table>")
	inst, _, err := skeleton.BuildCompressed(sb.Bytes(), skeleton.Options{Mode: skeleton.TagsAll})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeInstance(&buf, inst); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 500 {
		t.Fatalf("encoded skeleton = %d bytes for a %d byte document; want tiny", buf.Len(), sb.Len())
	}
}

func TestStatArchiveMatchesFullDecode(t *testing.T) {
	doc := []byte(`<bib><book year="1995"><title>T1</title><author>A</author></book><book year="2001"><title>T2</title><author>B</author></book></bib>`)
	a, err := container.Split(doc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	st, err := codec.StatArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.SkeletonVertices != a.Skeleton.NumVertices() || st.SkeletonEdges != a.Skeleton.NumEdges() {
		t.Fatalf("skeleton sizes = %d/%d, want %d/%d",
			st.SkeletonVertices, st.SkeletonEdges, a.Skeleton.NumVertices(), a.Skeleton.NumEdges())
	}
	if st.TreeSize != a.Skeleton.TreeSize() {
		t.Fatalf("tree size = %d, want %d", st.TreeSize, a.Skeleton.TreeSize())
	}
	keys := a.Store.Keys()
	if len(st.Containers) != len(keys) {
		t.Fatalf("containers = %d, want %d", len(st.Containers), len(keys))
	}
	var wantBytes int64
	for i, k := range keys {
		cs := st.Containers[i]
		chunks := a.Store.Chunks(k)
		var b int64
		for _, c := range chunks {
			b += int64(len(c))
		}
		wantBytes += b
		if cs.Key != k || cs.Chunks != len(chunks) || cs.Bytes != b {
			t.Fatalf("container %d = %+v, want {%s %d %d}", i, cs, k, len(chunks), b)
		}
	}
	if st.ValueBytes != wantBytes {
		t.Fatalf("value bytes = %d, want %d", st.ValueBytes, wantBytes)
	}
}

func TestStatArchiveRejectsCorruption(t *testing.T) {
	if _, err := codec.StatArchive(bytes.NewReader([]byte("NOPE"))); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

// The archive checksum footer must catch any single-bit flip in the
// body — including flips inside value chunks, which are structurally
// invisible — while still accepting footer-less legacy archives.
func TestArchiveChecksumFooter(t *testing.T) {
	doc := []byte(`<bib><book year="1995"><title>T1</title><author>Alice</author></book></bib>`)
	a, err := container.Split(doc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Every single-bit flip anywhere in the file must fail decoding.
	for byteOff := 0; byteOff < len(good); byteOff++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), good...)
			mut[byteOff] ^= 1 << uint(bit)
			if _, err := codec.DecodeArchive(bytes.NewReader(mut)); err == nil {
				t.Fatalf("flip of bit %d at byte %d/%d decoded successfully", bit, byteOff, len(good))
			} else if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("flip of bit %d at byte %d: error not ErrCorrupt: %v", bit, byteOff, err)
			}
		}
	}

	// A legacy archive — version 1, body without footer — still
	// decodes. (The version is the uvarint right after the magic.)
	legacy := append([]byte(nil), good[:len(good)-8]...)
	if legacy[4] != 2 {
		t.Fatalf("archive version byte = %d, want 2", legacy[4])
	}
	legacy[4] = 1
	back, err := codec.DecodeArchive(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("footer-less v1 archive rejected: %v", err)
	}
	if !dag.Equivalent(a.Skeleton, back.Skeleton) {
		t.Fatal("legacy decode changed the skeleton")
	}
	// A version-2 body with the footer stripped is corrupt, not legacy.
	if _, err := codec.DecodeArchive(bytes.NewReader(good[:len(good)-8])); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("v2 archive without footer: err = %v", err)
	}

	// A partial footer and trailing garbage are both corruption.
	for cut := 1; cut < 8; cut++ {
		if _, err := codec.DecodeArchive(bytes.NewReader(good[:len(good)-cut])); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("footer truncated by %d bytes: err = %v", cut, err)
		}
	}
	if _, err := codec.DecodeArchive(bytes.NewReader(append(append([]byte(nil), good...), 'x'))); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("trailing garbage after footer: err = %v", err)
	}
	if _, err := codec.DecodeSkeleton(bytes.NewReader(good)); err != nil {
		t.Fatalf("DecodeSkeleton rejected a good archive: %v", err)
	}
	mut := append([]byte(nil), good...)
	mut[len(mut)/2] ^= 0x10
	if _, err := codec.DecodeSkeleton(bytes.NewReader(mut)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("DecodeSkeleton accepted a corrupt archive: err = %v", err)
	}
}

// craftArchive hand-encodes the archive of <a>hello</a>, with the named
// count or length field replaced by value (when field is not ""), and a
// valid footer over whatever body results. It returns the archive and
// the number of body bytes after the replaced field.
func craftArchive(field string, value uint64) (data []byte, after int) {
	var body []byte
	put := func(name string, v uint64) {
		replace := name != "" && name == field
		if replace {
			v = value
		}
		body = binary.AppendUvarint(body, v)
		if replace {
			after = len(body)
		}
	}
	str := func(name, s string) {
		put(name, uint64(len(s)))
		body = append(body, s...)
	}
	body = append(body, "XCA1"...)
	put("", 2)
	body = append(body, "XCI1"...)
	put("", 1)
	put("nSchema", 2)
	str("", "tag:a")
	str("", "text:/a")
	put("nVerts", 3)
	put("", 1)       // root + 1: vertex 0, the document
	put("", 0)       // v0: no labels
	put("nEdges", 1) // v0 -> v1
	put("", 1)
	put("", 1)
	put("", 1) // v1: tag:a
	put("", 0)
	put("", 1) // v1 -> v2
	put("", 2)
	put("", 1)
	put("", 1) // v2: text:/a
	put("", 1)
	put("", 0)
	put("", 1) // one container
	str("", "/a")
	put("", 1)
	str("chunk", "hello")
	after = len(body) - after
	foot := binary.LittleEndian.AppendUint32([]byte("XCK1"), crc32.ChecksumIEEE(body))
	return append(body, foot...), after
}

// TestDecodeBoundsCountsByInput: a count or length field that promises
// more items than the bytes left could hold is corrupt, and is rejected
// before anything sized by it is allocated — a 17-byte archive claiming
// 2^30-1 vertices once killed the process with an out-of-memory fatal
// error, reachable from a cache miss, a sidecar rebuild or a replicated
// frame.
func TestDecodeBoundsCountsByInput(t *testing.T) {
	good, _ := craftArchive("", 0)
	if _, err := codec.DecodeArchiveBytes(good); err != nil {
		t.Fatalf("hand-encoded archive rejected: %v", err)
	}
	const maxLen = 1 << 30
	var inputs [][]byte
	for _, field := range []string{"nSchema", "nVerts", "nEdges", "chunk"} {
		_, after := craftArchive(field, 0)
		for _, v := range []uint64{maxLen - 1, maxLen, uint64(after) + 1, math.MaxUint64 - 1} {
			data, _ := craftArchive(field, v)
			inputs = append(inputs, data)
		}
	}
	// The original 17-byte reproducer (version 2 without its footer),
	// with a footer, and as a footer-less version 1.
	repro := []byte("XCA1\x02XCI1\x01\x00\xff\xff\xff\xff\x03\x00")
	inputs = append(inputs, repro,
		binary.LittleEndian.AppendUint32(append(append([]byte(nil), repro...), "XCK1"...), crc32.ChecksumIEEE(repro)),
		append([]byte("XCA1\x01"), repro[5:]...))

	var before, after runtime.MemStats
	for i, data := range inputs {
		runtime.ReadMemStats(&before)
		_, err := codec.DecodeArchiveBytes(data)
		_, serr := codec.DecodeSkeletonBytes(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, codec.ErrCorrupt) || !errors.Is(serr, codec.ErrCorrupt) {
			t.Errorf("input %d (% x): err = %v / %v, want ErrCorrupt", i, data, err, serr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data)+16<<10) {
			t.Errorf("input %d: decoding %d bytes allocated %d bytes", i, len(data), grew)
		}
	}
}
