// Package codec provides a compact binary serialization for compressed
// instances and archives, so that compressed skeletons can be stored on
// disk and mapped back into memory without re-parsing the XML — the
// storage direction the paper's Section 6 sketches ("cache chunks of
// compressed instances in secondary storage").
//
// Format (little-endian varints throughout):
//
//	instance := magic "XCI1" version
//	            nSchema (string)*            schema names, ID order
//	            nVerts root
//	            vertex*                      in ID order
//	vertex   := nLabels (labelID)*           ascending
//	            nEdges (childID count)*
//	archive  := magic "XCA1" version instance
//	            nContainers (key nChunks chunk*)*
//	            [footer]
//	footer   := magic "XCK1" crc32
//
// Strings are length-prefixed UTF-8. The format is self-contained and
// versioned; decoding validates structural invariants before returning.
//
// The archive footer carries a CRC32 (IEEE, little-endian) over every
// body byte, so bit rot anywhere — including inside value chunks whose
// corruption is structurally invisible — fails decoding with
// ErrCorrupt instead of serving wrong bytes. Archive version 2 made
// the footer mandatory: optional footers leave a hole where a
// corrupted length field swallows the footer into a value chunk and
// the truncation passes as a footer-less file. Version-1 archives
// (written before the footer existed) still decode, with structural
// validation only.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/container"
	"repro/internal/dag"
	"repro/internal/label"
)

const (
	instanceMagic = "XCI1"
	archiveMagic  = "XCA1"
	footerMagic   = "XCK1"
	footerLen     = 8 // magic + crc32
	version       = 1
	// archiveVersion 2 added the mandatory checksum footer; version-1
	// archives (no footer) are still accepted.
	archiveVersion = 2
	// maxLen guards length fields against corrupt or hostile input
	// before any allocation happens.
	maxLen = 1 << 30
)

// ErrCorrupt is wrapped by all decoding errors caused by malformed input.
var ErrCorrupt = errors.New("codec: corrupt input")

// CheckArchiveHeader reads just the magic and version from r and reports
// whether they plausibly begin an archive — the cheap probe store.Open
// uses to skip garbage .xca files without decoding them. It cannot vouch
// for the body (DecodeArchive's footer check does that); it only rejects
// files that are certainly not archives.
func CheckArchiveHeader(r io.Reader) error {
	var hdr [len(archiveMagic) + 1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: truncated archive header", ErrCorrupt)
	}
	if string(hdr[:len(archiveMagic)]) != archiveMagic {
		return fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, hdr[:len(archiveMagic)], archiveMagic)
	}
	// Both supported versions fit in one uvarint byte.
	if v := hdr[len(archiveMagic)]; v != version && v != archiveVersion {
		return fmt.Errorf("%w: unsupported archive version %d", ErrCorrupt, v)
	}
	return nil
}

type writer struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (w *writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

func (w *writer) raw(s string) {
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

// crcWriter hashes everything written through it; EncodeArchive puts
// it under the buffered writer so the flushed body bytes — and only
// those — feed the footer checksum.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if n > 0 {
		c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	}
	return n, err
}

// decoder reads the format from one in-memory slice.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

// count reads a length or item count and bounds it by the bytes left:
// each counted item occupies at least minBytes of them, so nothing sized
// by a count can outgrow the input by more than a constant factor. A
// corrupt count fails here instead of allocating.
func (d *decoder) count(minBytes int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if left := len(d.buf) - d.off; v > maxLen || v > uint64(left/minBytes) {
		return 0, fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrCorrupt, v, left)
	}
	return int(v), nil
}

// bytes reads a length-prefixed string as a subslice of the input.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) expect(magic string) error {
	got := d.buf[d.off:min(len(d.buf), d.off+len(magic))]
	if string(got) != magic {
		return fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, got, magic)
	}
	d.off += len(magic)
	return nil
}

// EncodeInstance writes in to w.
func EncodeInstance(w io.Writer, in *dag.Instance) error {
	bw := &writer{w: bufio.NewWriter(w)}
	encodeInstance(bw, in)
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

func encodeInstance(bw *writer, in *dag.Instance) {
	bw.raw(instanceMagic)
	bw.uvarint(version)
	bw.uvarint(uint64(in.Schema.Len()))
	for i := 0; i < in.Schema.Len(); i++ {
		bw.str(in.Schema.Name(label.ID(i)))
	}
	bw.uvarint(uint64(len(in.Verts)))
	// Root: offset by one so the empty instance's NilVertex encodes as 0.
	bw.uvarint(uint64(in.Root + 1))
	for i := range in.Verts {
		v := &in.Verts[i]
		members := v.Labels.Members()
		bw.uvarint(uint64(len(members)))
		for _, id := range members {
			bw.uvarint(uint64(id))
		}
		bw.uvarint(uint64(len(v.Edges)))
		for _, e := range v.Edges {
			bw.uvarint(uint64(e.Child))
			bw.uvarint(uint64(e.Count))
		}
	}
}

// DecodeInstance reads an instance from r and validates its invariants.
// Bytes after the instance are ignored.
func DecodeInstance(r io.Reader) (*dag.Instance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("codec: reading instance: %w", err)
	}
	return decodeInstance(&decoder{buf: data})
}

func decodeInstance(d *decoder) (*dag.Instance, error) {
	if err := d.expect(instanceMagic); err != nil {
		return nil, err
	}
	v, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	nSchema, err := d.count(1) // a length byte per name
	if err != nil {
		return nil, err
	}
	schema := label.NewSchema()
	for i := 0; i < nSchema; i++ {
		name, err := d.bytes()
		if err != nil {
			return nil, err
		}
		if schema.Intern(string(name)) != label.ID(i) {
			return nil, fmt.Errorf("%w: duplicate schema name %q", ErrCorrupt, name)
		}
	}
	nVerts, err := d.count(2) // a label count and an edge count per vertex
	if err != nil {
		return nil, err
	}
	rootPlus1, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if rootPlus1 > uint64(nVerts) {
		return nil, fmt.Errorf("%w: root %d out of range", ErrCorrupt, rootPlus1)
	}
	// The label words and edges of all vertices share one backing array
	// each; ends records where each vertex's share stops.
	var words []uint64
	var edges []dag.Edge
	ends := make([]int, 2*nVerts)
	for i := 0; i < nVerts; i++ {
		nLabels, err := d.count(1)
		if err != nil {
			return nil, err
		}
		base := len(words)
		for j := 0; j < nLabels; j++ {
			id, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if id >= uint64(nSchema) {
				return nil, fmt.Errorf("%w: label %d out of schema range", ErrCorrupt, id)
			}
			w := base + int(id/64)
			for len(words) <= w {
				words = append(words, 0)
			}
			words[w] |= 1 << (id % 64)
		}
		nEdges, err := d.count(2) // a child and a multiplicity per edge
		if err != nil {
			return nil, err
		}
		for j := 0; j < nEdges; j++ {
			child, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			count, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if child >= uint64(nVerts) {
				return nil, fmt.Errorf("%w: edge to vertex %d out of range", ErrCorrupt, child)
			}
			if count == 0 || count > math.MaxUint32 {
				return nil, fmt.Errorf("%w: edge multiplicity %d invalid", ErrCorrupt, count)
			}
			edges = append(edges, dag.Edge{Child: dag.VertexID(child), Count: uint32(count)})
		}
		ends[2*i], ends[2*i+1] = len(words), len(edges)
	}
	in := &dag.Instance{
		Verts:  make([]dag.Vertex, nVerts),
		Root:   dag.VertexID(rootPlus1) - 1,
		Schema: schema,
	}
	var w0, e0 int
	for i := range in.Verts {
		w1, e1 := ends[2*i], ends[2*i+1]
		if w1 > w0 {
			in.Verts[i].Labels = words[w0:w1:w1]
		}
		if e1 > e0 {
			in.Verts[i].Edges = edges[e0:e1:e1]
		}
		w0, e0 = w1, e1
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return in, nil
}

// EncodeArchive writes a container archive (skeleton + value
// containers) followed by a checksum footer over the body bytes.
func EncodeArchive(w io.Writer, a *container.Archive) error {
	cw := &crcWriter{w: w}
	bw := &writer{w: bufio.NewWriter(cw)}
	bw.raw(archiveMagic)
	bw.uvarint(archiveVersion)
	encodeInstance(bw, a.Skeleton)
	keys := a.Store.Keys()
	bw.uvarint(uint64(len(keys)))
	for _, k := range keys {
		bw.str(k)
		chunks := a.Store.Chunks(k)
		bw.uvarint(uint64(len(chunks)))
		for _, c := range chunks {
			bw.str(c)
		}
	}
	if bw.err != nil {
		return bw.err
	}
	if err := bw.w.Flush(); err != nil {
		return err
	}
	var foot [footerLen]byte
	copy(foot[:4], footerMagic)
	binary.LittleEndian.PutUint32(foot[4:], cw.sum)
	_, err := w.Write(foot[:])
	return err
}

// DecodeArchive reads a container archive from r: a read-all wrapper
// over DecodeArchiveBytes.
func DecodeArchive(r io.Reader) (*container.Archive, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("codec: reading archive: %w", err)
	}
	return DecodeArchiveBytes(data)
}

// DecodeArchiveBytes decodes an archive held fully in memory — a whole
// archive file, or the payload slice of one bundle needle. The archive
// does not retain data.
func DecodeArchiveBytes(data []byte) (*container.Archive, error) {
	skel, store, err := decodeArchive(data, true)
	if err != nil {
		return nil, err
	}
	return &container.Archive{Skeleton: skel, Store: store}, nil
}

// decodeArchive is the one archive decoder. A version-2 archive's footer
// checksum is verified over the whole body before anything is parsed;
// the body is then decoded in place. With keep, the value containers are
// returned too, every key and chunk a substring of one string copied
// from the container section; without, they are only checked.
func decodeArchive(data []byte, keep bool) (*dag.Instance, *container.Store, error) {
	d := &decoder{buf: data}
	if err := d.expect(archiveMagic); err != nil {
		return nil, nil, err
	}
	v, err := d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	switch v {
	case archiveVersion:
		// The footer is mandatory: an optional one would let a corrupted
		// length field swallow it into a value chunk and pass the
		// truncation off as a legacy archive.
		if len(data)-d.off < footerLen {
			return nil, nil, fmt.Errorf("%w: truncated checksum footer", ErrCorrupt)
		}
		body := data[:len(data)-footerLen]
		if err := checkFooter(body, data[len(body):]); err != nil {
			return nil, nil, err
		}
		d.buf = body
	case version:
		// Legacy: structural checks are all the protection it ever had.
	default:
		return nil, nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	skel, err := decodeInstance(d)
	if err != nil {
		return nil, nil, err
	}
	var store *container.Store
	var section string
	start := d.off
	if keep {
		store = container.NewStore()
		section = string(d.buf[start:])
	}
	nCont, err := d.count(2) // a key length and a chunk count per container
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < nCont; i++ {
		key, err := d.bytes()
		if err != nil {
			return nil, nil, err
		}
		keyEnd := d.off - start
		nChunks, err := d.count(1) // a length byte per chunk
		if err != nil {
			return nil, nil, err
		}
		var chunks []string
		if keep {
			chunks = make([]string, nChunks)
		}
		for j := 0; j < nChunks; j++ {
			chunk, err := d.bytes()
			if err != nil {
				return nil, nil, err
			}
			if keep {
				chunks[j] = section[d.off-start-len(chunk) : d.off-start]
			}
		}
		if keep {
			store.AppendChunks(section[keyEnd-len(key):keyEnd], chunks)
		}
	}
	if rest := d.buf[d.off:]; len(rest) > 0 {
		// A version-1 body may carry the footer the format once had as
		// optional; anything else after the body is corruption.
		if v != version || len(rest) != footerLen {
			return nil, nil, fmt.Errorf("%w: trailing bytes after archive body", ErrCorrupt)
		}
		if err := checkFooter(d.buf[:d.off], rest); err != nil {
			return nil, nil, err
		}
	}
	return skel, store, nil
}

// checkFooter verifies that foot is the checksum footer of body.
func checkFooter(body, foot []byte) error {
	if string(foot[:len(footerMagic)]) != footerMagic {
		return fmt.Errorf("%w: missing checksum footer", ErrCorrupt)
	}
	stored, computed := binary.LittleEndian.Uint32(foot[len(footerMagic):]), crc32.ChecksumIEEE(body)
	if stored != computed {
		return fmt.Errorf("%w: archive checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, stored, computed)
	}
	return nil
}

// DecodeSkeleton reads an encoded archive but materialises only its
// skeleton, checking the value containers without retaining them. This
// is what the archive store's synopsis builder uses to summarise an
// un-sidecared archive.
func DecodeSkeleton(r io.Reader) (*dag.Instance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("codec: reading archive: %w", err)
	}
	return DecodeSkeletonBytes(data)
}

// DecodeSkeletonBytes is DecodeSkeleton over an in-memory payload (used
// to rebuild the synopsis of a bundled document that was packed without
// a usable sidecar, and by the scrubber).
func DecodeSkeletonBytes(data []byte) (*dag.Instance, error) {
	skel, _, err := decodeArchive(data, false)
	return skel, err
}

// ContainerStat describes one value container of an archive.
type ContainerStat struct {
	// Key names the container by its enclosing tag: "/<tag>" for text,
	// "/<tag>/@<attr>" for attribute values. Archives written before
	// containers were keyed by tag carry the whole root-to-node path.
	Key    string
	Chunks int   // number of stored values
	Bytes  int64 // summed value length
}

// ArchiveStat summarises an encoded archive.
type ArchiveStat struct {
	SkeletonVertices int
	SkeletonEdges    int
	TreeSize         uint64 // expanded tree size represented by the skeleton
	SchemaLen        int
	Containers       []ContainerStat // in encoding (first-use) order
	ValueBytes       int64           // total across containers
}

// StatArchive reads an encoded archive from r and reports its sizes:
// skeleton dimensions and per-container chunk and byte counts.
func StatArchive(r io.Reader) (*ArchiveStat, error) {
	a, err := DecodeArchive(r)
	if err != nil {
		return nil, err
	}
	st := &ArchiveStat{
		SkeletonVertices: a.Skeleton.NumVertices(),
		SkeletonEdges:    a.Skeleton.NumEdges(),
		TreeSize:         a.Skeleton.TreeSize(),
		SchemaLen:        a.Skeleton.Schema.Len(),
	}
	for _, key := range a.Store.Keys() {
		cs := ContainerStat{Key: key}
		for _, chunk := range a.Store.Chunks(key) {
			cs.Chunks++
			cs.Bytes += int64(len(chunk))
		}
		st.Containers = append(st.Containers, cs)
		st.ValueBytes += cs.Bytes
	}
	return st, nil
}
