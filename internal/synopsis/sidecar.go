package synopsis

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/fault"
	"repro/internal/frame"
	"repro/internal/label"
)

// Ext is the sidecar file extension: doc.xca is summarised by doc.xcs.
const Ext = ".xcs"

// Sidecar format. The whole file is one CRC-framed payload:
//
//	payload := magic "XCS1" version archiveBytes depth
//	           flags(bit0 overflow, bit1 saturated)
//	           treeSize                           element tree nodes
//	           nLabels (label string count)*      tag-label set + tree counts
//	           nNodes node(root)                  path trie, preorder
//	node    := flags(bit0 deeper) count nChildren (labelIndex node)*
//	file    := payload crc32(payload)             IEEE, little-endian (frame.Seal)
//
// Version 2 added the estimator statistics (treeSize, per-label counts,
// per-node counts, the saturated flag); version-1 sidecars decode as
// ErrCorrupt and are rebuilt by the store like any stale sidecar.
//
// Varints are unsigned little-endian; strings are length-prefixed UTF-8.
// Trie labels reference the label table by index. archiveBytes is the
// size of the archive the sidecar summarises: a sidecar is only valid
// for the exact archive bytes it was written against, and recording the
// size lets a reopening store reject — for the price of a stat it
// already paid — a stale sidecar left behind by a crash between an
// archive replacement and its sidecar write (the CRC alone cannot catch
// that: the stale file is internally consistent). The check is
// best-effort: two encodings of different documents can collide on
// length, so replacements should go through the compactor (which writes
// the paired sidecar before publishing) rather than raw file copies;
// when in doubt, delete the .xcs and let the store rebuild it. The
// format is
// self-contained: decoding needs only the catalog dictionary to intern
// into, and any mismatch — magic, version, CRC, structural bound —
// returns ErrCorrupt, which callers treat as "rebuild or scan", never as
// data.
const (
	sidecarMagic = "XCS1"
	version      = 2

	maxLabels   = 1 << 20
	maxNameLen  = 1 << 16
	maxNodes    = 1 << 22
	maxDepth    = 1 << 8
	maxFileSize = 64 << 20
)

// ErrCorrupt wraps all sidecar decoding failures caused by malformed
// input (including version and CRC mismatches).
var ErrCorrupt = errors.New("synopsis: corrupt sidecar")

// SidecarPath returns the sidecar path for an archive path: the .xca
// extension is replaced by .xcs (other extensions get .xcs appended).
func SidecarPath(archivePath string) string {
	if s, ok := strings.CutSuffix(archivePath, ".xca"); ok {
		return s + Ext
	}
	return archivePath + Ext
}

// EncodeSidecar writes s to w in sidecar format, resolving label IDs
// through dict (which must be the dictionary s was built against).
// archiveBytes is the size of the archive file s summarises (0 when the
// synopsis is not paired with an archive).
func EncodeSidecar(w io.Writer, s *Synopsis, dict *Dict, archiveBytes int64) error {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}

	buf.WriteString(sidecarMagic)
	uv(version)
	uv(uint64(archiveBytes))
	uv(uint64(s.depth))
	var flags byte
	if s.overflow {
		flags |= 1
	}
	if s.sat {
		flags |= 2
	}
	buf.WriteByte(flags)
	uv(s.treeSize)

	members := s.labels.Members()
	index := make(map[label.ID]int, len(members))
	uv(uint64(len(members)))
	dict.mu.RLock()
	for i, id := range members {
		name := dict.schema.Name(id)
		index[id] = i
		uv(uint64(len(name)))
		buf.WriteString(name)
		uv(s.counts[id])
	}
	dict.mu.RUnlock()

	uv(uint64(len(s.nodes)))
	var write func(ni int32)
	write = func(ni int32) {
		n := &s.nodes[ni]
		var f byte
		if n.deeper {
			f |= 1
		}
		buf.WriteByte(f)
		uv(n.count)
		uv(uint64(len(n.children)))
		for _, cr := range n.children {
			uv(uint64(index[cr.lbl]))
			write(cr.node)
		}
	}
	write(0)

	_, err := w.Write(frame.Seal(buf.Bytes()))
	return err
}

// DecodeSidecar parses a sidecar from data, interning its labels into
// dict, and returns the synopsis plus the size of the archive it was
// written against. All failures wrap ErrCorrupt.
func DecodeSidecar(data []byte, dict *Dict) (*Synopsis, int64, error) {
	if len(data) > maxFileSize {
		return nil, 0, fmt.Errorf("%w: %d bytes exceeds the size bound", ErrCorrupt, len(data))
	}
	if len(data) < len(sidecarMagic)+4 {
		return nil, 0, fmt.Errorf("%w: truncated (%d bytes)", ErrCorrupt, len(data))
	}
	payload, ok := frame.Unseal(data)
	if !ok {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	d := &sidecarReader{data: payload}
	if string(d.bytes(len(sidecarMagic))) != sidecarMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := d.uvarint(); v != version {
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	archiveBytes := int64(d.uvarint())
	depth := d.uvarint()
	if depth > maxDepth {
		return nil, 0, fmt.Errorf("%w: depth %d too large", ErrCorrupt, depth)
	}
	flags := d.byte()
	s := &Synopsis{depth: int(depth), overflow: flags&1 != 0, sat: flags&2 != 0}
	s.treeSize = d.uvarint()

	nLabels := d.uvarint()
	if nLabels > maxLabels {
		return nil, 0, fmt.Errorf("%w: %d labels exceeds bound", ErrCorrupt, nLabels)
	}
	ids := make([]label.ID, nLabels)
	counts := make([]uint64, nLabels)
	dict.mu.Lock()
	for i := range ids {
		nameLen := d.uvarint()
		if nameLen > maxNameLen {
			d.fail = true
			break
		}
		name := d.bytes(int(nameLen))
		if d.fail {
			break
		}
		ids[i] = dict.internLocked(string(name))
		s.labels = s.labels.Set(ids[i])
		counts[i] = d.uvarint()
	}
	dict.mu.Unlock()
	if d.fail {
		return nil, 0, fmt.Errorf("%w: truncated label table", ErrCorrupt)
	}
	s.counts = make(map[label.ID]uint64, nLabels)
	for i, id := range ids {
		s.counts[id] = counts[i]
	}

	nNodes := d.uvarint()
	if nNodes == 0 || nNodes > maxNodes {
		return nil, 0, fmt.Errorf("%w: %d trie nodes out of range", ErrCorrupt, nNodes)
	}
	s.nodes = make([]pathNode, 1, nNodes)
	var read func(ni int32, depthLeft int) bool
	read = func(ni int32, depthLeft int) bool {
		if depthLeft < 0 {
			return false
		}
		f := d.byte()
		s.nodes[ni].deeper = f&1 != 0
		s.nodes[ni].count = d.uvarint()
		nChildren := d.uvarint()
		if d.fail || nChildren > uint64(nNodes) {
			return false
		}
		for j := uint64(0); j < nChildren; j++ {
			idx := d.uvarint()
			if d.fail || idx >= nLabels {
				return false
			}
			if uint64(len(s.nodes)) >= nNodes {
				return false
			}
			n2 := int32(len(s.nodes))
			s.nodes = append(s.nodes, pathNode{})
			s.nodes[ni].children = append(s.nodes[ni].children, childRef{lbl: ids[idx], node: n2})
			if !read(n2, depthLeft-1) {
				return false
			}
		}
		return true
	}
	if !read(0, int(depth)) || d.fail {
		return nil, 0, fmt.Errorf("%w: malformed trie", ErrCorrupt)
	}
	if uint64(len(s.nodes)) != nNodes {
		return nil, 0, fmt.Errorf("%w: trie declares %d nodes, carries %d", ErrCorrupt, nNodes, len(s.nodes))
	}
	if d.pos != len(d.data) {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.data)-d.pos)
	}
	return s, archiveBytes, nil
}

// sidecarReader is a failure-latching cursor over the payload.
type sidecarReader struct {
	data []byte
	pos  int
	fail bool
}

func (r *sidecarReader) bytes(n int) []byte {
	if r.fail || n < 0 || r.pos+n > len(r.data) {
		r.fail = true
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *sidecarReader) byte() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *sidecarReader) uvarint() uint64 {
	if r.fail {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail = true
		return 0
	}
	r.pos += n
	return v
}

// WriteSidecar persists s at path atomically through frame.Publish, so a
// crash leaves either the old sidecar or the new one, never a torn file.
func WriteSidecar(fsys fault.FS, path string, s *Synopsis, dict *Dict, archiveBytes int64) error {
	return frame.Publish(fsys, path, func(w io.Writer) error {
		return EncodeSidecar(w, s, dict, archiveBytes)
	})
}

// LoadSidecar reads and decodes the sidecar at path, interning its
// labels into dict. wantArchiveBytes is the current size of the archive
// the sidecar should describe: a mismatch (e.g. the archive was
// replaced but a crash prevented the new sidecar from landing) wraps
// ErrCorrupt; pass a negative value to skip the pairing check
// (inspection tools). Missing files return the underlying fs error.
// Either way the caller falls back to rebuilding (or to a full scan).
func LoadSidecar(path string, dict *Dict, wantArchiveBytes int64) (*Synopsis, error) {
	return LoadSidecarFS(fault.OS, path, dict, wantArchiveBytes)
}

// LoadSidecarFS is LoadSidecar over an injectable filesystem.
func LoadSidecarFS(fsys fault.FS, path string, dict *Dict, wantArchiveBytes int64) (*Synopsis, error) {
	data, err := fault.Get(fsys).ReadFile(path)
	if err != nil {
		return nil, err
	}
	syn, gotBytes, err := DecodeSidecar(data, dict)
	if err != nil {
		return nil, err
	}
	if wantArchiveBytes >= 0 && gotBytes != wantArchiveBytes {
		return nil, fmt.Errorf("%w: sidecar describes a %d-byte archive, found %d bytes (stale pairing)",
			ErrCorrupt, gotBytes, wantArchiveBytes)
	}
	return syn, nil
}

// SidecarInfo is the inspection summary StatSidecar returns — what the
// CLI tools (xcstat, xcarchive stat) print about an archive's sidecar.
type SidecarInfo struct {
	Path  string
	Bytes int64 // sidecar file size; 0 when missing
	Err   error // nil, a fs error (missing), or ErrCorrupt (incl. stale pairing)

	Labels    int
	PathNodes int
	Depth     int
	Overflow  bool
	TreeSize  uint64
}

// StatSidecar inspects the sidecar paired with archivePath.
// archiveBytes is the archive's current size for the pairing check
// (negative skips it). Failures are reported in the Err field, never
// returned: a missing or unreadable sidecar is informational for
// inspection tools — the store rebuilds it at open.
func StatSidecar(archivePath string, archiveBytes int64) SidecarInfo {
	info := SidecarInfo{Path: SidecarPath(archivePath)}
	fi, err := os.Stat(info.Path)
	if err != nil {
		info.Err = err
		return info
	}
	info.Bytes = fi.Size()
	syn, err := LoadSidecar(info.Path, NewDict(), archiveBytes)
	if err != nil {
		info.Err = err
		return info
	}
	info.Labels = syn.NumLabels()
	info.PathNodes = syn.NumPathNodes()
	info.Depth = syn.Depth()
	info.Overflow = syn.Overflow()
	info.TreeSize = syn.TreeSize()
	return info
}

// String renders the summary as one human-readable line (no leading
// label, no trailing newline).
func (info SidecarInfo) String() string {
	switch {
	case info.Bytes == 0 && info.Err != nil:
		return fmt.Sprintf("none (%s; the store builds one at open)", info.Path)
	case info.Err != nil:
		return fmt.Sprintf("%d bytes, UNUSABLE (%v; the store will rebuild it)", info.Bytes, info.Err)
	}
	over := ""
	if info.Overflow {
		over = ", path trie overflowed"
	}
	return fmt.Sprintf("%d bytes, %d labels, %d path nodes, depth %d, %d tree nodes%s",
		info.Bytes, info.Labels, info.PathNodes, info.Depth, info.TreeSize, over)
}
