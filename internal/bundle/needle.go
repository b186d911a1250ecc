// Package bundle implements the cold tier of the archive store: many
// small .xca payloads (and their .xcs synopsis sidecars) packed
// back-to-back into large append-only bundle files, each entry framed by
// a CRC-guarded needle header, with a per-bundle needle index (document
// name -> offset and lengths) persisted beside the bundle. Reads are a
// single pread at offset+length — no per-document open/close, no
// directory scans — so catalog cost stays flat as document count grows
// (the pack-engine design of auklet/haystack, applied to compressed
// skeleton archives).
//
// Durability model:
//
//   - A bundle is sealed by fsyncing the data file, then publishing the
//     index (frame.Publish). Sealed payload bytes are never moved
//     or rewritten, so concurrent preads need no coordination.
//   - The only post-seal mutation is appending tombstone needles at the
//     tail (deletions); each such append fsyncs the data file and then
//     rewrites the index.
//   - The index records the bundle size it was written against. On open,
//     a size mismatch (crash between a tail append and the index
//     rewrite), a missing index, or a corrupt index all fall back to
//     rebuilding the index by scanning needle headers; a torn tail —
//     a partial needle after the last intact one — is truncated away.
//
// Dead bytes (replaced or tombstoned needles, and the tombstones
// themselves) are tracked in the index; when their share of the bundle
// exceeds a threshold, the store's auditor rewrites the bundle with only
// the live needles and swaps it in (see store.AuditBundles).
package bundle

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/frame"
)

// File naming and format constants.
const (
	// Ext is the bundle data-file extension.
	Ext = ".xcb"
	// IndexExt is the needle-index extension.
	IndexExt = ".xbi"

	fileMagic   = "XCB1"
	needleMagic = "XNDL"
	version     = 1

	// headerOff is where the first needle starts: after the file magic
	// and the version byte.
	headerOff = int64(len(fileMagic) + 1)

	maxNameLen   = 1 << 16
	maxHeaderLen = 1 << 20
	maxPayload   = 1 << 31
)

// ErrCorrupt wraps every decoding failure caused by malformed bundle or
// index bytes. Callers treat it as "rebuild by scan", never as data.
var ErrCorrupt = errors.New("bundle: corrupt input")

// Ref locates one live needle inside a bundle: the needle's own start,
// the start of its payload, and the two payload section lengths. The
// archive occupies [PayloadOff, PayloadOff+ArchiveLen); the sidecar
// immediately follows it.
type Ref struct {
	NeedleOff  int64
	PayloadOff int64
	ArchiveLen int64
	SidecarLen int64

	archiveCRC uint32
	sidecarCRC uint32
}

// size is the needle's total footprint in the bundle file.
func (r Ref) size() int64 { return r.PayloadOff - r.NeedleOff + r.ArchiveLen + r.SidecarLen }

// needle header layout:
//
//	needle := magic "XNDL" headerLen(uvarint) headerCRC(4B LE, over header)
//	          header archivePayload sidecarPayload
//	header := flags(1B, bit0 tombstone) nameLen(uvarint) name
//	          archiveLen(uvarint) sidecarLen(uvarint)
//	          archiveCRC(4B LE) sidecarCRC(4B LE)
//
// headerLen, headerCRC and header are one frame.AppendRecord record.
// The payload CRCs live in the (header-CRC-guarded) header, so a reader
// can verify the archive bytes without touching the sidecar and vice
// versa. Tombstones carry zero-length payloads.

// appendNeedle frames one needle into buf and returns it along with the
// offset of the payload relative to the start of the needle.
func appendNeedle(buf []byte, name string, tomb bool, archive, sidecar []byte) (out []byte, payloadRel int64) {
	header := make([]byte, 0, 1+binary.MaxVarintLen64+len(name)+2*binary.MaxVarintLen64+8)
	var flags byte
	if tomb {
		flags |= 1
	}
	header = append(header, flags)
	header = binary.AppendUvarint(header, uint64(len(name)))
	header = append(header, name...)
	header = binary.AppendUvarint(header, uint64(len(archive)))
	header = binary.AppendUvarint(header, uint64(len(sidecar)))
	header = binary.LittleEndian.AppendUint32(header, crc32.ChecksumIEEE(archive))
	header = binary.LittleEndian.AppendUint32(header, crc32.ChecksumIEEE(sidecar))

	start := len(buf)
	buf = append(buf, needleMagic...)
	buf = frame.AppendRecord(buf, header)
	payloadRel = int64(len(buf) - start)
	buf = append(buf, archive...)
	return append(buf, sidecar...), payloadRel
}

// scanEntry is one needle met during a header scan.
type scanEntry struct {
	name string
	tomb bool
	ref  Ref
}

// scanNeedles walks every structurally intact needle of a bundle data
// stream starting at headerOff, handing each to fn with absolute file
// offsets. It stops at the first mid-needle truncation or header-CRC
// mismatch (a torn tail) and returns the offset just past the last
// intact needle — the safe truncation point; the caller compares it
// against the file size to detect the tear. r must be positioned at
// headerOff.
//
// The scan deliberately trusts payload bytes it can read in full:
// structure comes from the CRC-guarded headers alone. A payload whose
// CRC has rotted mid-file is NOT a torn tail — truncating there would
// destroy every healthy needle after it — so rotten needles are
// registered as found and caught later, by the per-read CRC checks
// every pread performs and by the scrubber, which tombstones them with
// a quarantine reason.
func scanNeedles(r io.Reader, fn func(scanEntry)) (good int64, err error) {
	br := &countingReader{r: bufio.NewReader(r)}
	good = headerOff
	for {
		e, ok, rerr := readNeedle(br)
		if rerr != nil {
			return 0, rerr
		}
		if !ok {
			return good, nil
		}
		e.ref.NeedleOff += headerOff
		e.ref.PayloadOff += headerOff
		fn(e)
		good = headerOff + br.n
	}
}

// readNeedle reads one needle from br. ok=false means the stream ended
// (cleanly or torn) before a full structurally intact needle.
func readNeedle(br *countingReader) (e scanEntry, ok bool, err error) {
	start := br.n
	var magic [4]byte
	if _, rerr := io.ReadFull(br, magic[:]); rerr != nil {
		return e, false, nil
	}
	if string(magic[:]) != needleMagic {
		return e, false, nil
	}
	header, rerr := frame.ReadRecord(br, maxHeaderLen)
	if rerr != nil {
		return e, false, nil
	}
	name, tomb, aLen, sLen, aCRC, sCRC, herr := parseHeader(header)
	if herr != nil {
		return e, false, nil
	}
	payloadStart := br.n
	archive := make([]byte, aLen)
	if _, rerr := io.ReadFull(br, archive); rerr != nil {
		return e, false, nil
	}
	sidecar := make([]byte, sLen)
	if _, rerr := io.ReadFull(br, sidecar); rerr != nil {
		return e, false, nil
	}
	return scanEntry{
		name: name,
		tomb: tomb,
		ref: Ref{
			NeedleOff:  start,
			PayloadOff: payloadStart,
			ArchiveLen: aLen,
			SidecarLen: sLen,
			archiveCRC: aCRC,
			sidecarCRC: sCRC,
		},
	}, true, nil
}

// parseHeader decodes one CRC-verified needle header.
func parseHeader(header []byte) (name string, tomb bool, aLen, sLen int64, aCRC, sCRC uint32, err error) {
	if len(header) < 1 {
		return "", false, 0, 0, 0, 0, fmt.Errorf("%w: empty needle header", ErrCorrupt)
	}
	tomb = header[0]&1 != 0
	rest := header[1:]
	nameLen, n := binary.Uvarint(rest)
	if n <= 0 || nameLen > maxNameLen || nameLen > uint64(len(rest)-n) {
		return "", false, 0, 0, 0, 0, fmt.Errorf("%w: bad needle name length", ErrCorrupt)
	}
	rest = rest[n:]
	name = string(rest[:nameLen])
	rest = rest[nameLen:]
	a, n := binary.Uvarint(rest)
	if n <= 0 || a > maxPayload {
		return "", false, 0, 0, 0, 0, fmt.Errorf("%w: bad archive length", ErrCorrupt)
	}
	rest = rest[n:]
	s, n := binary.Uvarint(rest)
	if n <= 0 || s > maxPayload {
		return "", false, 0, 0, 0, 0, fmt.Errorf("%w: bad sidecar length", ErrCorrupt)
	}
	rest = rest[n:]
	if len(rest) != 8 {
		return "", false, 0, 0, 0, 0, fmt.Errorf("%w: bad needle header tail", ErrCorrupt)
	}
	aCRC = binary.LittleEndian.Uint32(rest[:4])
	sCRC = binary.LittleEndian.Uint32(rest[4:])
	return name, tomb, int64(a), int64(s), aCRC, sCRC, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ReadByte lets binary.ReadUvarint consume single bytes without
// wrapping the reader in another bufio layer.
func (c *countingReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}
