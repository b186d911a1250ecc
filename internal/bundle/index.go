package bundle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/frame"
)

// Needle-index file format. The whole file is one CRC-framed payload:
//
//	payload := magic "XBI1" version bundleBytes(uvarint) deadBytes(uvarint)
//	           nEntries (entry)*
//	entry   := nameLen(uvarint) name needleOff payloadOff archiveLen
//	           sidecarLen archiveCRC(4B LE) sidecarCRC(4B LE)
//	file    := payload crc32(payload, IEEE, 4B LE)    (frame.Seal)
//
// bundleBytes is the size of the data file the index was written
// against: a mismatch on open means the data file changed after the
// index (a crash between a tombstone append and the index rewrite), so
// the index is discarded and rebuilt by scanning needle headers. The
// check makes the pair crash-consistent without ever double-writing
// payload bytes.
const (
	indexMagic = "XBI1"

	maxIndexEntries = 1 << 24
	maxIndexBytes   = 256 << 20
)

// IndexPath returns the index path paired with a bundle data path.
func IndexPath(bundlePath string) string {
	if s, ok := strings.CutSuffix(bundlePath, Ext); ok {
		return s + IndexExt
	}
	return bundlePath + IndexExt
}

// encodeIndex serialises the live-needle map.
func encodeIndex(refs map[string]Ref, bundleBytes, deadBytes int64) []byte {
	names := make([]string, 0, len(refs))
	for name := range refs {
		names = append(names, name)
	}
	sort.Strings(names)

	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }

	buf.WriteString(indexMagic)
	uv(version)
	uv(uint64(bundleBytes))
	uv(uint64(deadBytes))
	uv(uint64(len(names)))
	var crcb [4]byte
	for _, name := range names {
		r := refs[name]
		uv(uint64(len(name)))
		buf.WriteString(name)
		uv(uint64(r.NeedleOff))
		uv(uint64(r.PayloadOff))
		uv(uint64(r.ArchiveLen))
		uv(uint64(r.SidecarLen))
		binary.LittleEndian.PutUint32(crcb[:], r.archiveCRC)
		buf.Write(crcb[:])
		binary.LittleEndian.PutUint32(crcb[:], r.sidecarCRC)
		buf.Write(crcb[:])
	}
	return frame.Seal(buf.Bytes())
}

// decodeIndex parses an index file. All failures wrap ErrCorrupt; the
// caller falls back to a header scan.
func decodeIndex(data []byte) (refs map[string]Ref, bundleBytes, deadBytes int64, err error) {
	if len(data) > maxIndexBytes {
		return nil, 0, 0, fmt.Errorf("%w: index %d bytes exceeds bound", ErrCorrupt, len(data))
	}
	if len(data) < len(indexMagic)+4 {
		return nil, 0, 0, fmt.Errorf("%w: index truncated (%d bytes)", ErrCorrupt, len(data))
	}
	d, ok := frame.Unseal(data)
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: index CRC mismatch", ErrCorrupt)
	}
	if string(d[:len(indexMagic)]) != indexMagic {
		return nil, 0, 0, fmt.Errorf("%w: bad index magic", ErrCorrupt)
	}
	d = d[len(indexMagic):]
	fail := fmt.Errorf("%w: malformed index", ErrCorrupt)
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(d)
		if n <= 0 {
			return 0, false
		}
		d = d[n:]
		return v, true
	}
	v, ok := uv()
	if !ok {
		return nil, 0, 0, fail
	}
	if v != version {
		return nil, 0, 0, fmt.Errorf("%w: unsupported index version %d", ErrCorrupt, v)
	}
	bb, ok1 := uv()
	db, ok2 := uv()
	n, ok3 := uv()
	if !ok1 || !ok2 || !ok3 || n > maxIndexEntries {
		return nil, 0, 0, fail
	}
	refs = make(map[string]Ref, n)
	for i := uint64(0); i < n; i++ {
		nameLen, ok := uv()
		if !ok || nameLen > maxNameLen || nameLen > uint64(len(d)) {
			return nil, 0, 0, fail
		}
		name := string(d[:nameLen])
		d = d[nameLen:]
		var vals [4]int64
		for j := range vals {
			v, ok := uv()
			if !ok || v > uint64(bb) {
				return nil, 0, 0, fail
			}
			vals[j] = int64(v)
		}
		if len(d) < 8 {
			return nil, 0, 0, fail
		}
		r := Ref{
			NeedleOff:  vals[0],
			PayloadOff: vals[1],
			ArchiveLen: vals[2],
			SidecarLen: vals[3],
			archiveCRC: binary.LittleEndian.Uint32(d[:4]),
			sidecarCRC: binary.LittleEndian.Uint32(d[4:8]),
		}
		d = d[8:]
		if r.PayloadOff < r.NeedleOff || r.PayloadOff+r.ArchiveLen+r.SidecarLen > int64(bb) {
			return nil, 0, 0, fmt.Errorf("%w: needle %q out of bundle bounds", ErrCorrupt, name)
		}
		if _, dup := refs[name]; dup {
			return nil, 0, 0, fmt.Errorf("%w: duplicate needle %q", ErrCorrupt, name)
		}
		refs[name] = r
	}
	if len(d) != 0 {
		return nil, 0, 0, fmt.Errorf("%w: %d trailing index bytes", ErrCorrupt, len(d))
	}
	return refs, int64(bb), int64(db), nil
}

// writeIndex persists the index atomically through frame.Publish, so a
// crash leaves the old index or the new one, never a torn file.
func writeIndex(fsys fault.FS, path string, refs map[string]Ref, bundleBytes, deadBytes int64) error {
	return frame.Publish(fsys, path, frame.Bytes(encodeIndex(refs, bundleBytes, deadBytes)))
}

// loadIndex reads and validates the index paired with a bundle of
// wantBundleBytes. Any mismatch wraps ErrCorrupt; a missing file returns
// the fs error. Either way the caller rebuilds by scanning.
func loadIndex(fsys fault.FS, path string, wantBundleBytes int64) (refs map[string]Ref, deadBytes int64, err error) {
	data, err := fault.Get(fsys).ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	refs, gotBytes, deadBytes, err := decodeIndex(data)
	if err != nil {
		return nil, 0, err
	}
	if gotBytes != wantBundleBytes {
		return nil, 0, fmt.Errorf("%w: index describes a %d-byte bundle, found %d bytes (stale pairing)",
			ErrCorrupt, gotBytes, wantBundleBytes)
	}
	return refs, deadBytes, nil
}
