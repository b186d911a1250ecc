// Package frame is the one durable-write discipline of the store's
// on-disk formats, over fault.FS so the torture harnesses reach every
// call:
//
//   - Publish lands a whole file atomically: temp file in the target's
//     directory, write, fsync, close, rename, fsync the directory. A
//     crash leaves the old file or the new one, never a torn one, and
//     the rename itself survives a power cut. Archives, sidecars,
//     bundle indexes, landed replicas and the compacted pending log all
//     go through it.
//   - OpenAppend opens an append-only log (WAL segment, pending log),
//     fsyncing the directory when the file is new.
//   - AppendRecord/ReadRecord frame one record as
//     bodyLen(uvarint) crc32(4B LE, IEEE, over body) body — the WAL
//     record and the bundle needle header.
//   - Seal/Unseal add and check a payload+crc32 trailer — the synopsis
//     sidecar and the bundle index.
//
// Formats with different bytes keep their own framing: the codec's XCK1
// footer, the pending log's JSON lines with CRC32C in hex, and the
// replica HTTP frame.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fault"
)

// Publish writes path atomically through write: a temp file in path's
// directory receives the bytes, is fsynced, closed and renamed over
// path, and the directory is fsynced so the new entry is durable. On
// any failure the temp file is removed and every error met is returned
// (joined); path is then untouched, except that a failed directory
// fsync leaves the renamed file in place without the durability
// guarantee.
func Publish(fsys fault.FS, path string, write func(io.Writer) error) error {
	fsys = fault.Get(fsys)
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	// CreateTemp makes the file 0600; published files are read by the
	// same tools as OpenAppend's and xcarchive's, so they get 0644 too.
	err = tmp.Chmod(0o644)
	if err == nil {
		err = write(tmp)
	}
	if err == nil {
		err = tmp.Sync()
	}
	err = errors.Join(err, tmp.Close())
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		return errors.Join(err, fsys.Remove(tmp.Name()))
	}
	return SyncDir(fsys, dir)
}

// Bytes is a Publish body that writes b verbatim.
func Bytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// SyncDir fsyncs a directory so entries created, renamed or removed in
// it are durable.
func SyncDir(fsys fault.FS, dir string) error {
	f, err := fault.Get(fsys).Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}

// OpenAppend opens (creating if needed) the append-only file at path
// and returns it with its current size. When the file is empty — just
// created — its directory is fsynced before OpenAppend returns: without
// that, a power cut can drop the whole file, and every fsynced record
// in it, no matter how diligently appends sync the file.
func OpenAppend(fsys fault.FS, path string) (fault.File, int64, error) {
	fsys = fault.Get(fsys)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() == 0 {
		err = SyncDir(fsys, filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// ErrTorn is ReadRecord's answer to a record that ends mid-frame,
// declares a body over the caller's bound, or fails its CRC.
var ErrTorn = errors.New("frame: torn or corrupt record")

// AppendRecord appends body to buf framed as
// bodyLen(uvarint) crc32(4B LE, IEEE, over body) body.
func AppendRecord(buf, body []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	return append(buf, body...)
}

// Reader is what ReadRecord reads from: a bufio.Reader, or any reader
// that can hand out single bytes for the length varint.
type Reader interface {
	io.Reader
	io.ByteReader
}

// ReadRecord reads one record AppendRecord framed and returns its body.
// io.EOF means the stream ended cleanly at a record boundary; a body
// longer than max is refused before anything is allocated for it. Any
// other failure is ErrTorn. The body grows as its bytes arrive, so a
// torn tail whose length field is garbage costs an allocation in
// proportion to the bytes actually there, not to the length it declares.
func ReadRecord(r Reader, max uint64) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrTorn
	}
	if n > max {
		return nil, ErrTorn
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return nil, ErrTorn
	}
	body, err := readBody(r, n)
	if err != nil {
		return nil, ErrTorn
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcb[:]) {
		return nil, ErrTorn
	}
	return body, nil
}

// bodyChunk is the most ReadRecord allocates for a body before any of
// it has been read.
const bodyChunk = 64 << 10

// readBody reads exactly n bytes, doubling its buffer as bytes arrive
// rather than trusting n up front.
func readBody(r io.Reader, n uint64) ([]byte, error) {
	body := make([]byte, min(n, bodyChunk))
	read := 0
	for {
		if _, err := io.ReadFull(r, body[read:]); err != nil {
			return nil, err
		}
		read = len(body)
		if uint64(read) == n {
			return body, nil
		}
		body = append(body, make([]byte, min(n-uint64(read), uint64(read)))...)
	}
}

// Seal appends payload's crc32 (IEEE, 4B LE) to it: the trailer of a
// file that is one CRC-framed payload.
func Seal(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
}

// Unseal checks and strips the trailer Seal appended. ok is false when
// data is shorter than the trailer or fails its CRC.
func Unseal(data []byte) (payload []byte, ok bool) {
	if len(data) < 4 {
		return nil, false
	}
	payload = data[:len(data)-4]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, false
	}
	return payload, true
}
