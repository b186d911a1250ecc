package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/frame"
)

// pendingLog is the WAL backing the replication queue: an append-only
// file of CRC-framed records under <store>/cluster/pending.log, so a
// restart never loses a transfer the compactor already promised. Each
// record is one line — JSON body, a tab, the body's CRC32C in hex —
// replayed at open with torn-tail tolerance (everything after the first
// unverifiable line is discarded, exactly like the ingest WAL's
// contract). The live state it rebuilds is a set of (doc, peer)
// transfers still owed; once the done records outnumber the pending
// set the log is compacted by rewrite (frame.Publish).
type pendingLog struct {
	fs   fault.FS
	path string

	mu      sync.Mutex
	f       fault.File
	pending map[transferKey]transfer
	garbage int // superseded records written since the last compaction
}

// transfer is one owed replication: ship doc to peer (or, for a
// tombstone, tell peer to erase it).
type transfer struct {
	Doc  string `json:"doc"`
	Peer string `json:"peer"`
	Tomb bool   `json:"tomb,omitempty"`
}

// transferKey identifies a transfer: re-enqueueing the same (doc, peer)
// supersedes the previous record (latest version wins — shipping the
// current payload twice is idempotent, shipping a stale one never
// happens because payloads are read at send time).
type transferKey struct {
	doc  string
	peer string
}

// pendingRecord is one log line's body.
type pendingRecord struct {
	Op string `json:"op"` // "add" or "done"
	transfer
}

var pendingCRC = crc32.MakeTable(crc32.Castagnoli)

// compactThreshold is how much garbage (done or superseded records)
// accumulates before the log is rewritten in place.
const compactThreshold = 256

// openPendingLog opens (creating if needed) the pending-replication
// log under dir and replays it.
func openPendingLog(fsys fault.FS, dir string) (*pendingLog, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: pending log dir: %w", err)
	}
	l := &pendingLog{
		fs:      fsys,
		path:    filepath.Join(dir, "pending.log"),
		pending: make(map[transferKey]transfer),
	}
	if err := l.replay(); err != nil {
		return nil, err
	}
	f, _, err := frame.OpenAppend(fsys, l.path)
	if err != nil {
		return nil, fmt.Errorf("cluster: opening pending log: %w", err)
	}
	l.f = f
	return l, nil
}

// replay rebuilds the pending set from the log. A line that fails its
// CRC (torn tail after a crash) ends the replay; everything before it
// is trusted, and the file is truncated to the verified prefix so the
// tear cannot shadow future appends.
func (l *pendingLog) replay() error {
	data, err := l.fs.ReadFile(l.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("cluster: reading pending log: %w", err)
	}
	valid := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		rec, ok := parsePendingLine(line)
		if !ok {
			break
		}
		l.apply(rec)
		valid += len(line) + 1
	}
	if valid < len(data) {
		if err := l.fs.Truncate(l.path, int64(valid)); err != nil {
			return fmt.Errorf("cluster: truncating torn pending log: %w", err)
		}
	}
	return nil
}

// parsePendingLine verifies and decodes one log line.
func parsePendingLine(line []byte) (pendingRecord, bool) {
	var rec pendingRecord
	tab := bytes.LastIndexByte(line, '\t')
	if tab < 0 {
		return rec, false
	}
	body, sum := line[:tab], line[tab+1:]
	if fmt.Sprintf("%08x", crc32.Checksum(body, pendingCRC)) != string(sum) {
		return rec, false
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, false
	}
	return rec, true
}

// pendingLine renders one record as a log line: JSON body, a tab, the
// body's CRC32C in hex, a newline.
func pendingLine(rec pendingRecord) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(body, "\t%08x\n", crc32.Checksum(body, pendingCRC)), nil
}

// apply folds one record into the live set.
func (l *pendingLog) apply(rec pendingRecord) {
	key := transferKey{doc: rec.Doc, peer: rec.Peer}
	switch rec.Op {
	case "add":
		if _, dup := l.pending[key]; dup {
			l.garbage++ // superseded add
		}
		l.pending[key] = rec.transfer
	case "done":
		delete(l.pending, key)
		l.garbage += 2 // the add and the done are both dead weight now
	}
}

// append writes one record durably (fsync per append: the queue is low
// rate — one record per published document per peer — and a lost
// record is a lost replica). A closed log is an error, not a panic —
// a late Published hook during shutdown must not crash the flush.
func (l *pendingLog) append(rec pendingRecord) error {
	if l.f == nil {
		return fmt.Errorf("cluster: pending log closed")
	}
	line, err := pendingLine(rec)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("cluster: appending pending log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("cluster: syncing pending log: %w", err)
	}
	return nil
}

// Add records a transfer owed. Safe for concurrent use. The in-memory
// pending set is updated before the durable append, so even when the
// append fails (disk fault, closed log) drain still attempts delivery
// for this process's lifetime — the error only reports the durability
// gap across a restart.
func (l *pendingLog) Add(t transfer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.apply(pendingRecord{Op: "add", transfer: t})
	return l.append(pendingRecord{Op: "add", transfer: t})
}

// Done records a transfer delivered, compacting the log once enough
// garbage has accumulated. The in-memory set drops the transfer even
// when the append fails: delivery already happened, and losing the
// done record only costs one idempotent re-send at the next start.
func (l *pendingLog) Done(t transfer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.apply(pendingRecord{Op: "done", transfer: t})
	if err := l.append(pendingRecord{Op: "done", transfer: t}); err != nil {
		return err
	}
	if l.garbage >= compactThreshold {
		return l.compactLocked()
	}
	return nil
}

// Pending snapshots the owed transfers, sorted (doc, then peer) so
// retry order is deterministic.
func (l *pendingLog) Pending() []transfer {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pendingSortedLocked()
}

// Len returns the owed-transfer count (the replication-lag gauge).
func (l *pendingLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// compactLocked rewrites the log with only the live pending set
// through frame.Publish. Caller holds l.mu.
func (l *pendingLog) compactLocked() error {
	err := frame.Publish(l.fs, l.path, func(w io.Writer) error {
		for _, t := range l.pendingSortedLocked() {
			line, err := pendingLine(pendingRecord{Op: "add", transfer: t})
			if err != nil {
				return err
			}
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cluster: compacting pending log: %w", err)
	}
	// Reopen the append handle on the fresh file; the old descriptor
	// points at the unlinked inode.
	f, _, err := frame.OpenAppend(l.fs, l.path)
	if err != nil {
		return fmt.Errorf("cluster: reopening pending log: %w", err)
	}
	l.f.Close()
	l.f = f
	l.garbage = 0
	return nil
}

// pendingSortedLocked is Pending without the lock round.
func (l *pendingLog) pendingSortedLocked() []transfer {
	out := make([]transfer, 0, len(l.pending))
	for _, t := range l.pending {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Doc != out[j].Doc {
			return out[i].Doc < out[j].Doc
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// Close closes the append handle.
func (l *pendingLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
