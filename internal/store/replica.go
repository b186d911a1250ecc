package store

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/frame"
	"repro/internal/synopsis"
)

// ReplicaPayload reads the durable bytes of a catalogued document for
// replication to a peer: the encoded archive and, when one exists, its
// .xcs sidecar — the exact bytes a peer can verify by CRC, publish
// (frame.Publish) and serve, whichever tier they come from. Loose documents
// read the archive file and sidecar file; bundled documents read the
// needle's archive and sidecar sections (replication un-bundles: the
// receiving peer lands the copy as a loose archive and re-packs on its
// own schedule). A live (memtable-only) document is not durable yet and
// returns an error — the replicator is driven by the compactor's
// publish step, which only names documents that just became durable.
func (s *Store) ReplicaPayload(name string) (archive, sidecar []byte, err error) {
	s.mu.Lock()
	e, ok := s.entries[name]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("store: no durable document %q", name)
	}
	if e.b != nil {
		archive, err = e.b.Archive(name)
		if err != nil {
			return nil, nil, fmt.Errorf("store: replica payload of %q: %w", name, err)
		}
		if data, ok, serr := e.b.Sidecar(name); serr == nil && ok {
			sidecar = data
		}
		return archive, sidecar, nil
	}
	archive, err = s.fs.ReadFile(e.path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: replica payload of %q: %w", name, err)
	}
	sidecar, err = s.fs.ReadFile(synopsis.SidecarPath(e.path))
	if err != nil {
		if !os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("store: replica sidecar of %q: %w", name, err)
		}
		sidecar = nil
	}
	return archive, sidecar, nil
}

// AcceptReplica lands a replica payload shipped by a peer: the archive
// bytes are published (frame.Publish) as a loose .xca, the sidecar (when
// sent and decodable against this store's dictionary) is published next
// to it, and the document is swapped into the catalog exactly like a
// compaction publish. The synopsis comes from the shipped sidecar when
// its pairing matches, else it is rebuilt from the archive — a replica
// is never catalogued without the same index coverage a local document
// gets. The caller has already CRC-verified the payload; this method
// still decodes defensively, so a payload that passed CRC but is not a
// well-formed archive is rejected, not catalogued.
func (s *Store) AcceptReplica(name string, archive, sidecar []byte) error {
	if err := ValidateDocName(name); err != nil {
		return err
	}
	path := s.archivePath(name)
	if err := frame.Publish(s.fs, path, frame.Bytes(archive)); err != nil {
		return fmt.Errorf("store: landing replica %q: %w", name, err)
	}
	var syn *synopsis.Synopsis
	if s.syn != nil {
		dict := s.syn.Dict()
		if len(sidecar) > 0 {
			if got, archiveBytes, err := synopsis.DecodeSidecar(sidecar, dict); err == nil && archiveBytes == int64(len(archive)) {
				syn = got
				if err := frame.Publish(s.fs, synopsis.SidecarPath(path), frame.Bytes(sidecar)); err != nil {
					s.m.synWriteErrs.Inc()
				}
			}
		}
		if syn == nil {
			// No sidecar shipped (sender had synopses off) or it failed
			// to pair: rebuild from the archive we just wrote, the same
			// one-time migration Open performs.
			var werr error
			syn, werr = buildSidecar(s.fs, path, int64(len(archive)), dict)
			if syn == nil {
				// The archive itself is undecodable: unlink the corpse so
				// a garbage payload cannot poison the next open.
				_ = s.fs.Remove(path)
				return fmt.Errorf("store: replica %q is not a decodable archive: %w", name, werr)
			}
			s.m.synBuilds.Inc()
			if werr != nil {
				s.m.synWriteErrs.Inc()
			}
		}
	} else if err := s.probeArchive(path); err != nil {
		_ = s.fs.Remove(path)
		return fmt.Errorf("store: replica %q failed verification: %w", name, err)
	}
	return s.AddArchive(name, path, nil, syn)
}

// archivePath is where name's loose archive lives under the store.
func (s *Store) archivePath(name string) string {
	return filepath.Join(s.dir, name+Ext)
}
