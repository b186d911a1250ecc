// Store: the storage side of the architecture — split documents into
// compressed skeletons plus XMILL-style value containers, persist them as
// a directory of archives, and serve repeated queries from the archive
// store: lazy decode into an LRU cache, string conditions distilled by a
// direct walk of the value containers, no XML anywhere on the serve path. This is
// the library face of what cmd/xcserve exposes over HTTP.
//
//	go run ./examples/store
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/corpus"
	"repro/internal/store"
)

func main() {
	// All work happens in run so that errors exit through a normal
	// return path and the deferred temp-dir cleanup actually runs.
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "xca-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// 1. Pack a small corpus of documents into name.xca archives
	// (cmd/xcarchive's pack-dir mode does this from *.xml files).
	for _, seed := range []uint64{9, 10, 11} {
		c, err := corpus.ByName("Baseball")
		if err != nil {
			return err
		}
		data := c.Generate(4, seed)
		a, err := container.Split(data)
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("season-%d%s", seed, store.Ext)))
		if err != nil {
			return err
		}
		if err := codec.EncodeArchive(f, a); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("packed season-%d: %d bytes of XML -> archive (skeleton %d vertices, %d containers)\n",
			seed, len(data), a.Skeleton.NumVertices(), a.Store.NumContainers())
	}

	// 2. Open the directory as a store: archives are catalogued now and
	// decoded lazily, on first query, into a byte-budgeted LRU cache.
	s, err := store.Open(dir, store.Options{CacheBytes: 64 << 20})
	if err != nil {
		return err
	}
	fmt.Printf("\nstore: %d document(s): %v\n\n", s.Len(), s.Names())

	// 3. Serve queries. Tag-only queries run on the cached instance;
	// string conditions are distilled from the value containers (and then
	// memoised), so the XML is never re-parsed — it never even exists.
	for _, q := range []string{
		`/SEASON/LEAGUE/DIVISION/TEAM/PLAYER`,          // tag-only: evaluate on the cached instance
		`//PLAYER[THROWS["Right"]]`,                    // string condition: distil from containers + merge
		`//TEAM[TEAM_CITY["Atlanta"]]/PLAYER/POSITION`, // both
	} {
		resp, err := s.Do(context.Background(), store.Request{Query: q})
		if err != nil {
			return err
		}
		if f := resp.Fanout.Failed; len(f) > 0 {
			return fmt.Errorf("%s: %s", f[0].Doc, f[0].Error)
		}
		fmt.Printf("%-46s -> %5d node(s) across %d docs\n", q, resp.Fanout.TotalMatches, len(resp.Fanout.Docs))
	}

	st := s.Stats()
	fmt.Printf("\ncache: %d/%d docs decoded (%d decode(s), %d hit(s)); %d queries served\n",
		st.Loaded, st.Docs, st.DocMisses, st.DocHits, st.Queries)
	return nil
}
