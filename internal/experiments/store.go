package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/store"
)

// StoreRow is one measurement of the server-throughput experiment: one
// query fanned out over an archive store at a given worker count and
// cache budget, against the parse-per-query baseline at the same
// parallelism.
type StoreRow struct {
	Corpus  string
	Query   int // 1..5
	Docs    int
	Workers int

	CacheBytes int64   // budget used for this row
	CacheFrac  float64 // budget as a fraction of the full decoded corpus

	// ParseWall fans the query out with core.Pool over the raw XML,
	// re-parsing per query (the paper's prototype mode); StoreWall serves
	// the same query from the warm archive store. Speedup is their ratio.
	ParseWall time.Duration
	StoreWall time.Duration
	Speedup   float64

	// StoreAllocs is the heap allocations per document-query of the
	// measured warm store run (runtime.MemStats delta / docs).
	StoreAllocs uint64

	// Store cache activity during the measured run.
	Hits, Misses, Evictions uint64

	// Path-synopsis pruning during the measured run. A single-corpus
	// sweep usually prunes nothing (every document shares the
	// vocabulary); the mixed-corpus prune sweep (PruneSweep) is where
	// these move. FullWall re-times the same query on an identical store
	// with the index disabled; PruneSpeedup = FullWall / StoreWall.
	DocsPruned   int
	PruneRatio   float64
	FullWall     time.Duration
	PruneSpeedup float64

	SelectedTree uint64 // summed matches (verified equal on both paths)
}

// StoreSweep packs `docs` generated documents of the named corpus into a
// temporary archive directory, then measures serving throughput: every
// corpus query fanned over the store (store.QueryAll, warm caches) versus
// parse-per-query evaluation of the same XML (core.Pool without
// PrepareBatch), sweeping worker counts and cache budgets. cacheFractions
// scales budgets off the decoded corpus size (1.0 = everything fits;
// 0.25 = a quarter, forcing eviction churn); nil means {1.0}. The results
// of the two paths are verified identical before a row is reported.
func StoreSweep(corpusName string, docs int, sizeScale float64, seed uint64,
	workerCounts []int, cacheFractions []float64) ([]StoreRow, error) {
	c, err := corpus.ByName(corpusName)
	if err != nil {
		return nil, err
	}
	if docs < 1 {
		return nil, fmt.Errorf("store sweep: need at least 1 document, got %d", docs)
	}
	if len(workerCounts) == 0 {
		return nil, fmt.Errorf("store sweep: no worker counts given")
	}
	if len(cacheFractions) == 0 {
		cacheFractions = []float64{1.0}
	}

	dir, err := os.MkdirTemp("", "xcstore-sweep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	generated := make([][]byte, docs)
	for i := range generated {
		generated[i] = c.Generate(scaled(c.DefaultScale, sizeScale), seed+uint64(i))
		a, err := container.Split(generated[i])
		if err != nil {
			return nil, fmt.Errorf("store sweep: splitting doc %d: %w", i, err)
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("doc%03d%s", i, store.Ext)))
		if err != nil {
			return nil, err
		}
		if err := codec.EncodeArchive(f, a); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}

	// Size the decoded corpus once, with an unconstrained store warmed
	// through every query, so the figure includes the merged-instance
	// memos that string-condition queries add to each document's charge.
	probe, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	for _, q := range c.Queries {
		if _, err := probe.QueryAll(q); err != nil {
			return nil, fmt.Errorf("store sweep: probing %s: %w", q, err)
		}
	}
	totalMem := probe.Stats().CacheBytes

	var rows []StoreRow
	for _, frac := range cacheFractions {
		budget := int64(frac * float64(totalMem))
		if budget < 1 {
			budget = 1
		}
		for _, w := range workerCounts {
			s, err := store.Open(dir, store.Options{CacheBytes: budget, Workers: w})
			if err != nil {
				return nil, err
			}
			// An identical store with the index off re-times queries
			// unpruned — opened and warmed lazily, only once a query
			// actually prunes: a single-corpus sweep never does, and
			// paying a second store per configuration for a column that
			// would be pure noise there doubles the bench for nothing.
			var sFull *store.Store
			ensureFull := func() (*store.Store, error) {
				if sFull != nil {
					return sFull, nil
				}
				sf, err := store.Open(dir, store.Options{CacheBytes: budget, Workers: w, DisableSynopsis: true})
				if err != nil {
					return nil, err
				}
				for _, q := range c.Queries {
					if _, err := sf.QueryAll(q); err != nil {
						return nil, fmt.Errorf("store sweep: warming full %s: %w", q, err)
					}
				}
				sFull = sf
				return sf, nil
			}
			pool := core.NewPool(w)
			for i, doc := range generated {
				pool.Add(fmt.Sprintf("doc%03d", i), doc)
			}
			// Warm pass: decode what fits, populate the program cache.
			for _, q := range c.Queries {
				if _, err := s.QueryAll(q); err != nil {
					return nil, fmt.Errorf("store sweep: warming %s: %w", q, err)
				}
			}
			for qi, q := range c.Queries {
				before := s.Stats()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				t0 := time.Now()
				served, err := s.QueryAll(q)
				if err != nil {
					return nil, fmt.Errorf("store sweep: %s Q%d: %w", corpusName, qi+1, err)
				}
				storeWall := time.Since(t0)
				runtime.ReadMemStats(&ms1)
				storeAllocs := (ms1.Mallocs - ms0.Mallocs) / uint64(docs)
				after := s.Stats()

				var fullWall time.Duration
				if after.PrunePruned > before.PrunePruned {
					sf, err := ensureFull()
					if err != nil {
						return nil, err
					}
					t2 := time.Now()
					if _, err := sf.QueryAll(q); err != nil {
						return nil, fmt.Errorf("store sweep: %s Q%d full scan: %w", corpusName, qi+1, err)
					}
					fullWall = time.Since(t2)
				}

				t1 := time.Now()
				parsed, err := pool.QueryAll(q)
				if err != nil {
					return nil, fmt.Errorf("store sweep: %s Q%d baseline: %w", corpusName, qi+1, err)
				}
				parseWall := time.Since(t1)

				var servedSel, parsedSel uint64
				for _, r := range served {
					if r.Err != nil {
						return nil, fmt.Errorf("store sweep: %s Q%d doc %s: %w", corpusName, qi+1, r.Name, r.Err)
					}
					servedSel += r.Result.SelectedTree
				}
				for _, r := range parsed {
					if r.Err != nil {
						return nil, fmt.Errorf("store sweep: %s Q%d baseline doc %s: %w", corpusName, qi+1, r.Name, r.Err)
					}
					parsedSel += r.Result.SelectedTree
				}
				if servedSel != parsedSel {
					return nil, fmt.Errorf("store sweep: %s Q%d: served %d nodes, parse-per-query %d",
						corpusName, qi+1, servedSel, parsedSel)
				}

				row := StoreRow{
					Corpus: corpusName, Query: qi + 1, Docs: docs, Workers: w,
					CacheBytes: budget, CacheFrac: frac,
					ParseWall: parseWall, StoreWall: storeWall,
					Speedup:      float64(parseWall) / float64(storeWall),
					StoreAllocs:  storeAllocs,
					Hits:         after.DocHits - before.DocHits,
					Misses:       after.DocMisses - before.DocMisses,
					Evictions:    after.Evictions - before.Evictions,
					DocsPruned:   int(after.PrunePruned - before.PrunePruned),
					FullWall:     fullWall,
					SelectedTree: servedSel,
				}
				if considered := after.PruneConsidered - before.PruneConsidered; considered > 0 {
					row.PruneRatio = float64(row.DocsPruned) / float64(considered)
				}
				// Only report a pruning speedup when pruning happened;
				// otherwise the ratio of two identical scans is noise
				// (and would trip -compare's regression check).
				if row.DocsPruned > 0 {
					row.PruneSpeedup = float64(fullWall) / float64(storeWall)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// PrintStore renders sweep rows as a table.
func PrintStore(w io.Writer, rows []StoreRow) {
	fmt.Fprintf(w, "%-12s %3s %5s %8s %6s %12s %12s %8s %9s %6s %7s %6s %6s %8s %11s\n",
		"corpus", "Q", "docs", "workers", "cache", "parse/query", "store", "speedup", "allocs/op", "hits", "misses", "evict", "pruned", "prn-spd", "sel(tree)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %3d %5d %8d %5.0f%% %12v %12v %7.2fx %9d %6d %7d %6d %6d %7.2fx %11d\n",
			r.Corpus, r.Query, r.Docs, r.Workers, 100*r.CacheFrac,
			r.ParseWall.Round(time.Microsecond), r.StoreWall.Round(time.Microsecond),
			r.Speedup, r.StoreAllocs, r.Hits, r.Misses, r.Evictions,
			r.DocsPruned, r.PruneSpeedup, r.SelectedTree)
	}
}
