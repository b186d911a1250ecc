package main

// The four workloads. Sizes are constants: a run is comparable with
// another only if both generated the same catalog shape, so nothing
// here is a flag. bench/README.md records the measured sizes and why
// each workload exists.

// docSet is count documents of one corpus at mul times its default
// scale.
type docSet struct {
	corpus string
	mul    float64
	count  int
	// queries are the 0-based appendix query indexes (Q1 = 0) point
	// operations use on these documents.
	queries []int
}

type workload struct {
	name string
	why  string
	docs []docSet

	// point: one GET /query?doc=D&q=Q per (document, query) pair.
	// fanout: one GET /query?q=Q per (corpus, Q1..Q5) pair.
	point, fanout bool
	// cycle: the op sequence is a shuffled cycle of the distinct ops
	// (every op equally often); otherwise ops are drawn uniformly with
	// replacement.
	cycle bool

	// fixedCorpus generates the documents from corpusSeed whatever the
	// run seed, which then only orders the ops. For a catalog too small
	// to average out the generators' variance: 8 documents moved
	// ops_per_s by 4% and server memory by 9% from seed to seed, against
	// 1% and 2% between runs of one seed.
	fixedCorpus bool

	// cacheBytes is the server's -cache-bytes; 0 keeps the default
	// 256 MiB.
	cacheBytes int64
	// bundle: pack-bundle after pack-dir with -bundle-max-doc set to the
	// median archive size, so about half the catalog is bundled.
	bundle bool

	// ingest: the server runs the write path; documents arrive by POST
	// and half the ops replace one. variants is how many content
	// versions each name cycles through (version 0 is the base load).
	ingest   bool
	variants int
}

var allQueries = []int{0, 1, 2, 3, 4}

const (
	// seqLen is the length of a drawn (non-cycle) op sequence; the
	// clients wrap around it. It exceeds what 2 clients complete in the
	// warm and measured phases together on the sizing box.
	seqLen = 16384

	// ingestMemtableBytes seals the memtable about every 40 writes of
	// the ingest-mixed documents, so a measured phase sees several
	// compactions; they are driven by bytes written, not by a timer.
	ingestMemtableBytes = 4 << 20

	// corpusSeed generates the documents of fixedCorpus workloads.
	corpusSeed = 1

	// recentNames is how many most-recently-written names an
	// ingest-mixed point query favours, and recentShare (in quarters)
	// how often it does.
	recentNames = 8
)

var workloads = []workload{
	{
		name: "hot-eval",
		why:  "8 large cached documents, 28 point queries: overlay evaluation, string-condition memo and result materialization do the work; decode, synopsis and ingest are idle",
		docs: []docSet{
			{corpus: "TreeBank", mul: 0.5, count: 2, queries: allQueries},
			{corpus: "DBLP", mul: 8, count: 2, queries: []int{2, 3, 4}},
			{corpus: "XMark", mul: 8, count: 2, queries: []int{2, 3, 4}},
			{corpus: "SwissProt", mul: 4, count: 2, queries: []int{2, 3, 4}},
		},
		point:       true,
		cycle:       true,
		fixedCorpus: true,
	},
	{
		name: "cold-decode",
		why:  "400 documents, half bundled, cache at 1/8 of the decoded set: almost every point query pays read, codec decode, event replay, skeleton build and freeze before a cheap evaluation",
		docs: []docSet{
			{corpus: "SwissProt", mul: 0.1, count: 100, queries: allQueries},
			{corpus: "DBLP", mul: 0.1, count: 100, queries: allQueries},
			{corpus: "Shakespeare", mul: 0.1, count: 100, queries: allQueries},
			{corpus: "Baseball", mul: 0.1, count: 100, queries: allQueries},
		},
		point:      true,
		cacheBytes: coldCacheBytes,
		bundle:     true,
	},
	{
		name: "fanout-catalog",
		why:  "400 small cached documents, 20 catalog-wide queries: compile cache, planner, synopsis pruning and direct answers, store fan-out and 400-entry JSON bodies do the work; decode is absent",
		docs: []docSet{
			{corpus: "SwissProt", mul: 0.05, count: 100},
			{corpus: "DBLP", mul: 0.05, count: 100},
			{corpus: "Shakespeare", mul: 0.05, count: 100},
			{corpus: "Baseball", mul: 0.05, count: 100},
		},
		fanout: true,
		cycle:  true,
	},
	{
		name: "ingest-mixed",
		why:  "64 names, 50% replacing POSTs (fsync per write), 45% point reads favouring fresh names, 5% fan-outs: the read path beside WAL append, split, memtable publish, compaction and plan invalidation",
		docs: []docSet{
			{corpus: "SwissProt", mul: 0.1, count: 16, queries: allQueries},
			{corpus: "DBLP", mul: 0.1, count: 16, queries: allQueries},
			{corpus: "Shakespeare", mul: 0.1, count: 16, queries: allQueries},
			{corpus: "Baseball", mul: 0.1, count: 16, queries: allQueries},
		},
		point:    true,
		fanout:   true,
		ingest:   true,
		variants: 4,
	},
}

// coldCacheBytes is cold-decode's -cache-bytes: about 1/8 of the
// decoded working set (the sum of the store's per-document mem_bytes
// with everything loaded, measured at 40 MiB on seed 1).
const coldCacheBytes = 5 << 20

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
