package main

import (
	"math/rand"
	"net/url"
)

type opKind uint8

const (
	opPoint  opKind = iota // GET /query?doc=D&q=Q
	opFanout               // GET /query?q=Q
	opWrite                // POST /docs/NAME
)

// op is one request, fully determined before the server starts: the
// path and query are pre-built so the timed loop does no formatting.
type op struct {
	kind    opKind
	doc     int // index into catalog.docs; -1 for a fan-out
	corpus  int // whose query
	query   int // 0-based appendix query index
	version int // opWrite: the content version posted
	path    string
}

// traffic is a workload's generated requests: the distinct read ops (what
// the verify passes cover) and the sequence the clients walk, as
// indexes into ops.
type traffic struct {
	ops      []op
	distinct []int // indexes of the read ops, each once
	seq      []int
}

func pointPath(doc, query string) string {
	return "/query?doc=" + url.QueryEscape(doc) + "&q=" + url.QueryEscape(query)
}

func fanoutPath(query string) string { return "/query?q=" + url.QueryEscape(query) }

// buildPlan derives the op sequence from seed alone: same workload and
// seed, same bytes.
func buildPlan(w *workload, cat *catalog, seed uint64) *traffic {
	rng := rand.New(rand.NewSource(int64(seed)))
	p := &traffic{}
	var points, fanouts []int
	if w.point {
		for di := range cat.docs {
			d := &cat.docs[di]
			for _, q := range d.queries {
				points = append(points, len(p.ops))
				p.ops = append(p.ops, op{
					kind: opPoint, doc: di, corpus: d.corpus, query: q,
					path: pointPath(d.name, cat.corpora[d.corpus].Queries[q]),
				})
			}
		}
	}
	if w.fanout {
		for ci, c := range cat.corpora {
			for q, text := range c.Queries {
				fanouts = append(fanouts, len(p.ops))
				p.ops = append(p.ops, op{kind: opFanout, doc: -1, corpus: ci, query: q, path: fanoutPath(text)})
			}
		}
	}
	p.distinct = append(append([]int(nil), points...), fanouts...)

	switch {
	case w.ingest:
		p.seq = ingestSequence(w, cat, p, rng, points, fanouts)
	case w.cycle:
		p.seq = append([]int(nil), p.distinct...)
		rng.Shuffle(len(p.seq), func(i, j int) { p.seq[i], p.seq[j] = p.seq[j], p.seq[i] })
	default:
		p.seq = make([]int, seqLen)
		for i := range p.seq {
			p.seq[i] = p.distinct[rng.Intn(len(p.distinct))]
		}
	}
	return p
}

// ingestSequence generates the ingest-mixed traffic: 50% replacing
// writes, 45% point reads (three in four on one of the recentNames most
// recently written documents), 5% fan-outs. Each write posts the next
// content version of its name, so a write always changes the content.
func ingestSequence(w *workload, cat *catalog, p *traffic, rng *rand.Rand, points, fanouts []int) []int {
	// pointsOf[di] lists the point ops of document di.
	pointsOf := make([][]int, len(cat.docs))
	for _, oi := range points {
		pointsOf[p.ops[oi].doc] = append(pointsOf[p.ops[oi].doc], oi)
	}
	// writeOp[di][v] is the op posting version v of document di.
	writeOp := make([][]int, len(cat.docs))
	for di := range cat.docs {
		writeOp[di] = make([]int, w.variants)
		for v := 0; v < w.variants; v++ {
			writeOp[di][v] = len(p.ops)
			p.ops = append(p.ops, op{
				kind: opWrite, doc: di, corpus: cat.docs[di].corpus, version: v,
				path: "/docs/" + url.PathEscape(cat.docs[di].name),
			})
		}
	}
	next := make([]int, len(cat.docs)) // version the next write posts
	for i := range next {
		next[i] = 1 % w.variants
	}
	// The kinds are dealt, not drawn: every 20 ops hold exactly 10
	// writes, 9 point reads and 1 fan-out, in shuffled order. A write
	// costs several reads, so a drawn share of writes moved the cost of
	// a window by about 3%. The names stay drawn: dealing each name one
	// write per round doubled the spread of the server's memory.
	kinds := make([]opKind, 0, 20)
	for len(kinds) < 20 {
		switch {
		case len(kinds) < 10:
			kinds = append(kinds, opWrite)
		case len(kinds) < 19:
			kinds = append(kinds, opPoint)
		default:
			kinds = append(kinds, opFanout)
		}
	}
	var recent []int
	seq := make([]int, seqLen)
	for i := range seq {
		if i%len(kinds) == 0 {
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		switch kinds[i%len(kinds)] {
		case opWrite:
			di := rng.Intn(len(cat.docs))
			seq[i] = writeOp[di][next[di]]
			next[di] = (next[di] + 1) % w.variants
			recent = append(recent, di)
			if len(recent) > recentNames {
				recent = recent[1:]
			}
		case opPoint:
			di := rng.Intn(len(cat.docs))
			if len(recent) > 0 && rng.Intn(4) < 3 {
				di = recent[rng.Intn(len(recent))]
			}
			seq[i] = pointsOf[di][rng.Intn(len(pointsOf[di]))]
		default:
			seq[i] = fanouts[rng.Intn(len(fanouts))]
		}
	}
	return seq
}
