package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// PeerQuery is the body of POST /cluster/query: the query text and the
// *global* paths budget. The peer compiles the text itself (through its
// program cache), prunes from that program's signature exactly as a
// single node does, and renders each document independently up to Max;
// the router re-applies the shared budget after the merge.
type PeerQuery struct {
	Query string `json:"query"`
	Max   int    `json:"max"`
}

// Router fans a catalog-wide query out to every live peer and merges
// the partial fan-outs into one response indistinguishable from a
// single node holding the union catalog. Failures degrade per peer: a
// shed (429), timed-out (504 or transport deadline) or unreachable peer
// contributes per-document error entries for the documents only it
// could have answered — the request as a whole still succeeds, exactly
// like the single-node degraded-serving contract.
type Router struct {
	self    string
	st      *store.Store
	mem     *Membership
	client  *http.Client
	ringFn  func() *Ring
	rf      int
	timeout time.Duration
	m       *clusterMetrics
}

// peerAnswer is one target's contribution to a scatter.
type peerAnswer struct {
	peer       string
	resp       *store.FanoutResponse
	err        error  // transport or decode failure
	status     int    // HTTP status when the peer answered non-200
	retryAfter string // Retry-After from a 429
	timedOut   bool
}

// QueryAll runs one clustered fan-out: compile locally (a bad query
// fails fast without touching the network), scatter the query to every
// live peer while this node evaluates its own catalog, merge with
// replica dedup, re-apply the global paths budget in catalog order.
func (rt *Router) QueryAll(ctx context.Context, query string, max int) (*store.FanoutResponse, error) {
	if _, err := rt.st.Program(query); err != nil {
		return nil, err
	}
	start := time.Now()
	rt.m.scatters.Inc()
	if rt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.timeout)
		defer cancel()
	}

	peers := rt.mem.UpPeers()
	answers := make([]peerAnswer, len(peers)+1)
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			answers[i+1] = rt.askPeer(ctx, p, query, max)
		}(i, p)
	}
	// This node's leg runs the same request a peer's /cluster/query does.
	local, lerr := rt.st.Do(ctx, store.Request{Query: query, Max: max, PerDoc: true})
	answers[0] = peerAnswer{peer: rt.self, err: lerr, timedOut: errors.Is(lerr, context.DeadlineExceeded)}
	if lerr == nil {
		answers[0].resp = local.Fanout
	}
	wg.Wait()

	resp := rt.merge(query, max, answers)
	resp.WallNanos = int64(time.Since(start))
	rt.m.scatter.ObserveSince(start)
	return resp, nil
}

// askPeer sends one scatter request.
func (rt *Router) askPeer(ctx context.Context, peer, query string, max int) peerAnswer {
	ans := peerAnswer{peer: peer}
	body, err := json.Marshal(PeerQuery{Query: query, Max: max})
	if err != nil {
		ans.err = err
		return ans
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/cluster/query", bytes.NewReader(body))
	if err != nil {
		ans.err = err
		return ans
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		ans.err = err
		ans.timedOut = errors.Is(err, context.DeadlineExceeded)
		return ans
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var fr store.FanoutResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&fr); err != nil {
			ans.err = fmt.Errorf("decoding peer response: %w", err)
			return ans
		}
		ans.resp = &fr
	case http.StatusTooManyRequests:
		ans.status = resp.StatusCode
		ans.retryAfter = resp.Header.Get("Retry-After")
	case http.StatusGatewayTimeout:
		ans.status = resp.StatusCode
		ans.timedOut = true
	default:
		ans.status = resp.StatusCode
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		ans.err = fmt.Errorf("peer answered %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return ans
}

// merge folds the per-target answers into one FanoutResponse:
//
//   - every healthy per-document result is a merge candidate; when
//     replicas answered for the same document, the first healthy owner
//     in ring preference order wins and the duplicates are discarded,
//   - a failed peer's documents (its last-known catalog, from the
//     membership prober) that no replica covered become per-document
//     error entries — with the Retry-After hint preserved for sheds —
//     and the peer is marked suspect for timeouts and transport errors,
//   - the surviving documents are sorted into global catalog order and
//     the shared paths budget is re-applied, reproducing the
//     single-node truncation byte for byte.
func (rt *Router) merge(query string, max int, answers []peerAnswer) *store.FanoutResponse {
	byDoc := make(map[string]map[string]store.QueryResponse) // doc → peer → result
	failedBy := make(map[string]store.FanoutError)           // doc → error entry (no healthy result)
	answered := make(map[string]bool)                        // peers that returned a response
	for _, ans := range answers {
		if ans.resp == nil {
			continue
		}
		answered[ans.peer] = true
		for _, qr := range ans.resp.Docs {
			// A buggy or version-skewed peer must degrade, not panic:
			// Ring.Owners (via pick) rejects unvalidated names hard, so
			// drop anything a peer returned that no catalog could hold.
			if err := store.ValidateDocName(qr.Doc); err != nil {
				log.Printf("cluster: dropping invalid document name from peer %s: %v", ans.peer, err)
				continue
			}
			m := byDoc[qr.Doc]
			if m == nil {
				m = make(map[string]store.QueryResponse)
				byDoc[qr.Doc] = m
			}
			m[ans.peer] = qr
		}
		for _, fe := range ans.resp.Failed {
			if _, dup := failedBy[fe.Doc]; !dup {
				failedBy[fe.Doc] = fe
			}
		}
	}

	// Degrade the targets that failed: attribute their last-known
	// documents, preserve shed hints, and feed the health tracker.
	for _, ans := range answers {
		if ans.resp != nil {
			continue
		}
		rt.notePeerFailure(ans)
		msg := rt.failureMessage(ans)
		for _, doc := range rt.lastKnownDocs(ans.peer) {
			if byDoc[doc] != nil {
				continue // a replica covered it
			}
			if _, dup := failedBy[doc]; dup {
				continue
			}
			failedBy[doc] = store.FanoutError{Doc: doc, Error: msg, RetryAfter: ans.retryAfter}
		}
	}

	ring := rt.ringFn()
	resp := &store.FanoutResponse{Query: query, Docs: []store.QueryResponse{}, Workers: rt.st.Workers()}
	docs := make([]string, 0, len(byDoc))
	for doc := range byDoc {
		docs = append(docs, doc)
		delete(failedBy, doc) // healthy result beats a failure entry
	}
	sort.Strings(docs)
	remaining := max
	for _, doc := range docs {
		candidates := byDoc[doc]
		qr := rt.pick(ring, doc, candidates)
		rt.m.mergedDocs.Inc()
		for i := 1; i < len(candidates); i++ {
			rt.m.dedupedDocs.Inc()
		}
		if len(qr.Paths) > remaining {
			qr.Paths = qr.Paths[:remaining]
		}
		if remaining == 0 && qr.Direct {
			// A synopsis-direct document past budget exhaustion never
			// runs the lazy evaluation on a single node (Paths(0) skips
			// the fallback), so its engine stats stay zero there; the
			// peer rendered with the full per-document cap, so mirror
			// the single-node shape.
			qr.SelectedDAG, qr.VertsBefore, qr.EdgesBefore = 0, 0, 0
			qr.VertsAfter, qr.EdgesAfter = 0, 0
			qr.PrepNanos, qr.EvalNanos = 0, 0
		}
		remaining -= len(qr.Paths)
		if qr.Pruned {
			resp.Pruned++
		}
		if qr.Direct {
			resp.Direct++
		}
		resp.Docs = append(resp.Docs, qr)
		resp.TotalMatches += qr.Matches
	}
	for _, fe := range failedBy {
		resp.Failed = append(resp.Failed, fe)
		rt.m.degradedDocs.Inc()
	}
	sort.Slice(resp.Failed, func(i, j int) bool { return resp.Failed[i].Doc < resp.Failed[j].Doc })
	return resp
}

// pick chooses one candidate result for doc: the first healthy owner in
// ring preference order, falling back to the lexicographically first
// answering peer when no owner answered (a document parked on a
// non-owner, e.g. mid-rebalance).
func (rt *Router) pick(ring *Ring, doc string, candidates map[string]store.QueryResponse) store.QueryResponse {
	if ring != nil {
		for _, owner := range ring.Owners(doc, rt.rf) {
			if qr, ok := candidates[owner]; ok {
				return qr
			}
		}
	}
	peers := make([]string, 0, len(candidates))
	for p := range candidates {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	return candidates[peers[0]]
}

// failureMessage renders the per-document error text for a failed peer.
func (rt *Router) failureMessage(ans peerAnswer) string {
	switch {
	case ans.status == http.StatusTooManyRequests:
		return fmt.Sprintf("peer %s shed the request (429)", ans.peer)
	case ans.timedOut:
		return fmt.Sprintf("peer %s timed out", ans.peer)
	case ans.err != nil:
		return fmt.Sprintf("peer %s: %v", ans.peer, ans.err)
	default:
		return fmt.Sprintf("peer %s failed (status %d)", ans.peer, ans.status)
	}
}

// notePeerFailure updates per-peer counters and health for one failed
// target. A shed peer is alive — it answered — so only timeouts and
// transport errors make it suspect.
func (rt *Router) notePeerFailure(ans peerAnswer) {
	if ans.peer == rt.self {
		return
	}
	switch {
	case ans.status == http.StatusTooManyRequests:
		rt.m.peerShed(ans.peer).Inc()
	case ans.timedOut:
		rt.m.peerTimeouts(ans.peer).Inc()
		rt.mem.MarkDown(ans.peer, errors.New("scatter timeout"))
	default:
		rt.m.peerErrors(ans.peer).Inc()
		err := ans.err
		if err == nil {
			err = fmt.Errorf("status %d", ans.status)
		}
		rt.mem.MarkDown(ans.peer, err)
	}
}

// lastKnownDocs returns the catalog to attribute to a failed target:
// for the local node its live catalog, for a peer the prober's
// last-known list.
func (rt *Router) lastKnownDocs(peer string) []string {
	if peer == rt.self {
		return rt.st.Names()
	}
	return rt.mem.Names(peer)
}
