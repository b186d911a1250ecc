package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/corpus"
	"repro/internal/store"
)

// encodeArchive compresses one XML document into archive bytes.
func encodeArchive(t *testing.T, doc []byte) []byte {
	t.Helper()
	a, err := container.Split(doc)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeArchive(&buf, a); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// smallCorpora generates one modest document per corpus.
func smallCorpora(t *testing.T) map[string][]byte {
	t.Helper()
	docs := make(map[string][]byte)
	for _, c := range corpus.Catalog() {
		scale := c.DefaultScale / 40
		if scale < 3 {
			scale = 3
		}
		docs[c.Name] = c.Generate(scale, 7)
	}
	return docs
}

// swapHandler lets an httptest server start before the handler exists —
// the node needs the server's URL (its advertise address) to be built,
// and the handler needs the node.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "booting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// testNode is one in-process cluster member.
type testNode struct {
	url     string
	st      *store.Store
	node    *Node
	srv     *httptest.Server
	swap    *swapHandler
	handler http.Handler // the real cluster handler, for un-partitioning
}

// startCluster boots an n-node in-process cluster with the documents
// pre-placed on their ring owners (rf copies each) and waits for the
// membership probers to converge.
func startCluster(t *testing.T, nNodes, rf int, docs map[string][]byte) []*testNode {
	t.Helper()
	swaps := make([]*swapHandler, nNodes)
	urls := make([]string, nNodes)
	srvs := make([]*httptest.Server, nNodes)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		srvs[i] = httptest.NewServer(swaps[i])
		urls[i] = srvs[i].URL
		t.Cleanup(srvs[i].Close)
	}

	ring := Build(urls, 0)
	byURL := make(map[string]int, nNodes)
	for i, u := range urls {
		byURL[u] = i
	}
	dirs := make([]string, nNodes)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	for name, doc := range docs {
		raw := encodeArchive(t, doc)
		for _, owner := range ring.Owners(name, rf) {
			path := filepath.Join(dirs[byURL[owner]], name+store.Ext)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	nodes := make([]*testNode, nNodes)
	for i := range nodes {
		st, err := store.Open(dirs[i], store.Options{})
		if err != nil {
			t.Fatalf("open store %d: %v", i, err)
		}
		t.Cleanup(func() { st.Close() })
		n, err := New(st, Config{
			Self:              urls[i],
			Peers:             urls,
			ReplicationFactor: rf,
			ProbeInterval:     25 * time.Millisecond,
			ScatterTimeout:    20 * time.Second,
			QueryTimeout:      20 * time.Second,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		h := n.Handler(store.NewHandler(st, store.ServerOptions{}), 100)
		swaps[i].set(h)
		n.Start()
		t.Cleanup(n.Stop)
		nodes[i] = &testNode{url: urls[i], st: st, node: n, srv: srvs[i], swap: swaps[i], handler: h}
	}

	waitFor(t, "membership convergence", func() bool {
		for _, tn := range nodes {
			if len(tn.node.Membership().UpPeers()) != nNodes-1 {
				return false
			}
		}
		return true
	})
	return nodes
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchFanout GETs /query?q= and decodes the fan-out response.
func fetchFanout(t *testing.T, base, query string) *store.FanoutResponse {
	t.Helper()
	resp, err := http.Get(base + "/query?q=" + url.QueryEscape(query))
	if err != nil {
		t.Fatalf("GET %s: %v", base, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s query %q: %s: %s", base, query, resp.Status, bytes.TrimSpace(body))
	}
	var fr store.FanoutResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("decoding fan-out: %v", err)
	}
	return &fr
}

// normalizeFanout zeroes the timing fields (the only legitimately
// nondeterministic bytes) so responses can be compared byte for byte.
func normalizeFanout(fr *store.FanoutResponse) {
	fr.WallNanos = 0
	fr.Workers = 0
	fr.Trace = nil
	if fr.Docs == nil {
		fr.Docs = []store.QueryResponse{}
	}
	for i := range fr.Docs {
		fr.Docs[i].PrepNanos = 0
		fr.Docs[i].EvalNanos = 0
		fr.Docs[i].Trace = nil
		if fr.Docs[i].Paths == nil {
			fr.Docs[i].Paths = []string{}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterGoldenEqualsSingleNode is the acceptance gate: a cluster
// answers every corpus query byte-identically (modulo timing fields) to
// a single node holding the whole catalog, at every (nodes, RF) cell of
// {2, 3} x {1, 2}. At RF=2 one replica is then killed outright and the
// answers must not change.
func TestClusterGoldenEqualsSingleNode(t *testing.T) {
	docs := smallCorpora(t)

	// The single-node reference holds every document.
	refDir := t.TempDir()
	for name, doc := range docs {
		if err := os.WriteFile(filepath.Join(refDir, name+store.Ext), encodeArchive(t, doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	refSt, err := store.Open(refDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer refSt.Close()
	refSrv := httptest.NewServer(store.NewHandler(refSt, store.ServerOptions{}))
	defer refSrv.Close()

	var queries []string
	for _, c := range corpus.Catalog() {
		for _, q := range c.Queries {
			queries = append(queries, q)
		}
	}

	for _, cell := range []struct{ nodes, rf int }{{2, 1}, {2, 2}, {3, 1}, {3, 2}} {
		t.Run(fmt.Sprintf("nodes=%d/rf=%d", cell.nodes, cell.rf), func(t *testing.T) {
			nodes := startCluster(t, cell.nodes, cell.rf, docs)

			runAll := func(tag string) (pruned, direct int) {
				t.Helper()
				for _, q := range queries {
					want := fetchFanout(t, refSrv.URL, q)
					got := fetchFanout(t, nodes[0].url, q)
					if len(got.Failed) != 0 {
						t.Errorf("%s: query %q degraded: %+v", tag, q, got.Failed)
					}
					normalizeFanout(want)
					normalizeFanout(got)
					wb, gb := mustJSON(t, want), mustJSON(t, got)
					if !bytes.Equal(wb, gb) {
						t.Errorf("%s: query %q diverged\n single: %s\ncluster: %s", tag, q, wb, gb)
					}
					pruned += got.Pruned
					direct += got.Direct
				}
				return pruned, direct
			}

			pruned, direct := runAll("full cluster")
			if pruned == 0 {
				t.Errorf("no document was synopsis-pruned across %d clustered queries", len(queries))
			}
			t.Logf("full cluster: %d pruned, %d direct across %d queries", pruned, direct, len(queries))
			if cell.rf < 2 {
				return
			}

			// Kill one replica outright — no graceful shutdown — and wait
			// for the survivors to notice. RF=2 means every document still
			// has a live owner, so the answers must not change.
			victim := nodes[len(nodes)-1]
			victim.srv.CloseClientConnections()
			victim.srv.Close()
			waitFor(t, "victim marked down", func() bool {
				for _, tn := range nodes[:len(nodes)-1] {
					if tn.node.Membership().Up(victim.url) {
						return false
					}
				}
				return true
			})
			runAll("one replica down")
		})
	}
}

// TestReplicationShipsPublishedDocs pins the ingest→replica pipeline: a
// document published on one node lands on every ring owner, the pending
// queue drains to zero, and a published tombstone erases the replicas.
func TestReplicationShipsPublishedDocs(t *testing.T) {
	nodes := startCluster(t, 3, 2, nil)
	byURL := make(map[string]*testNode)
	for _, tn := range nodes {
		byURL[tn.url] = tn
	}

	c := corpus.Catalog()[0]
	raw := encodeArchive(t, c.Generate(3, 7))
	const name = "published-doc"
	if err := nodes[0].st.AcceptReplica(name, raw, nil); err != nil {
		t.Fatalf("landing the doc locally: %v", err)
	}
	nodes[0].node.Published(name, false)

	owners := nodes[0].node.Ring().Owners(name, 2)
	for _, owner := range owners {
		if owner == nodes[0].url {
			continue
		}
		tn := byURL[owner]
		waitFor(t, "replica on "+owner, func() bool { return tn.st.Has(name) })
	}
	waitFor(t, "replication queue drain", func() bool { return nodes[0].node.Lag() == 0 })

	// Tombstone: the published erase reaches the same owners.
	nodes[0].node.Published(name, true)
	for _, owner := range owners {
		if owner == nodes[0].url {
			continue
		}
		tn := byURL[owner]
		waitFor(t, "replica erased on "+owner, func() bool { return !tn.st.Has(name) })
	}
}

// TestReplicationRetriesThroughDownPeer pins the WAL + retry contract:
// a transfer owed to a dead peer stays pending (counted as lag) and is
// delivered when the peer comes back.
func TestReplicationRetriesThroughDownPeer(t *testing.T) {
	nodes := startCluster(t, 3, 3, nil) // RF=3: every node owns every doc
	victim := nodes[1]

	// Take the victim's HTTP face away (the process is "partitioned").
	victim.swap.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "partitioned", http.StatusBadGateway)
	}))
	waitFor(t, "victim probed down", func() bool {
		return !nodes[0].node.Membership().Up(victim.url)
	})

	c := corpus.Catalog()[0]
	raw := encodeArchive(t, c.Generate(3, 7))
	const name = "delayed-doc"
	if err := nodes[0].st.AcceptReplica(name, raw, nil); err != nil {
		t.Fatal(err)
	}
	nodes[0].node.Published(name, false)

	// The live peer gets its copy; the dead one stays owed.
	waitFor(t, "replica on live peer", func() bool { return nodes[2].st.Has(name) })
	waitFor(t, "lag counts the dead peer", func() bool { return nodes[0].node.Lag() == 1 })
	if victim.st.Has(name) {
		t.Fatalf("partitioned peer received the replica")
	}

	// Heal the partition: the up-transition hook must deliver the
	// pending transfer without a new publish.
	victim.swap.set(victim.handler)
	waitFor(t, "victim probed up", func() bool {
		return nodes[0].node.Membership().Up(victim.url)
	})
	waitFor(t, "pending transfer delivered", func() bool { return victim.st.Has(name) })
	waitFor(t, "lag drains", func() bool { return nodes[0].node.Lag() == 0 })
}

// TestScatterDegradesShedAndTimeout is the fan-out error-propagation
// regression test (the cluster face of the PR 9 degraded-serving
// contract): a peer answering 429 becomes per-document error entries
// with the Retry-After hint preserved and stays routable; a peer
// answering 504 becomes per-document timeout entries and is marked
// suspect. The request as a whole still succeeds with the local
// documents answered.
func TestScatterDegradesShedAndTimeout(t *testing.T) {
	// One real node plus two scripted peers.
	fake := func(docName string, scatter http.HandlerFunc) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, `{"status":"ok"}`)
		})
		mux.HandleFunc("/cluster/docs", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(DocsList{Names: []string{docName}})
		})
		mux.HandleFunc("/cluster/query", scatter)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	shedSrv := fake("shed-doc", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"at capacity"}`, http.StatusTooManyRequests)
	})
	slowSrv := fake("slow-doc", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"deadline exceeded"}`, http.StatusGatewayTimeout)
	})

	c := corpus.Catalog()[0]
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "local-doc"+store.Ext),
		encodeArchive(t, c.Generate(3, 7)), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	swap := &swapHandler{}
	srv := httptest.NewServer(swap)
	defer srv.Close()
	n, err := New(st, Config{
		Self:              srv.URL,
		Peers:             []string{srv.URL, shedSrv.URL, slowSrv.URL},
		ReplicationFactor: 2,
		ProbeInterval:     25 * time.Millisecond,
		ScatterTimeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	swap.set(n.Handler(store.NewHandler(st, store.ServerOptions{}), 100))
	n.Start()
	defer n.Stop()

	waitFor(t, "fakes probed up with catalogs", func() bool {
		mem := n.Membership()
		return mem.Up(shedSrv.URL) && mem.Up(slowSrv.URL) &&
			len(mem.Names(shedSrv.URL)) == 1 && len(mem.Names(slowSrv.URL)) == 1
	})

	resp := fetchFanout(t, srv.URL, c.Queries[1])

	// The local document answered.
	if len(resp.Docs) != 1 || resp.Docs[0].Doc != "local-doc" {
		t.Fatalf("local docs = %+v, want just local-doc", resp.Docs)
	}
	// Both failed peers degraded into per-document entries.
	failed := make(map[string]store.FanoutError)
	for _, fe := range resp.Failed {
		failed[fe.Doc] = fe
	}
	shed, ok := failed["shed-doc"]
	if !ok {
		t.Fatalf("no error entry for the shed peer's doc: %+v", resp.Failed)
	}
	if shed.RetryAfter != "7" {
		t.Errorf("shed entry lost the Retry-After hint: %+v", shed)
	}
	if !strings.Contains(shed.Error, "429") {
		t.Errorf("shed entry error %q does not mention the shed", shed.Error)
	}
	slow, ok := failed["slow-doc"]
	if !ok {
		t.Fatalf("no error entry for the timed-out peer's doc: %+v", resp.Failed)
	}
	if !strings.Contains(slow.Error, "timed out") {
		t.Errorf("timeout entry error %q does not say timed out", slow.Error)
	}
	if shed.RetryAfter == slow.RetryAfter {
		t.Errorf("timeout entry must not carry a Retry-After hint: %+v", slow)
	}

	// Health verdicts: a shedding peer answered (still routable), a
	// timing-out peer is suspect.
	if !n.Membership().Up(shedSrv.URL) {
		t.Errorf("shed peer was marked down; 429 means alive")
	}
	if n.Membership().Up(slowSrv.URL) {
		t.Errorf("timed-out peer still routable; 504 must mark it suspect")
	}
}

// TestScatterDropsInvalidPeerDocNames pins the router against a buggy
// or version-skewed peer: a scatter answer naming a document no catalog
// could hold (Ring.Owners panics on unvalidated names) is dropped
// per-document — the valid rest of the answer and the request itself
// still succeed.
func TestScatterDropsInvalidPeerDocNames(t *testing.T) {
	c := corpus.Catalog()[0]
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/cluster/docs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(DocsList{Names: []string{"peer-doc"}})
	})
	mux.HandleFunc("/cluster/query", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(store.FanoutResponse{Docs: []store.QueryResponse{
			{Doc: "../escape", Paths: []string{}},
			{Doc: "peer-doc", Paths: []string{}},
		}})
	})
	buggy := httptest.NewServer(mux)
	defer buggy.Close()

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "local-doc"+store.Ext),
		encodeArchive(t, c.Generate(3, 7)), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	swap := &swapHandler{}
	srv := httptest.NewServer(swap)
	defer srv.Close()
	n, err := New(st, Config{
		Self:              srv.URL,
		Peers:             []string{srv.URL, buggy.URL},
		ReplicationFactor: 2,
		ProbeInterval:     25 * time.Millisecond,
		ScatterTimeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	swap.set(n.Handler(store.NewHandler(st, store.ServerOptions{}), 100))
	n.Start()
	defer n.Stop()
	waitFor(t, "buggy peer probed up", func() bool { return n.Membership().Up(buggy.URL) })

	resp := fetchFanout(t, srv.URL, c.Queries[1])
	got := make(map[string]bool, len(resp.Docs))
	for _, qr := range resp.Docs {
		got[qr.Doc] = true
	}
	if got["../escape"] {
		t.Errorf("invalid peer doc name survived the merge: %+v", resp.Docs)
	}
	if !got["local-doc"] || !got["peer-doc"] {
		t.Errorf("valid documents missing from the merged answer: %+v", resp.Docs)
	}
}

// TestSingleDocForwarding pins the one-document path: a node that does
// not hold the document forwards the query once to a live owner, and
// the loop-guard header stops a second hop.
func TestSingleDocForwarding(t *testing.T) {
	docs := smallCorpora(t)
	nodes := startCluster(t, 3, 1, docs) // RF=1: exactly one owner per doc

	// Find a document whose owner is NOT nodes[0], so the query must
	// forward.
	ring := nodes[0].node.Ring()
	var name, owner string
	for dn := range docs {
		if o := ring.Owners(dn, 1)[0]; o != nodes[0].url {
			name, owner = dn, o
			break
		}
	}
	if name == "" {
		t.Fatalf("every document landed on node 0; ring is broken")
	}
	if nodes[0].st.Has(name) {
		t.Fatalf("node 0 unexpectedly holds %s", name)
	}

	var q string
	for _, c := range corpus.Catalog() {
		if c.Name == name {
			q = c.Queries[1]
		}
	}
	resp, err := http.Get(nodes[0].url + "/query?doc=" + url.QueryEscape(name) + "&q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded query: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var qr store.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decoding forwarded response: %v", err)
	}
	if qr.Doc != name || qr.Matches == 0 {
		t.Fatalf("forwarded answer from owner %s = doc %q matches %d, want %q with matches", owner, qr.Doc, qr.Matches, name)
	}
}

// TestPeerQueryIgnoresShippedSignature pins that a peer answers the
// query text it is sent, whatever else the body carries: a signature
// field that belongs to another query (here one naming an element no
// document holds) must not prune the peer's catalog. The peer compiles
// the text itself and prunes from that program's own signature.
func TestPeerQueryIgnoresShippedSignature(t *testing.T) {
	nodes := startCluster(t, 2, 2, smallCorpora(t)) // RF=2: both nodes hold every document
	c, err := corpus.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	q, err := json.Marshal(c.Queries[2])
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) store.FanoutResponse {
		t.Helper()
		resp, err := http.Post(nodes[1].url+"/cluster/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /cluster/query %s: %s: %s", body, resp.Status, bytes.TrimSpace(raw))
		}
		var fr store.FanoutResponse
		if err := json.Unmarshal(raw, &fr); err != nil {
			t.Fatalf("decoding peer answer: %v", err)
		}
		return fr
	}
	plain := post(fmt.Sprintf(`{"query":%s,"max":100}`, q))
	if plain.TotalMatches == 0 {
		t.Fatalf("DBLP Q3 matched nothing on the peer — the test is vacuous")
	}
	signed := post(fmt.Sprintf(`{"query":%s,"max":100,"sig":{"required":[["tag:no-such-element"]]}}`, q))
	if signed.TotalMatches != plain.TotalMatches || signed.Pruned != plain.Pruned {
		t.Fatalf("a foreign signature changed the peer's answer: total_matches %d (pruned %d), want %d (pruned %d)",
			signed.TotalMatches, signed.Pruned, plain.TotalMatches, plain.Pruned)
	}
}

// TestClusteredMaxZeroRunsNoFallback pins that a peer honours the
// router's paths budget as sent: a clustered fan-out at max=0 renders no
// addresses anywhere, so no node evaluates a count-shaped direct answer
// for real — exactly like a single node, which does 0 fallbacks here. A
// negative budget is a 400, never a silent default.
func TestClusteredMaxZeroRunsNoFallback(t *testing.T) {
	docs := smallCorpora(t)
	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("rf=%d", rf), func(t *testing.T) {
			nodes := startCluster(t, 2, rf, docs)
			before := make([]uint64, len(nodes))
			for i, tn := range nodes {
				before[i] = tn.st.Stats().PlanFallback
			}
			direct := 0
			for _, name := range []string{"SwissProt", "DBLP", "Shakespeare", "Baseball"} {
				c, err := corpus.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Get(nodes[0].url + "/query?max=0&q=" + url.QueryEscape(c.Queries[1]))
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s Q2: %s: %s", name, resp.Status, bytes.TrimSpace(raw))
				}
				var fr store.FanoutResponse
				if err := json.Unmarshal(raw, &fr); err != nil {
					t.Fatal(err)
				}
				if fr.TotalMatches == 0 || len(fr.Failed) != 0 {
					t.Fatalf("%s Q2: total_matches %d, failed %v", name, fr.TotalMatches, fr.Failed)
				}
				direct += fr.Direct
			}
			if direct == 0 {
				t.Fatalf("no document was answered direct — the test is vacuous")
			}
			for i, tn := range nodes {
				if d := tn.st.Stats().PlanFallback - before[i]; d != 0 {
					t.Errorf("node %d ran %d planner fallback(s) for max=0 scatters, want 0", i, d)
				}
			}

			resp, err := http.Post(nodes[1].url+"/cluster/query", "application/json",
				strings.NewReader(`{"query":"//a","max":-1}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("peer query with max -1: status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestPeerQueryMaxCapped pins that a peer caps the budget a scatter body
// asks for at the node's max-paths, the same cap GET /query applies: a
// huge max must render exactly the body served at the cap, not every
// address of every document.
func TestPeerQueryMaxCapped(t *testing.T) {
	nodes := startCluster(t, 2, 2, smallCorpora(t)) // handler cap: 100 paths
	timing := regexp.MustCompile(`"(prep_ns|eval_ns|wall_ns)":[0-9]+`)
	post := func(body string) []byte {
		t.Helper()
		resp, err := http.Post(nodes[1].url+"/cluster/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /cluster/query %s: %s: %s", body, resp.Status, bytes.TrimSpace(raw))
		}
		return timing.ReplaceAll(raw, []byte(`"$1":0`))
	}
	capped := post(`{"query":"//*","max":100}`)
	var fr store.FanoutResponse
	if err := json.Unmarshal(capped, &fr); err != nil {
		t.Fatal(err)
	}
	truncated := false
	for _, d := range fr.Docs {
		truncated = truncated || d.Matches > uint64(len(d.Paths))
	}
	if !truncated {
		t.Fatal("no document has more than 100 matches for //* — the test is vacuous")
	}
	if huge := post(`{"query":"//*","max":1000000000}`); !bytes.Equal(huge, capped) {
		t.Fatalf("max=1e9 served %d bytes, want the %d-byte body served at the cap", len(huge), len(capped))
	}
}
