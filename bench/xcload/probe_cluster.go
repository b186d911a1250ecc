package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
)

// The cluster probe stands in for the cluster workload this benchmark
// deliberately lacks (three servers and a generator on two cores
// measure the scheduler): three nodes in this process, over loopback
// httptest servers, replication factor 2. It times the scatter-gather
// hop and the replication hop, so cluster changes have a before and
// after even though no end-to-end metric covers them.

const (
	clusterNodes = 3
	clusterRF    = 2
	// clusterDocs caps the catalog the probe distributes; clusterOps
	// how many scatters and replications it times.
	clusterDocs = 64
	clusterOps  = 40
)

// lateHandler lets an httptest server start before its handler exists:
// the node needs the server's URL, the handler needs the node.
type lateHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	if h == nil {
		http.Error(w, "booting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (e *env) probeCluster(rec *recorder, l layers, archives [][]byte) error {
	// The nodes log every peer transition of their start-up through the
	// standard logger; none of it is a finding.
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	// An evenly spaced sample of the catalog, so every vocabulary is in.
	var sample []int
	stride := (len(archives) + clusterDocs - 1) / clusterDocs
	for di := 0; di < len(archives); di += stride {
		sample = append(sample, di)
	}

	urls := make([]string, clusterNodes)
	late := make([]*lateHandler, clusterNodes)
	for i := range urls {
		late[i] = &lateHandler{}
		srv := httptest.NewServer(late[i])
		defer srv.Close()
		urls[i] = srv.URL
	}
	ring := cluster.Build(urls, 0)
	dirs := make([]string, clusterNodes)
	byURL := make(map[string]int, clusterNodes)
	for i, u := range urls {
		byURL[u] = i
		dirs[i] = filepath.Join(e.tmp, fmt.Sprintf("cluster-node%d", i))
		if err := os.Mkdir(dirs[i], 0o755); err != nil {
			return err
		}
	}
	held := make([][]string, clusterNodes) // documents each node owns
	for _, di := range sample {
		name := e.cat.docs[di].name
		for _, owner := range ring.Owners(name, clusterRF) {
			n := byURL[owner]
			if err := os.WriteFile(filepath.Join(dirs[n], name+store.Ext), archives[di], 0o644); err != nil {
				return err
			}
			held[n] = append(held[n], name)
		}
	}
	nodes := make([]*cluster.Node, clusterNodes)
	for i := range nodes {
		st, err := store.Open(dirs[i], store.Options{})
		if err != nil {
			return err
		}
		defer st.Close()
		n, err := cluster.New(st, cluster.Config{
			Self: urls[i], Peers: urls, ReplicationFactor: clusterRF,
			ProbeInterval: 50 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		late[i].set(n.Handler(store.NewHandler(st, store.ServerOptions{}), maxPaths))
		n.Start()
		defer n.Stop()
		nodes[i] = n
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, n := range nodes {
		for len(n.Membership().UpPeers()) != clusterNodes-1 {
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster membership did not converge")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Scatter: the workload's own fan-outs, or Q3 of each corpus when
	// it has none, through node 0's router.
	var paths []string
	for _, oi := range e.plan.distinct {
		if o := &e.plan.ops[oi]; o.kind == opFanout {
			paths = append(paths, o.path)
		}
	}
	if len(paths) == 0 {
		for _, c := range e.cat.corpora {
			paths = append(paths, fanoutPath(c.Queries[2]))
		}
	}
	get := func(path string) error {
		resp, err := e.client.Get(urls[0] + path)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("scatter %s: %s", path, resp.Status)
		}
		return err
	}
	for _, p := range paths { // warm: first contact decodes on every node
		if err := get(p); err != nil {
			return err
		}
	}
	var scatter time.Duration
	for i := 0; i < clusterOps; i++ {
		root := rec.op("scatter")
		var err error
		scatter += rec.time("cluster.Router.QueryAll", root, func() { err = get(paths[i%len(paths)]) })
		rec.end(root)
		if err != nil {
			return err
		}
	}
	l.set("cluster.scatter_ms_per_op", perMs(scatter, clusterOps), "ms")

	// Replicate: the node owning most documents announces them as
	// freshly published, and the probe waits until its pending queue
	// has drained to each document's other owner.
	src := 0
	for n := range held {
		if len(held[n]) > len(held[src]) {
			src = n
		}
	}
	docs := held[src]
	if len(docs) > clusterOps {
		docs = docs[:clusterOps]
	}
	root := rec.op("replicate")
	var err error
	repl := rec.time("cluster.Node.Published", root, func() {
		for _, name := range docs {
			nodes[src].Published(name, false)
		}
		for nodes[src].Lag() != 0 {
			if time.Now().After(deadline.Add(30 * time.Second)) {
				err = fmt.Errorf("replication did not drain: %d pending", nodes[src].Lag())
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	})
	rec.end(root)
	if err != nil {
		return err
	}
	l.set("cluster.replicate_ms_per_doc", perMs(repl, len(docs)), "ms")
	return nil
}
