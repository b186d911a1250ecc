package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/store"
)

// forwardHeader is the loop guard on single-document forwards: a
// request carrying it is answered locally no matter what, so two nodes
// with stale rings can never bounce a request between each other.
const forwardHeader = "X-Cluster-Forwarded"

// Handler wraps the store's HTTP handler with the cluster faces:
//
//	GET  /query?q=...            clustered scatter-gather fan-out
//	GET  /query?doc=NAME&q=...   answered locally, or forwarded once to
//	                             a live owner of the document
//	POST /cluster/query          peer scatter endpoint
//	GET  /cluster/docs           this node's catalog names
//	PUT  /cluster/replicate      land a replica payload (CRC-verified)
//	DELETE /cluster/replicate    erase a replicated document
//	GET  /cluster/ring           this node's ring description
//	POST /cluster/ring           adopt a superseding ring
//	GET  /cluster/peers          membership and replication state
//
// Everything else falls through to the store handler, including
// /healthz and /readyz. maxPaths mirrors ServerOptions.MaxPaths for the
// clustered fan-out's shared budget (<= 0 selects 100).
func (n *Node) Handler(inner http.Handler, maxPaths int) http.Handler {
	if maxPaths <= 0 {
		maxPaths = 100
	}
	h := &clusterHandler{n: n, inner: inner, maxPaths: maxPaths}
	if n.cfg.MaxConcurrentQueries > 0 {
		h.sem = make(chan struct{}, n.cfg.MaxConcurrentQueries)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/query", h.peerQuery)
	mux.HandleFunc("/cluster/docs", h.docs)
	mux.HandleFunc("/cluster/replicate", h.replicate)
	mux.HandleFunc("/cluster/ring", h.ring)
	mux.HandleFunc("/cluster/peers", h.peers)
	mux.HandleFunc("/query", h.query)
	mux.Handle("/", inner)
	return mux
}

type clusterHandler struct {
	n        *Node
	inner    http.Handler
	maxPaths int
	sem      chan struct{} // peer-scatter admission gate; nil = unbounded
}

// query intercepts GET /query: catalog-wide queries scatter across the
// cluster, single-document queries are answered locally when possible
// and forwarded once to a live owner otherwise.
func (h *clusterHandler) query(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		h.inner.ServeHTTP(w, r)
		return
	}
	if doc := r.URL.Query().Get("doc"); doc != "" {
		h.singleDoc(w, r, doc)
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		store.WriteError(w, http.StatusBadRequest, errors.New("missing q parameter"))
		return
	}
	max := h.maxPaths
	if m := r.URL.Query().Get("max"); m != "" {
		v, err := strconv.Atoi(m)
		if err != nil || v < 0 {
			store.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad max parameter %q", m))
			return
		}
		if v < max {
			max = v
		}
	}
	resp, err := h.n.rt.QueryAll(r.Context(), q, max)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		store.WriteError(w, status, err)
		return
	}
	store.WriteJSON(w, http.StatusOK, resp)
}

// singleDoc answers a one-document query: locally when the catalog has
// it, else forwarded (once — the loop-guard header ends the chain) to
// the first live owner under the ring.
func (h *clusterHandler) singleDoc(w http.ResponseWriter, r *http.Request, doc string) {
	if h.n.st.Has(doc) || r.Header.Get(forwardHeader) != "" {
		h.inner.ServeHTTP(w, r)
		return
	}
	if store.ValidateDocName(doc) != nil {
		h.inner.ServeHTTP(w, r) // let the store answer the 400
		return
	}
	for _, owner := range h.n.Ring().Owners(doc, h.n.cfg.ReplicationFactor) {
		if owner == h.n.cfg.Self || !h.n.mem.Up(owner) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
			owner+r.URL.RequestURI(), nil)
		if err != nil {
			break
		}
		req.Header.Set(forwardHeader, "1")
		resp, err := h.n.cfg.Client.Do(req)
		if err != nil {
			continue // next owner; the prober will downgrade this one
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	// No live remote owner: answer locally (a 404, typically).
	h.inner.ServeHTTP(w, r)
}

// peerQuery is the scatter endpoint peers call: the node answers its
// whole catalog through store.Do with a per-document budget of the Max
// sent, capped at maxPaths (0 renders no addresses; a negative Max is a
// 400). Admission and
// timeout mirror the single-node /query contract, so the router's
// degradation logic sees the same 429/504 surface.
func (h *clusterHandler) peerQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		store.WriteError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if h.sem != nil {
		select {
		case h.sem <- struct{}{}:
			defer func() { <-h.sem }()
		default:
			w.Header().Set("Retry-After", "1")
			store.WriteError(w, http.StatusTooManyRequests,
				fmt.Errorf("node at max concurrent scatter queries (%d)", h.n.cfg.MaxConcurrentQueries))
			return
		}
	}
	var pq PeerQuery
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&pq); err != nil {
		store.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding query: %v", err))
		return
	}
	if pq.Query == "" {
		store.WriteError(w, http.StatusBadRequest, errors.New("missing query"))
		return
	}
	pq.Max = min(pq.Max, h.maxPaths) // the cap GET /query applies

	ctx := r.Context()
	if h.n.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.n.cfg.QueryTimeout)
		defer cancel()
	}
	resp, err := h.n.st.Do(ctx, store.Request{Query: pq.Query, Max: pq.Max, PerDoc: true})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		store.WriteError(w, status, err)
		return
	}
	store.WriteJSON(w, http.StatusOK, resp.Fanout)
}

// DocsList is the GET /cluster/docs body: the node's catalog names.
type DocsList struct {
	Names []string `json:"names"`
}

func (h *clusterHandler) docs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		store.WriteError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	names := h.n.st.Names()
	if names == nil {
		names = []string{}
	}
	store.WriteJSON(w, http.StatusOK, DocsList{Names: names})
}

// replicate lands (PUT) or erases (DELETE) a replica shipped by a peer.
func (h *clusterHandler) replicate(w http.ResponseWriter, r *http.Request) {
	doc := r.URL.Query().Get("doc")
	if doc == "" {
		store.WriteError(w, http.StatusBadRequest, errors.New("missing doc parameter"))
		return
	}
	if err := store.ValidateDocName(doc); err != nil {
		store.WriteError(w, http.StatusBadRequest, err)
		return
	}
	switch r.Method {
	case http.MethodPut:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<30))
		if err != nil {
			store.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading payload: %v", err))
			return
		}
		archive, sidecar, err := parseReplicaFrame(body, r.Header.Get(crcHeader))
		if err != nil {
			store.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if err := h.n.st.AcceptReplica(doc, archive, sidecar); err != nil {
			store.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		h.n.m.replReceived.Inc()
		store.WriteJSON(w, http.StatusOK, map[string]string{"doc": doc, "status": "replicated"})
	case http.MethodDelete:
		if !h.n.st.Has(doc) {
			// Idempotent: the replica never landed or is already gone.
			store.WriteJSON(w, http.StatusOK, map[string]string{"doc": doc, "status": "absent"})
			return
		}
		if err := h.n.st.Erase(doc); err != nil {
			store.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		store.WriteJSON(w, http.StatusOK, map[string]string{"doc": doc, "status": "erased"})
	default:
		store.WriteError(w, http.StatusMethodNotAllowed, errors.New("PUT or DELETE only"))
	}
}

// ring serves (GET) and adopts (POST) ring descriptions.
func (h *clusterHandler) ring(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		store.WriteJSON(w, http.StatusOK, h.n.Ring().Desc())
	case http.MethodPost:
		var d Desc
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&d); err != nil {
			store.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding ring: %v", err))
			return
		}
		adopted, err := h.n.AdoptDesc(d)
		if err != nil {
			store.WriteError(w, http.StatusBadRequest, err)
			return
		}
		status := "kept"
		if adopted {
			status = "adopted"
		}
		store.WriteJSON(w, http.StatusOK, map[string]any{
			"status": status, "ring": h.n.Ring().Desc(),
		})
	default:
		store.WriteError(w, http.StatusMethodNotAllowed, errors.New("GET or POST only"))
	}
}

// PeersResponse is the GET /cluster/peers body.
type PeersResponse struct {
	Self            string      `json:"self"`
	Ring            Desc        `json:"ring"`
	Peers           []PeerState `json:"peers"`
	ReplicationLag  int         `json:"replication_lag_docs"`
	ReplicationRF   int         `json:"replication_factor"`
	ProbeIntervalMS int64       `json:"probe_interval_ms"`
}

func (h *clusterHandler) peers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		store.WriteError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	interval := h.n.cfg.ProbeInterval
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	store.WriteJSON(w, http.StatusOK, PeersResponse{
		Self:            h.n.cfg.Self,
		Ring:            h.n.Ring().Desc(),
		Peers:           h.n.mem.States(),
		ReplicationLag:  h.n.repl.Lag(),
		ReplicationRF:   h.n.cfg.ReplicationFactor,
		ProbeIntervalMS: int64(interval / time.Millisecond),
	})
}
