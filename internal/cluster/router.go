package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anna/internal/front"
	"anna/internal/metrics"
	"anna/internal/slo"
	"anna/internal/topk"
	"anna/internal/trace"
	"anna/internal/tsdb"
)

// HeaderPartial carries the router's coverage declaration on degraded
// responses: "shards=k/n" means k of n shards contributed.
const HeaderPartial = "X-Anna-Partial"

// HeaderShard names the shard index that served a routed /add.
const HeaderShard = "X-Anna-Shard"

// DefaultStride is the width of each shard's global-ID stripe: shard i
// owns global IDs [i*Stride, (i+1)*Stride), mapped to shard-local IDs
// by subtracting the stripe base. 2^40 local IDs per shard is far past
// any in-memory corpus, and the stripe arithmetic stays exact in int64
// for thousands of shards.
const DefaultStride int64 = 1 << 40

// Config configures a Router.
type Config struct {
	// Shards are the base URLs of the annaserve replicas, in stripe
	// order (shard i owns global IDs [i*Stride, (i+1)*Stride)).
	Shards []string
	// Stride is the global-ID stripe width (default DefaultStride).
	Stride int64
	// DefaultW and DefaultK fill omitted search knobs (defaults 32, 10)
	// so every shard runs the identical query.
	DefaultW, DefaultK int
	// MaxBatch bounds queries per request (default 1024).
	MaxBatch int
	// Shard configures the hardened per-shard client.
	Shard ShardOptions

	// Logger receives slow-query lines and SLO transitions (default
	// slog.Default()).
	Logger *slog.Logger
	// TraceSampleEvery traces 1-in-N /search requests that did not opt
	// in with an X-Request-ID header (default 64; negative disables
	// sampling). A traced request records one hop per shard attempt and
	// stamps the wire context on every outbound hop, so the shards'
	// traces stitch under the same ID via /debug/trace/{id}.
	TraceSampleEvery int
	// SlowQuery is the latency threshold above which a traced /search is
	// logged as slow (default 250ms; negative disables).
	SlowQuery time.Duration
	// TraceRingSize bounds the buffer behind /debug/queries (default 256).
	TraceRingSize int
	// ScrapeEvery is the embedded tsdb's scrape interval (default 10s;
	// negative disables the tsdb, SLO engine, /alerts and /debug/dash).
	ScrapeEvery time.Duration
	// SLOLatencyP99 enables the latency SLO: at most 1% of /search
	// requests may be slower than this bound. Zero disables it.
	SLOLatencyP99 time.Duration
	// SLOAvailability enables the availability SLO with this objective.
	// On the router the bad-event ratio is partial-coverage-aware: a 5xx
	// costs a full error, a degraded (partial-coverage) answer half one.
	// Zero disables it.
	SLOAvailability float64
	// SLOOptions override the burn-rate windows (zero = defaults).
	SLOOptions slo.Options
}

// Router is the scatter-gather front door of a sharded cluster. It
// holds no index state: every query fans out to all shards and every
// add is routed to one, so the router restarts instantly and can be
// replicated freely behind a plain load balancer.
type Router struct {
	shards   []*Shard
	stride   int64
	defaultW int
	defaultK int
	maxBatch int

	addRR atomic.Uint64 // round-robin cursor for /add placement

	reg        *metrics.Registry
	front      *front.Front
	rec        *trace.Recorder
	partials   *metrics.Counter
	unservable *metrics.Counter
}

// New returns a router over the configured shards.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	if cfg.Stride <= 0 {
		cfg.Stride = DefaultStride
	}
	if cfg.DefaultW <= 0 {
		cfg.DefaultW = 32
	}
	if cfg.DefaultK <= 0 {
		cfg.DefaultK = 10
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	rt := &Router{
		stride:   cfg.Stride,
		defaultW: cfg.DefaultW,
		defaultK: cfg.DefaultK,
		maxBatch: cfg.MaxBatch,
		reg:      metrics.NewRegistry(),
	}
	rt.front = front.New(rt.reg, "search", "add", "stats")
	rt.partials = rt.reg.Counter("anna_partial_results_total",
		"Search responses served with partial shard coverage.")
	rt.unservable = rt.reg.Counter("anna_unservable_requests_total",
		"Requests failed because no shard could serve them.")
	for i, base := range cfg.Shards {
		s := NewShard(i, base, cfg.Shard)
		rt.shards = append(rt.shards, s)
		lbl := metrics.Label{Key: "shard", Value: strconv.Itoa(i)}
		st := s.Stats()
		rt.reg.CounterFunc("anna_shard_requests_total",
			"Attempts sent to each shard (incl. retries and hedges).",
			st.Requests.Load, lbl)
		rt.reg.CounterFunc("anna_shard_retries_total",
			"Retried attempts per shard.", st.Retries.Load, lbl)
		rt.reg.CounterFunc("anna_shard_hedges_total",
			"Hedged attempts per shard.", st.Hedges.Load, lbl)
		rt.reg.CounterFunc("anna_shard_failures_total",
			"Attempts that ended in a transport error or 5xx.", st.Failures.Load, lbl)
		rt.reg.CounterFunc("anna_shard_fast_fails_total",
			"Requests refused locally by the open circuit breaker.", st.FastFails.Load, lbl)
		rt.reg.CounterFunc("anna_shard_breaker_opens_total",
			"Times the shard's circuit breaker tripped open.", s.Breaker().Opens, lbl)
		breaker := s.Breaker()
		rt.reg.GaugeFunc("anna_shard_breaker_open",
			"1 when the shard's circuit breaker is not closed.",
			func() float64 {
				if breaker.State() != "closed" {
					return 1
				}
				return 0
			}, lbl)
	}
	rt.front.Start(front.Config{
		Logger:          cfg.Logger,
		ScrapeEvery:     cfg.ScrapeEvery,
		SLOLatencyP99:   cfg.SLOLatencyP99,
		SLOAvailability: cfg.SLOAvailability,
		SLOOptions:      cfg.SLOOptions,
		Series: []tsdb.Series{{Name: "partials", Kind: tsdb.CounterKind,
			Sample: func() float64 { return float64(rt.partials.Value()) }}},
		// Partial-coverage-aware availability: a degraded answer (some
		// shards missing) costs half an error against the budget.
		Unavailable: []slo.Part{{Series: "partials", Weight: 0.5}},
	})
	rt.rec = front.NewRecorder(rt.front.Log, cfg.TraceSampleEvery, cfg.SlowQuery, cfg.TraceRingSize)
	return rt, nil
}

// Close stops the router's background scraper. The shard clients hold
// no goroutines of their own.
func (rt *Router) Close() { rt.front.Close() }

// Shards exposes the shard clients (metrics, tests, annaload).
func (rt *Router) Shards() []*Shard { return rt.shards }

// Metrics returns the router's metrics registry.
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

// Handler returns the router's HTTP handler tree — the same surface as
// a single annaserve, minus the single-process admin endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", rt.front.Instrument("search", rt.handleSearch))
	mux.HandleFunc("/add", rt.front.Instrument("add", rt.handleAdd))
	mux.HandleFunc("/stats", rt.front.Instrument("stats", rt.handleStats))
	mux.HandleFunc("/readyz", rt.handleReadyz)
	mux.HandleFunc("/debug/queries", rt.handleDebugQueries)
	mux.HandleFunc("/debug/trace/{id}", rt.handleDebugTrace)
	rt.front.Mount(mux, "annarouter")
	return mux
}

// shardReply is one shard's contribution to a scatter.
type shardReply struct {
	shard  int
	status int
	body   []byte
	err    error
}

// scatter sends the same request to every shard concurrently and
// returns all replies (indexed by shard). ctx carries the request ID
// (and trace, when sampled) into every hop.
func (rt *Router) scatter(ctx context.Context, method, path string, body []byte) []shardReply {
	replies := make([]shardReply, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			status, b, err := s.Do(ctx, method, path, body, true)
			replies[i] = shardReply{shard: i, status: status, body: b, err: err}
		}(i, s)
	}
	wg.Wait()
	return replies
}

// handleSearch fans one search out to every shard and merges the
// per-shard top-k lists into the global top-k. Shards that fail past
// their retry budget are dropped from coverage: the query still
// answers, with the loss declared in X-Anna-Partial and counted in
// anna_partial_results_total. Only a total loss (zero shards) fails
// the request.
func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.front.Error(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	start := time.Now()
	// The request ID rides every shard hop and is echoed back, matching
	// annaserve's contract: the client's ID when it sent one (which also
	// forces a trace), a generated one otherwise.
	reqID := r.Header.Get(trace.HeaderRequestID)
	tagged := reqID != ""
	if !tagged {
		reqID = trace.NewID()
	}
	w.Header().Set(trace.HeaderRequestID, reqID)
	ctx := WithRequestID(r.Context(), reqID)
	var tr *trace.Trace
	if tagged || rt.rec.ShouldSample() {
		tr = trace.New(reqID)
		tr.Start = start
		// Shard.Do records one hop per attempt into this trace, and
		// stamps the wire context on each outbound request so the shards'
		// own traces stitch under the same ID.
		ctx = trace.NewContext(ctx, tr)
		defer func() {
			tr.Finish(front.Status(w))
			rt.rec.Record(tr)
		}()
	}
	var req front.SearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rt.front.Error(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		rt.front.Error(w, http.StatusBadRequest, "no queries")
		return
	}
	if len(req.Queries) > rt.maxBatch {
		rt.front.Error(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Queries), rt.maxBatch)
		return
	}
	// Normalize the knobs before fan-out so every shard answers the
	// identical (W, K) — the merge below assumes per-shard lists are
	// each a top-K under the same K.
	if req.W <= 0 {
		req.W = rt.defaultW
	}
	if req.K <= 0 {
		req.K = rt.defaultK
	}
	if tr != nil {
		tr.Queries, tr.W, tr.K = len(req.Queries), req.W, req.K
	}
	body, err := json.Marshal(req)
	if err != nil {
		rt.front.Error(w, http.StatusInternalServerError, "encoding request: %v", err)
		return
	}

	replies := rt.scatter(ctx, http.MethodPost, "/search", body)

	// A 4xx from any shard means the request itself is bad (shards are
	// interchangeable for validation); relay the first one verbatim.
	for _, rep := range replies {
		if rep.err == nil && rep.status >= 400 && rep.status < 500 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rep.status)
			w.Write(rep.body)
			return
		}
	}

	// Merge the shards that answered, rewriting shard-local IDs into
	// their global stripes.
	lists := make([][][]topk.Result, 0, len(replies)) // per ok shard, per query
	ok := 0
	for _, rep := range replies {
		if rep.err != nil || rep.status != http.StatusOK {
			continue
		}
		var sr front.SearchResponse
		if err := json.Unmarshal(rep.body, &sr); err != nil || len(sr.Results) != len(req.Queries) {
			continue // malformed reply = failed shard, coverage drops
		}
		perQuery := make([][]topk.Result, len(req.Queries))
		base := int64(rep.shard) * rt.stride
		for q, results := range sr.Results {
			rs := make([]topk.Result, len(results))
			for j, res := range results {
				rs[j] = topk.Result{ID: base + res.ID, Score: res.Score}
			}
			perQuery[q] = rs
		}
		lists = append(lists, perQuery)
		ok++
	}
	if ok == 0 {
		rt.unservable.Inc()
		rt.front.Error(w, http.StatusBadGateway, "no shard reachable (0/%d)", len(rt.shards))
		return
	}

	resp := front.SearchResponse{Results: make([][]front.SearchResult, len(req.Queries))}
	merge := make([][]topk.Result, len(lists))
	for q := range req.Queries {
		for i, perQuery := range lists {
			merge[i] = perQuery[q]
		}
		merged := topk.Merge(req.K, merge...)
		out := make([]front.SearchResult, len(merged))
		for j, m := range merged {
			out[j] = front.SearchResult{ID: m.ID, Score: m.Score}
		}
		resp.Results[q] = out
	}

	if ok < len(rt.shards) {
		w.Header().Set(HeaderPartial, fmt.Sprintf("shards=%d/%d", ok, len(rt.shards)))
		rt.partials.Inc()
	}
	rt.front.WriteJSON(w, http.StatusOK, resp)
}

// handleAdd routes one add batch to a single owning shard. The shard's
// WAL-before-ack pipeline is preserved end to end: the router acks only
// after the shard acked, and the shard acks only after its WAL fsync.
// Adds are never retried — a timed-out add may have been applied, and
// re-sending it would duplicate vectors. Placement is round-robin over
// shards whose breaker admits traffic; a breaker fast-fail (request
// provably unsent) moves to the next shard.
func (rt *Router) handleAdd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.front.Error(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	reqID := r.Header.Get(trace.HeaderRequestID)
	if reqID == "" {
		reqID = trace.NewID()
	}
	w.Header().Set(trace.HeaderRequestID, reqID)
	ctx := WithRequestID(r.Context(), reqID)
	var req front.AddRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rt.front.Error(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Vectors) == 0 {
		rt.front.Error(w, http.StatusBadRequest, "no vectors")
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		rt.front.Error(w, http.StatusInternalServerError, "encoding request: %v", err)
		return
	}
	start := int(rt.addRR.Add(1)-1) % len(rt.shards)
	for off := 0; off < len(rt.shards); off++ {
		s := rt.shards[(start+off)%len(rt.shards)]
		status, b, err := s.Do(ctx, http.MethodPost, "/add", body, false)
		if err != nil {
			if r.Context().Err() != nil {
				rt.front.Error(w, http.StatusGatewayTimeout, "add canceled: %v", err)
				return
			}
			// ErrShardDown means the request was never sent — the next
			// shard can own this batch. Any other error is ambiguous
			// (the shard may have applied it) and must surface.
			if errors.Is(err, ErrShardDown) {
				continue
			}
			rt.unservable.Inc()
			// Name the shard so the client knows whose state is now
			// ambiguous (the batch may or may not have been applied).
			w.Header().Set(HeaderShard, strconv.Itoa(s.Index))
			rt.front.Error(w, http.StatusBadGateway, "shard %d add failed: %v", s.Index, err)
			return
		}
		if status != http.StatusOK {
			// Relay the shard's verdict (400 bad vectors, 429, 5xx...).
			w.Header().Set(HeaderShard, strconv.Itoa(s.Index))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(b)
			return
		}
		var ar front.AddResponse
		if err := json.Unmarshal(b, &ar); err != nil {
			rt.front.Error(w, http.StatusBadGateway, "shard %d add reply: %v", s.Index, err)
			return
		}
		if ar.FirstID+int64(ar.Count) > rt.stride {
			rt.front.Error(w, http.StatusInternalServerError,
				"shard %d exhausted its ID stripe (%d ids)", s.Index, rt.stride)
			return
		}
		ar.FirstID += int64(s.Index) * rt.stride
		w.Header().Set(HeaderShard, strconv.Itoa(s.Index))
		rt.front.WriteJSON(w, http.StatusOK, ar)
		return
	}
	rt.unservable.Inc()
	rt.front.Error(w, http.StatusBadGateway, "no shard accepting adds (0/%d)", len(rt.shards))
}

// handleStats aggregates shard /stats into a cluster view: total
// vectors, per-shard detail, and breaker states.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.front.Error(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	replies := rt.scatter(r.Context(), http.MethodGet, "/stats", nil)
	total := 0
	shards := make([]map[string]any, len(replies))
	for i, rep := range replies {
		entry := map[string]any{
			"shard":   i,
			"base":    rt.shards[i].Base,
			"breaker": rt.shards[i].Breaker().State(),
		}
		if rep.err != nil || rep.status != http.StatusOK {
			entry["up"] = false
		} else {
			var st map[string]any
			if err := json.Unmarshal(rep.body, &st); err == nil {
				entry["up"] = true
				if v, ok := st["vectors"].(float64); ok {
					entry["vectors"] = int(v)
					total += int(v)
				}
			} else {
				entry["up"] = false
			}
		}
		shards[i] = entry
	}
	rt.front.WriteJSON(w, http.StatusOK, map[string]any{
		"vectors": total,
		"stride":  rt.stride,
		"shards":  shards,
	})
}

// handleReadyz reports the router's ability to serve: ready as soon as
// at least one shard answers its own /readyz (the degradation contract
// lets the router serve partial coverage), with the full per-shard
// picture in the body for operators and the harness.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type shardReady struct {
		Shard int    `json:"shard"`
		Base  string `json:"base"`
		Ready bool   `json:"ready"`
	}
	states := make([]shardReady, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			status, _, err := s.Do(r.Context(), http.MethodGet, "/readyz", nil, true)
			states[i] = shardReady{Shard: i, Base: s.Base, Ready: err == nil && status == http.StatusOK}
		}(i, s)
	}
	wg.Wait()
	ready := 0
	for _, st := range states {
		if st.Ready {
			ready++
		}
	}
	code := http.StatusOK
	if ready == 0 {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set(HeaderPartial, fmt.Sprintf("shards=%d/%d", ready, len(rt.shards)))
	rt.front.WriteJSON(w, code, map[string]any{
		"ready":  ready > 0,
		"shards": states,
	})
}
