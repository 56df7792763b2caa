package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Router-side debug views (docs/ARCHITECTURE.md §4k): /debug/queries
// adds a per-shard breakdown to each trace, and /debug/trace/{id}
// stitches the router's cluster trace together with the shard-side
// traces recorded under the same ID.

// handleDebugQueries serves the router's recent traces, slowest first,
// each with a per-shard time breakdown computed from its hops. ?n=
// bounds the response.
func (rt *Router) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.front.Error(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	traces := rt.rec.Snapshot()
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].Total > traces[j].Total })
	if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n >= 0 && n < len(traces) {
		traces = traces[:n]
	}
	type entry struct {
		Trace  any              `json:"trace"`
		Shards map[string]int64 `json:"shard_ns,omitempty"` // total hop time per shard
	}
	out := make([]entry, len(traces))
	for i, t := range traces {
		e := entry{Trace: t}
		if len(t.Hops) > 0 {
			e.Shards = make(map[string]int64, len(t.Hops))
			for _, h := range t.Hops {
				e.Shards[strconv.Itoa(h.Shard)] += int64(h.Duration)
			}
		}
		out[i] = e
	}
	total, slow := rt.rec.Recorded()
	rt.front.WriteJSON(w, http.StatusOK, map[string]any{
		"recorded_total": total,
		"slow_total":     slow,
		"count":          len(out),
		"traces":         out,
	})
}

// stitchTimeout bounds each shard-side trace fetch during stitching.
const stitchTimeout = 2 * time.Second

// handleDebugTrace serves one cluster trace by ID, stitched on demand:
// the router's own trace (hops included) plus each touched shard's
// /debug/trace/{id} view of the same request. The shard fetches go
// through the raw HTTP client, not Shard.Do — a debug read must not
// perturb serving stats, the retry budget, or the breaker.
func (rt *Router) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.front.Error(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := r.PathValue("id")
	t := rt.rec.Get(id)
	if t == nil {
		rt.front.Error(w, http.StatusNotFound, "no buffered trace with id %q (evicted or never traced)", id)
		return
	}
	touched := map[int]bool{}
	for _, h := range t.Hops {
		touched[h.Shard] = true
	}
	shardTraces := make(map[string]json.RawMessage, len(touched))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for idx := range touched {
		s := rt.shards[idx]
		wg.Add(1)
		go func(idx int, s *Shard) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), stitchTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.Base+"/debug/trace/"+id, nil)
			if err != nil {
				return
			}
			resp, err := s.opt.Client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(body) {
				// A shard without the trace (evicted, restarted) just
				// leaves its slot out of the stitch.
				return
			}
			mu.Lock()
			shardTraces[strconv.Itoa(idx)] = body
			mu.Unlock()
		}(idx, s)
	}
	wg.Wait()
	rt.front.WriteJSON(w, http.StatusOK, map[string]any{
		"trace":        t,
		"shard_traces": shardTraces,
	})
}
