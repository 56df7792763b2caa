// Package front is the HTTP shell that annaserve (anna.Server) and
// annarouter (cluster.Router) share: the JSON wire types, per-handler
// request instrumentation, the JSON and {"error": ...} writers, the
// trace recorder, and the embedded tsdb and SLO engine behind the
// monitoring endpoints (docs/ARCHITECTURE.md §4k). What differs by
// caller — readiness, the debug trace views, the search and add
// handler bodies — stays with the caller.
package front

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"anna/internal/metrics"
	"anna/internal/slo"
	"anna/internal/tsdb"
)

// SearchRequest is the /search body. A router forwards it to every
// shard re-encoded, so Backend is omitted when empty.
type SearchRequest struct {
	Queries [][]float32 `json:"queries"`
	W       int         `json:"w"`
	K       int         `json:"k"`
	// Backend selects "software" (default) or "anna" (the simulated
	// accelerator; requires Server.Accelerator).
	Backend string `json:"backend,omitempty"`
}

// SearchResult is one ranked hit.
type SearchResult struct {
	ID    int64   `json:"id"`
	Score float32 `json:"score"`
}

// SearchResponse is the /search reply.
type SearchResponse struct {
	Results [][]SearchResult `json:"results"`
	// Simulated-accelerator cost, present for backend "anna".
	Cycles       int64   `json:"cycles,omitempty"`
	TrafficBytes int64   `json:"traffic_bytes,omitempty"`
	ChipEnergyJ  float64 `json:"chip_energy_j,omitempty"`
}

// AddRequest is the /add body.
type AddRequest struct {
	Vectors [][]float32 `json:"vectors"`
}

// AddResponse is the /add reply: the batch holds IDs
// [FirstID, FirstID+Count).
type AddResponse struct {
	FirstID int64 `json:"first_id"`
	Count   int   `json:"count"`
}

// Front is one serving process's HTTP shell. New registers its request
// instruments; Start reads the monitoring knobs and builds the tsdb
// and SLO engine. Log is nil until Start.
type Front struct {
	Log *slog.Logger

	reg      *metrics.Registry
	duration map[string]*metrics.Histogram
	db       *tsdb.DB    // nil when scraping is off
	eng      *slo.Engine // nil when scraping is off
	resps    atomic.Uint64
	resps5xx atomic.Uint64
}

// New returns a front exporting through reg, with a latency histogram
// for each named handler and the Go runtime health gauges.
func New(reg *metrics.Registry, handlers ...string) *Front {
	f := &Front{reg: reg, duration: make(map[string]*metrics.Histogram, len(handlers))}
	for _, h := range handlers {
		f.duration[h] = reg.Histogram("anna_request_duration_seconds",
			"Wall-clock request latency by handler.", nil,
			metrics.Label{Key: "handler", Value: h})
	}
	metrics.RegisterRuntime(reg)
	return f
}

// Duration returns the named handler's latency histogram.
func (f *Front) Duration(handler string) *metrics.Histogram { return f.duration[handler] }

// Close stops the background scraper, if Start began one.
func (f *Front) Close() {
	if f.db != nil {
		f.db.Close()
	}
}

// statusWriter captures the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Status returns the code written so far through an instrumented
// ResponseWriter (200 when none was written or w is not instrumented).
func Status(w http.ResponseWriter) int {
	if sw, ok := w.(*statusWriter); ok {
		return sw.code
	}
	return http.StatusOK
}

// Instrument wraps a handler with request counting and latency
// recording under anna_http_requests_total{handler,code} and
// anna_request_duration_seconds{handler}; name must be one New
// registered. Every response also feeds the requests and errors_5xx
// tsdb series.
func (f *Front) Instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		f.duration[name].ObserveDuration(time.Since(start))
		f.resps.Add(1)
		if sw.code >= 500 {
			f.resps5xx.Add(1)
		}
		f.reg.Counter("anna_http_requests_total", "Requests by handler and status code.",
			metrics.Label{Key: "handler", Value: name},
			metrics.Label{Key: "code", Value: strconv.Itoa(sw.code)}).Inc()
	}
}

// WriteJSON sends v with the given status. The Content-Type header is
// set before the status line goes out (headers are immutable
// afterwards), and encode failures — a closed connection, an
// unmarshalable value — are logged rather than swallowed.
func (f *Front) WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.Log.Error("encoding response failed", "err", err)
	}
}

// Error sends {"error": <formatted message>} with the given status.
func (f *Front) Error(w http.ResponseWriter, code int, format string, args ...any) {
	f.WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Mount registers the endpoints both fronts serve alike: /healthz,
// /metrics and, when Start enabled scraping, /debug/tsdb, /alerts and
// the /debug/dash dashboard titled name.
func (f *Front) Mount(mux *http.ServeMux, name string) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", f.reg.Handler())
	if f.db != nil {
		mux.Handle("/debug/tsdb", f.db.Handler())
		mux.Handle("/alerts", f.eng.Handler())
		mux.Handle("/debug/dash", slo.DashHandler(name))
	}
}
