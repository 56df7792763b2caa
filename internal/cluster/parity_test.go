package cluster

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"anna"
	"anna/internal/trace"
)

// metricLines returns the /metrics sample lines of h (comments
// dropped) that start with prefix.
func metricLines(t *testing.T, h http.Handler, prefix string) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var out []string
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	return out
}

// annaserve and annarouter are one HTTP front around different search
// bodies: for the same requests they must answer errors in the same
// shape, echo the request ID, export the same request series, and serve
// the same monitoring endpoints.
func TestServerAndRouterFrontParity(t *testing.T) {
	const dim = 4
	idx, err := anna.BuildIndex(rvecs(7, 120, dim), anna.L2, anna.BuildOptions{
		NClusters: 4, M: 2, Ks: 16, TrainIters: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := anna.NewServer(idx)
	t.Cleanup(srv.Close)
	shard := httptest.NewServer(annaShard(t, 8))
	t.Cleanup(shard.Close)
	rt, err := New(Config{Shards: []string{shard.URL}, Shard: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	fronts := map[string]http.Handler{"annaserve": srv.Handler(), "annarouter": rt.Handler()}

	serve := func(h http.Handler, method, path, body, reqID string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(method, path, strings.NewReader(body))
		if reqID != "" {
			r.Header.Set(trace.HeaderRequestID, reqID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}

	// Errors: same status, Content-Type and {"error": ...} body.
	errCases := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/search", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/add", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/search", `{"queries": [[1,`, http.StatusBadRequest},
		{http.MethodPost, "/add", `{"vectors": `, http.StatusBadRequest},
	}
	for _, c := range errCases {
		for name, h := range fronts {
			rec := serve(h, c.method, c.path, c.body, "")
			if rec.Code != c.want {
				t.Errorf("%s %s %s: status %d, want %d", name, c.method, c.path, rec.Code, c.want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s %s %s: Content-Type %q", name, c.method, c.path, ct)
			}
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || len(body) != 1 || body["error"] == "" {
				t.Errorf("%s %s %s: body %q is not {\"error\": ...}", name, c.method, c.path, rec.Body.String())
			}
		}
	}

	// The request ID comes back on a served search.
	for name, h := range fronts {
		rec := serve(h, http.MethodPost, "/search", `{"queries": [[0.1, 0.2, 0.3, 0.4]], "k": 3}`, "parity-1")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s search: status %d: %s", name, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get(trace.HeaderRequestID); got != "parity-1" {
			t.Errorf("%s echoed request ID %q", name, got)
		}
	}

	// Both export the same request counters (the same requests went to
	// each) and the same latency series for the handlers they share.
	counts := metricLines(t, fronts["annaserve"], "anna_http_requests_total")
	if len(counts) == 0 {
		t.Fatal("annaserve exports no anna_http_requests_total")
	}
	if got := metricLines(t, fronts["annarouter"], "anna_http_requests_total"); strings.Join(got, "\n") != strings.Join(counts, "\n") {
		t.Errorf("anna_http_requests_total differs:\nannaserve:\n%s\nannarouter:\n%s",
			strings.Join(counts, "\n"), strings.Join(got, "\n"))
	}
	latency := func(h http.Handler) map[string]bool {
		keys := map[string]bool{}
		for _, line := range metricLines(t, h, "anna_request_duration_seconds") {
			key, _, _ := strings.Cut(line, " ")
			for _, handler := range []string{"search", "add", "stats"} {
				if strings.Contains(key, `handler="`+handler+`"`) {
					keys[key] = true
				}
			}
		}
		return keys
	}
	serveKeys, routerKeys := latency(fronts["annaserve"]), latency(fronts["annarouter"])
	if len(serveKeys) == 0 {
		t.Fatal("annaserve exports no anna_request_duration_seconds")
	}
	for k := range serveKeys {
		if !routerKeys[k] {
			t.Errorf("annarouter lacks %s", k)
		}
	}
	for k := range routerKeys {
		if !serveKeys[k] {
			t.Errorf("annaserve lacks %s", k)
		}
	}

	// The monitoring surface answers on both.
	for _, path := range []string{"/healthz", "/debug/tsdb", "/alerts", "/debug/dash"} {
		for name, h := range fronts {
			if rec := serve(h, http.MethodGet, path, "", ""); rec.Code != http.StatusOK {
				t.Errorf("%s GET %s: status %d", name, path, rec.Code)
			}
		}
	}
}
