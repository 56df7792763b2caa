package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anna"
	"anna/internal/cluster"
	"anna/internal/metrics"
	"anna/internal/qos"
)

// buildOptions are annatrain's flag defaults for the workload's |C|,
// M and k* — 15 k-means iterations, hardware-faithful f16 rounding,
// seed 42 — except that training samples at most 25k vectors instead
// of 50k, which halves a build and leaves the run's time to
// measurement.
func buildOptions(clusters, m, ks int) anna.BuildOptions {
	return anna.BuildOptions{
		NClusters: clusters, M: m, Ks: ks,
		TrainIters: 15, MaxTrain: 25000, Seed: 42, HardwareFaithful: true,
	}
}

// cacheEntries is annaserve's default result-cache size.
const cacheEntries = 4096

// newServer configures an anna.Server exactly as annaserve does with
// its flag defaults (store attached when -data is given).
func newServer(idx *anna.Index, store *anna.Store, logger *slog.Logger) *anna.Server {
	s := anna.NewServer(idx)
	s.DefaultW, s.DefaultK = 32, 10
	s.MaxBatch = 1024
	s.MaxInFlight = 256
	s.Store = store
	s.Logger = logger
	s.SlowQuery = 250 * time.Millisecond
	s.TraceSampleEvery = 64
	s.TraceRingSize = 256
	s.BatchWindow = time.Millisecond
	s.BatchMaxSize = 64
	s.CacheSize = cacheEntries
	s.ScrapeEvery = 10 * time.Second
	return s
}

// newRouter configures a cluster.Router exactly as annarouter does
// with its flag defaults.
func newRouter(urls []string, logger *slog.Logger) (*cluster.Router, error) {
	return cluster.New(cluster.Config{
		Shards:           urls,
		Stride:           cluster.DefaultStride,
		DefaultW:         32,
		DefaultK:         10,
		MaxBatch:         1024,
		Logger:           logger,
		SlowQuery:        250 * time.Millisecond,
		TraceSampleEvery: 64,
		TraceRingSize:    256,
		ScrapeEvery:      10 * time.Second,
		Shard: cluster.ShardOptions{
			Timeout:          2 * time.Second,
			AddTimeout:       10 * time.Second,
			Retries:          2,
			Backoff:          qos.Backoff{},
			RetryBudgetRatio: 0.1,
			BreakerFailures:  5,
			BreakerCooldown:  time.Second,
		},
	})
}

// shard is one in-process annaserve with a durable store, listening on
// loopback the way annaserve -data -wal-sync always does.
type shard struct {
	srv   *anna.Server
	store *anna.Store
	hs    *http.Server
	url   string
	done  chan error
}

// startShard creates the store in dir and serves it on a loopback
// port behind a readiness gate, as annaserve does. wrap, when non-nil,
// wraps the server's handler (the traced run's span recorder).
func startShard(dir string, idx *anna.Index, logger *slog.Logger, wrap func(http.Handler) http.Handler) (*shard, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	gate := anna.NewReadinessGate()
	sh := &shard{hs: &http.Server{Handler: gate, ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { sh.done <- sh.hs.Serve(ln) }()
	t := time.Now()
	sh.store, err = anna.CreateStore(dir, idx, anna.StoreOptions{Sync: anna.SyncAlways, Logger: logger})
	storeTime := time.Since(t)
	if err != nil {
		sh.close()
		return nil, 0, fmt.Errorf("creating store in %s: %w", dir, err)
	}
	sh.srv = newServer(sh.store.Index(), sh.store, logger)
	var h http.Handler = sh.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	gate.Ready(h)
	return sh, storeTime, nil
}

// close shuts the shard down in annaserve's order: listener, batcher,
// store. It waits for the serving goroutine to exit.
func (sh *shard) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := sh.hs.Shutdown(ctx)
	if serr := <-sh.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if sh.srv != nil {
		sh.srv.Close()
	}
	if sh.store != nil {
		if cerr := sh.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// spanRec is one span the benchmark recorded around a handler call.
type spanRec struct {
	id    string // X-Request-ID: the router's, on shard hops
	shard int    // -1 for the front handler
	path  string
	d     time.Duration
}

// spanLog collects spans from wrappers around public handlers. Spans
// are kept in memory and read when the traced phase ends. While off,
// a wrapper costs one atomic load.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []spanRec
}

// wrap times every call into h while the log is on.
func (l *spanLog) wrap(shardIdx int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = w.Header().Get("X-Request-ID")
		}
		l.mu.Lock()
		l.spans = append(l.spans, spanRec{id: id, shard: shardIdx, path: r.URL.Path, d: d})
		l.mu.Unlock()
	})
}

// take returns and clears the recorded spans.
func (l *spanLog) take() []spanRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

// scrape reads every series a registry exports, by parsing its
// Prometheus text exposition: the benchmark sees exactly what
// /metrics shows.
func scrape(reg *metrics.Registry) map[string]float64 {
	var b bytes.Buffer
	reg.WriteText(&b)
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// scrapeAll sums the series of several registries (the shards).
func scrapeAll(regs []*metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, r := range regs {
		for k, v := range scrape(r) {
			out[k] += v
		}
	}
	return out
}

// delta returns after − before for every series in after.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// histQuantile estimates quantile q of histogram name (no other
// labels) from its cumulative le buckets in m, interpolating inside the
// bucket the way Histogram.Quantile does. It returns 0 when empty.
func histQuantile(m map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := m[name+"_count"]
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	target := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target && b.cum > prev {
			return lo + (b.le-lo)*(target-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return bs[len(bs)-1].le
}

// workDir names a fresh directory for durable state inside the
// checkout's build directory, on the filesystem both sides of a
// comparison share.
func workDir(root, name string) string {
	return filepath.Join(root, fmt.Sprintf("%s-%d", name, time.Now().UnixNano()))
}
