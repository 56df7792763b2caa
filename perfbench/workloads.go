package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"anna"
	"anna/internal/cluster"
	"anna/internal/dataset"
	"anna/internal/exact"
	annametrics "anna/internal/metrics"
	"anna/internal/pq"
	"anna/internal/topk"
	"anna/internal/vecmath"
)

// Search shape of every workload, and the batch size of every add.
const (
	searchW  = 32
	searchK  = 10
	addBatch = 8
	// probeQueries is the size of each correctness probe: recall@10
	// against exact ground truth, and the served-vs-direct comparison.
	probeQueries = 256
)

// workloadSpec fixes everything a workload offers the program.
type workloadSpec struct {
	Name       string
	N          int // corpus vectors
	Clusters   int // |C| of the (whole) index
	M, Ks      int
	Pool       int           // distinct queries the traffic draws from
	Zipf       float64       // popularity skew of the draw (<=1 uniform)
	Held       int           // held-out vectors for adds
	RefRate    float64       // open loop: requests/s of the reference phase (0: one closed-loop client)
	RefShare   float64       // open loop: share of the measured time at RefRate
	LadderFrom float64       // open loop: requests/s of the ladder's first rung
	Limit      time.Duration // open loop: the p99 limit of the goodput ladder
	PerRequest int           // queries per /search request
	AddShare   float64       // share of requests that are /add
	Shards     int           // 0: one annaserve; else shards behind a router
	MinRecall  float64       // correctness gate: recall@10 floor
}

var workloads = map[string]workloadSpec{
	"zipf-single": {
		Name: "zipf-single", N: 200000, Clusters: 256, M: 32, Ks: 16,
		Pool: 2048, Zipf: 1.1, Held: 512,
		RefRate: 6000, RefShare: 0.4, LadderFrom: 18000, Limit: 25 * time.Millisecond, PerRequest: 1,
		MinRecall: 0.15,
	},
	"bulk-uniform": {
		Name: "bulk-uniform", N: 100000, Clusters: 256, M: 32, Ks: 256,
		Pool: 16384, Held: 512,
		PerRequest: 64,
		MinRecall:  0.4,
	},
	"cluster-rw": {
		Name: "cluster-rw", N: 200000, Clusters: 256, M: 32, Ks: 16,
		Pool: 65536, Held: 16384,
		RefRate: 250, RefShare: 0.5, LadderFrom: 370, Limit: 50 * time.Millisecond, PerRequest: 1,
		AddShare: 0.05, Shards: 3,
		MinRecall: 0.15,
	},
}

// open reports whether the workload offers load on a schedule.
func (s workloadSpec) open() bool { return s.RefRate > 0 }

// config is one invocation of the benchmark.
type config struct {
	spec    workloadSpec
	seed    int64
	seconds time.Duration
	trace   bool
	setups  int    // set-ups per run: setup_s is their median; the untraced run loads each
	work    string // directory for durable state, inside the checkout
	logger  *slog.Logger
}

// result is what a run reports.
type result struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   map[string]float64
	stamp     map[string]any
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// data is the benchmark's own copy of the generated inputs.
type data struct {
	corpus [][]float32 // the indexed vectors
	probe  [][]float32 // recall probes, never sent as load
	pool   [][]float32 // queries the traffic draws from
	held   [][]float32 // held out for adds
	base   *vecmath.Matrix
}

// corpusSeed fixes the generator of every corpus and probe set, so run
// to run differences come from the traffic, not from a different
// corpus; --seed picks the query pool, the held-out vectors and the
// order of the traffic.
const corpusSeed = 1

// generate makes the workload's inputs: SIFT-like vectors (D=128, L2,
// 64 Gaussian groups) — the corpus, then the recall probes, then spare
// rows the seed deals into the query pool and the held-out vectors. A
// corpus depends only on N, so zipf-single and cluster-rw index the
// same vectors.
func generate(s workloadSpec, seed int64) *data {
	spare := s.Pool + s.Held
	ds := dataset.Generate(dataset.SIFTLike(s.N+probeQueries+spare, 1, corpusSeed))
	d := &data{base: ds.Base}
	rows := func(lo, hi int) [][]float32 {
		out := make([][]float32, hi-lo)
		for i := range out {
			out[i] = ds.Base.Row(lo + i)
		}
		return out
	}
	d.corpus = rows(0, s.N)
	d.probe = rows(s.N, s.N+probeQueries)
	for j, p := range rand.New(rand.NewSource(seed)).Perm(spare) {
		r := ds.Base.Row(s.N + probeQueries + p)
		if j < s.Pool {
			d.pool = append(d.pool, r)
		} else {
			d.held = append(d.held, r)
		}
	}
	return d
}

// setupTimes splits one set-up; total is what setup_s reports.
type setupTimes struct{ total, build, store time.Duration }

// system is a started serving stack.
type system struct {
	front   http.Handler // what the generator calls in-process
	idx     *anna.Index  // the single server's index, or shard 0's
	srv     *anna.Server // the single server
	shards  []*shard
	router  *cluster.Router
	log     *spanLog
	initial []int // vectors per shard at start
	dirs    string
}

func (s *system) close() error {
	var err error
	if s.srv != nil {
		s.srv.Close()
	}
	if s.router != nil {
		s.router.Close()
		// The router's shard clients use the default transport. Its idle
		// connections, including any it dialed but never used, would
		// hold the shards' graceful shutdown until its deadline.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	for _, sh := range s.shards {
		if cerr := sh.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if s.dirs != "" {
		if rerr := os.RemoveAll(s.dirs); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// registries returns every anna.Server's metrics registry.
func (s *system) registries() []*annametrics.Registry {
	if s.srv != nil {
		return []*annametrics.Registry{s.srv.Metrics()}
	}
	regs := make([]*annametrics.Registry, len(s.shards))
	for i, sh := range s.shards {
		regs[i] = sh.srv.Metrics()
	}
	return regs
}

// setup generates the inputs and starts the workload's serving stack
// until it answers ready. In the traced run each shard's handler is
// wrapped by the span log (off until a traced segment starts).
func setup(c *config) (*system, *data, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	d := generate(c.spec, c.seed)
	sys := &system{log: &spanLog{}}
	if c.spec.Shards == 0 {
		bt := time.Now()
		idx, err := anna.BuildIndex(d.corpus, anna.L2, buildOptions(c.spec.Clusters, c.spec.M, c.spec.Ks))
		t.build = time.Since(bt)
		if err != nil {
			return nil, nil, t, fmt.Errorf("building index: %w", err)
		}
		sys.idx = idx
		sys.srv = newServer(idx, nil, c.logger)
		sys.front = sys.srv.Handler()
	} else {
		// The corpus is split round-robin; each shard indexes its part
		// with |C|/shards clusters (annaload's convention), so lists keep
		// the single index's length.
		sys.dirs = workDir(c.work, c.spec.Name)
		urls := make([]string, c.spec.Shards)
		for i := 0; i < c.spec.Shards; i++ {
			var part [][]float32
			for j := i; j < len(d.corpus); j += c.spec.Shards {
				part = append(part, d.corpus[j])
			}
			bt := time.Now()
			idx, err := anna.BuildIndex(part, anna.L2, buildOptions(c.spec.Clusters/c.spec.Shards, c.spec.M, c.spec.Ks))
			t.build += time.Since(bt)
			if err != nil {
				sys.close()
				return nil, nil, t, fmt.Errorf("building shard %d: %w", i, err)
			}
			var wrap func(http.Handler) http.Handler
			if c.trace {
				wrap = func(h http.Handler) http.Handler { return sys.log.wrap(i, h) }
			}
			sh, st, err := startShard(fmt.Sprintf("%s/shard%d", sys.dirs, i), idx, c.logger, wrap)
			t.store += st
			if err != nil {
				sys.close()
				return nil, nil, t, err
			}
			sys.shards = append(sys.shards, sh)
			sys.initial = append(sys.initial, len(part))
			urls[i] = sh.url
		}
		sys.idx = sys.shards[0].store.Index()
		rt, err := newRouter(urls, c.logger)
		if err != nil {
			sys.close()
			return nil, nil, t, err
		}
		sys.router = rt
		sys.front = rt.Handler()
	}
	if err := waitReady(sys.front, c.spec.Shards); err != nil {
		sys.close()
		return nil, nil, t, err
	}
	t.total = time.Since(start)
	return sys, d, t, nil
}

// waitReady polls /readyz until the stack answers ready with every
// shard covered.
func waitReady(h http.Handler, shards int) error {
	want := ""
	if shards > 0 {
		want = fmt.Sprintf("shards=%d/%d", shards, shards)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		w := call(h, http.MethodGet, "/readyz", nil)
		if w.Code == http.StatusOK && w.Header().Get("X-Anna-Partial") == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stack not ready: /readyz %d %q", w.Code, w.Header().Get("X-Anna-Partial"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setupRounds sets the stack up c.setups times, one after another,
// calls each on every set-up before the next replaces it, and keeps the
// last. The times it returns are the medians over the set-ups, so work
// moved into set-up shows without one slow start deciding the figure.
func setupRounds(c *config, each func(sys *system, d *data, last bool)) (*system, *data, setupTimes, error) {
	var all []setupTimes
	var sys *system
	var d *data
	for i := 0; i < c.setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, nil, setupTimes{}, err
			}
			sys, d = nil, nil
		}
		var t setupTimes
		var err error
		sys, d, t, err = setup(c)
		if err != nil {
			return nil, nil, setupTimes{}, err
		}
		all = append(all, t)
		each(sys, d, i == c.setups-1)
	}
	med := func(get func(setupTimes) time.Duration) time.Duration {
		xs := make([]float64, len(all))
		for i, t := range all {
			xs[i] = float64(get(t))
		}
		return time.Duration(summarize(xs).P50)
	}
	return sys, d, setupTimes{
		total: med(func(t setupTimes) time.Duration { return t.total }),
		build: med(func(t setupTimes) time.Duration { return t.build }),
		store: med(func(t setupTimes) time.Duration { return t.store }),
	}, nil
}

// searchBody marshals one /search request.
func searchBody(queries [][]float32) []byte {
	b, err := json.Marshal(map[string]any{"queries": queries, "w": searchW, "k": searchK})
	if err != nil {
		panic(err) // float32 slices always marshal
	}
	return b
}

func addBody(vectors [][]float32) []byte {
	b, err := json.Marshal(map[string]any{"vectors": vectors})
	if err != nil {
		panic(err)
	}
	return b
}

type wireResult struct {
	ID    int64   `json:"id"`
	Score float32 `json:"score"`
}

type wireSearch struct {
	Results [][]wireResult `json:"results"`
}

// capture keeps the first served response body per key, for the
// correctness gate to check after the load.
type capture struct{ bodies []atomic.Pointer[[]byte] }

func newCapture(n int) *capture { return &capture{bodies: make([]atomic.Pointer[[]byte], n)} }

func (c *capture) offer(i int, body []byte) {
	if i < len(c.bodies) && c.bodies[i].Load() == nil {
		b := append([]byte(nil), body...)
		c.bodies[i].CompareAndSwap(nil, &b)
	}
}

// traffic is the request source of a run: the dispatcher calls next,
// which draws the next request in seed order.
type traffic struct {
	spec     workloadSpec
	front    http.Handler
	bodies   [][]byte // per pool query (single) or per request (bulk)
	adds     [][]byte // per held-out add batch
	mix      *dataset.QueryMix
	perm     []int
	rng      *rand.Rand
	cursor   int
	addNext  int
	captured *capture

	pool  [][]float32
	mu    sync.Mutex
	acked []ack // cluster-rw: acknowledged adds
	// failedAdds counts adds that were not acknowledged: their effect
	// on the corpus is unknown.
	failedAdds atomic.Int64
}

// ack is one acknowledged /add: the global ID of its first vector and
// which held-out batch it carried.
type ack struct {
	firstID int64
	batch   int
}

func newTraffic(c *config, sys *system, d *data) *traffic {
	s := c.spec
	tr := &traffic{spec: s, front: sys.front, pool: d.pool, rng: rand.New(rand.NewSource(c.seed))}
	switch {
	case s.PerRequest > 1:
		// Bulk: requests of distinct queries, uniformly without repeats.
		tr.perm = tr.rng.Perm(len(d.pool))
		for lo := 0; lo+s.PerRequest <= len(tr.perm); lo += s.PerRequest {
			qs := make([][]float32, s.PerRequest)
			for j := range qs {
				qs[j] = d.pool[tr.perm[lo+j]]
			}
			tr.bodies = append(tr.bodies, searchBody(qs))
		}
		tr.captured = newCapture(len(tr.bodies))
	default:
		tr.bodies = make([][]byte, len(d.pool))
		for i, q := range d.pool {
			tr.bodies[i] = searchBody([][]float32{q})
		}
		if s.Zipf > 1 {
			tr.mix = dataset.NewQueryMix(len(d.pool), s.Zipf, c.seed)
		} else {
			tr.perm = tr.rng.Perm(len(d.pool))
		}
		tr.captured = newCapture(len(d.pool))
	}
	if s.AddShare > 0 {
		for lo := 0; lo+addBatch <= len(d.held); lo += addBatch {
			tr.adds = append(tr.adds, addBody(d.held[lo:lo+addBatch]))
		}
	}
	return tr
}

// next draws the next request. Only the dispatcher calls it.
func (tr *traffic) next() job { return tr.nextVia(tr.front) }

func (tr *traffic) nextVia(h http.Handler) job {
	if tr.spec.AddShare > 0 && tr.rng.Float64() < tr.spec.AddShare {
		b := tr.addNext % len(tr.adds)
		tr.addNext++
		return func() outcome {
			w := call(h, http.MethodPost, "/add", tr.adds[b])
			ok := served(w)
			if ok {
				var ar struct {
					FirstID int64 `json:"first_id"`
					Count   int   `json:"count"`
				}
				if json.Unmarshal(w.Body.Bytes(), &ar) != nil || ar.Count != addBatch {
					ok = false
				} else {
					tr.mu.Lock()
					tr.acked = append(tr.acked, ack{ar.FirstID, b})
					tr.mu.Unlock()
				}
			}
			if !ok {
				tr.failedAdds.Add(1)
			}
			return outcome{kind: kindAdd, ok: ok}
		}
	}
	var i int
	if tr.mix != nil {
		i = tr.mix.Next()
	} else if tr.spec.PerRequest > 1 {
		i = tr.cursor % len(tr.bodies)
		tr.cursor++
	} else {
		i = tr.perm[tr.cursor%len(tr.perm)]
		tr.cursor++
	}
	body := tr.bodies[i]
	return func() outcome {
		w := call(h, http.MethodPost, "/search", body)
		ok := served(w)
		if ok && tr.spec.Shards == 0 {
			tr.captured.offer(i, w.Body.Bytes())
		}
		return outcome{kind: kindSearch, ok: ok}
	}
}

// groundTruth computes the exact top-k IDs of each query over the
// first n rows of base (row i has ID id(i)) plus extra rows with IDs
// extraIDs, by exhaustive search.
func groundTruth(base *vecmath.Matrix, n int, id func(int) int64, extra [][]float32, extraIDs []int64, queries [][]float32, k int) [][]int64 {
	q := vecmath.NewMatrix(len(queries), base.Cols)
	for i, r := range queries {
		copy(q.Row(i), r)
	}
	view := &vecmath.Matrix{Rows: n, Cols: base.Cols, Data: base.Data[:n*base.Cols]}
	res := exact.New(pq.L2, view).SearchBatch(q, k)
	for _, rs := range res {
		for j := range rs {
			rs[j].ID = id(int(rs[j].ID))
		}
	}
	if len(extra) > 0 {
		m := vecmath.NewMatrix(len(extra), base.Cols)
		for i, r := range extra {
			copy(m.Row(i), r)
		}
		more := exact.New(pq.L2, m).SearchBatch(q, k)
		for i, rs := range more {
			for j := range rs {
				rs[j].ID = extraIDs[rs[j].ID]
			}
			res[i] = topk.Merge(k, res[i], rs)
		}
	}
	out := make([][]int64, len(res))
	for i, rs := range res {
		out[i] = make([]int64, len(rs))
		for j, r := range rs {
			out[i][j] = r.ID
		}
	}
	return out
}
