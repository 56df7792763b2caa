package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"anna"
	"anna/internal/cluster"
)

// execute runs one workload: set-ups, load, correctness gate. The
// untraced run measures the load on each of its set-ups in turn; the
// gate checks the last. It returns the still-running last system so
// the caller can read the heap once the benchmark's own inputs are
// garbage.
func execute(c *config) (*result, *system, error) {
	res := &result{correct: true, metrics: map[string]float64{}, stamp: map[string]any{}}
	var tr *traffic
	var rounds []*round
	sys, d, st, err := setupRounds(c, func(sys *system, d *data, last bool) {
		tr = newTraffic(c, sys, d)
		runtime.GC()
		if !c.trace {
			rounds = append(rounds, measureRound(c, sys, tr, last))
		}
	})
	if err != nil {
		return nil, nil, err
	}
	s := c.spec
	var measured *phase
	if !c.trace {
		res.metrics["setup_s"] = st.total.Seconds()
		measured = combine(c, rounds, res)
	} else {
		res.metrics["setup.build_s"] = st.build.Seconds()
		res.metrics["setup.store_s"] = st.store.Seconds()
		measured = measureTraced(c, sys, tr, res)
	}
	res.attempted += measured.attempted()
	res.failed += measured.failed()

	if s.Shards == 0 {
		gateSingle(c, sys, d, tr, res)
	} else {
		gateCluster(c, sys, d, tr, res)
	}

	if c.trace {
		if err := timeAdds(sys.idx, d.held[:512], res.metrics); err != nil {
			return nil, nil, fmt.Errorf("timing Index.Add: %w", err)
		}
	}

	res.stamp["workload"] = s.Name
	res.stamp["seconds"] = c.seconds.Seconds()
	res.stamp["setups"] = c.setups
	res.stamp["dataset"] = map[string]any{
		"kind": "SIFT-like synthetic", "n": s.N, "d": 128, "metric": "l2",
		"clusters": s.Clusters, "m": s.M, "ks": s.Ks, "shards": s.Shards,
		"pool": s.Pool, "zipf": s.Zipf, "queries_per_request": s.PerRequest,
		"add_share": s.AddShare, "vectors_per_add": addBatch, "w": searchW, "k": searchK,
	}
	if s.open() {
		res.stamp["load"] = "open loop"
		res.stamp["reference_rate"] = s.RefRate
		res.stamp["ladder_from"] = s.LadderFrom
		res.stamp["latency_limit_ms"] = ms(s.Limit)
		res.stamp["outstanding_cap"] = maxOutstanding
	} else {
		res.stamp["load"] = "closed loop, 1 client"
	}
	if s.Shards > 0 {
		res.stamp["wal_sync"] = "always"
	} else {
		res.stamp["wal_sync"] = "none (in-memory annaserve, no -data)"
	}
	return res, sys, nil
}

// setLatency reports the search latency of p: the median as
// search_p50_ms, and in the stamp the sample count and the p90 and p99
// (each the highest percentile up to it that the sample supports, with
// the percentile reported).
func setLatency(res *result, p *phase) {
	d := p.latency(kindSearch, 0.9)
	res.metrics["search_p50_ms"] = d.P50
	res.stamp["search_samples"] = d.N
	res.stamp["search_p90_ms"], res.stamp["search_p90_percentile"] = d.Tail, d.TailPct
	t := p.latency(kindSearch, 0.99)
	res.stamp["search_p99_ms"], res.stamp["search_p99_percentile"] = t.Tail, t.TailPct
}

// split divides the traced run's seconds into a warm-up and the
// measured part.
func split(total time.Duration) (warm, rest time.Duration) {
	warm = total / 10
	return warm, total - warm
}

// allot divides the untraced run's seconds over its set-ups: each gets
// a warm-up of a twentieth of the run and an equal share of the
// reference load; the last set-up also runs the goodput ladder of an
// open loop with what is left.
func allot(c *config) (warm, ref, ladder time.Duration) {
	k := time.Duration(c.setups)
	warm = c.seconds / 20
	rest := c.seconds - k*warm
	if !c.spec.open() {
		return warm, rest / k, 0
	}
	ref = time.Duration(float64(rest)*c.spec.RefShare) / k
	return warm, ref, rest - k*ref
}

// round is the load measured on one set-up.
type round struct {
	ref     *phase   // the reference load (the closed loop's requests)
	rate    float64  // closed loop: queries answered per second
	goodput float64  // open loop, last set-up: the ladder's result
	rungs   []*phase // open loop, last set-up: every rung the ladder ran
}

// measureRound offers one set-up the reference load after a warm-up,
// and on the last set-up of an open loop runs the goodput ladder.
func measureRound(c *config, sys *system, tr *traffic, last bool) *round {
	s := c.spec
	warm, refTime, ladderTime := allot(c)
	if !s.open() {
		// Let lazy set-up (engine pools, first-touch of the lists) finish
		// outside the timed window.
		closedLoop(warm, 0, tr.next)
		// The last set-up's stack is the one whose heap is reported: it
		// serves at least enough queries to fill the result cache, so
		// heap_mb does not depend on how fast the machine ran.
		need := 0
		if last {
			need = (cacheEntries + s.PerRequest - 1) / s.PerRequest
		}
		p := closedLoop(refTime, need, tr.next)
		return &round{ref: p, rate: float64(len(p.LatMS[kindSearch])*s.PerRequest) / p.Elapsed.Seconds()}
	}
	openLoop(s.RefRate, warm, tr.next)
	r := &round{ref: openLoop(s.RefRate, refTime, tr.next)}
	if last {
		// A typical search runs about seven rungs, repeats included.
		r.goodput, r.rungs = ladder(s.LadderFrom, s.Limit, ladderTime/7, ladderTime, tr.next)
	}
	return r
}

// combine reports the end-to-end metrics of the untraced run from its
// rounds: search_p50_ms and the closed loop's goodput_qps are medians
// over the set-ups, so that one set-up that happened to run slow (the
// same code on a fresh stack varies by up to a third) does not decide
// them; the tails in the stamp come from the rounds' reference loads
// pooled. It returns the pooled reference load.
func combine(c *config, rounds []*round, res *result) *phase {
	s := c.spec
	all := &phase{}
	var p50s, rates []float64
	for _, r := range rounds {
		all.append(r.ref)
		p50s = append(p50s, r.ref.latency(kindSearch, 0.9).P50)
		rates = append(rates, r.rate)
	}
	setLatency(res, all)
	res.metrics["search_p50_ms"] = summarize(p50s).P50
	res.stamp["setup_search_p50_ms"] = p50s
	res.metrics["success_rate"] = 1 - float64(all.failed())/float64(all.attempted())
	if !s.open() {
		res.metrics["goodput_qps"] = summarize(rates).P50
		res.stamp["setup_queries_per_s"] = rates
		return all
	}
	late := summarize(all.LateMS)
	res.stamp["late_p50_ms"], res.stamp["late_p99_ms"] = late.P50, late.Tail
	lastRound := rounds[len(rounds)-1]
	res.metrics["goodput_qps"] = lastRound.goodput
	var visited []map[string]any
	for _, p := range lastRound.rungs {
		pass, why := verdict(p.rung(), s.Limit)
		visited = append(visited, map[string]any{
			"rate": math.Round(p.Rate), "pass": pass, "why": why,
			"attempted": p.attempted(), "failed": p.failed(),
			"p99_ms": summarize(p.LatMS[kindSearch]).Tail, "late_p99_ms": summarize(p.LateMS).Tail,
		})
	}
	res.stamp["ladder"] = visited
	return all
}

// measureTraced is the traced run: it alternates untraced and traced
// segments of the reference load (so both see the same warm state),
// derives the per-layer metrics from the traced ones and reports the
// tracing overhead as the traced segments' relative difference. It
// returns the attempts and failures of all segments.
func measureTraced(c *config, sys *system, tr *traffic, res *result) *phase {
	s := c.spec
	t := newTracer(sys.registries(), sys.log)
	if sys.router != nil {
		t.router = sys.router.Metrics()
		t.attempts = func() uint64 {
			var n uint64
			for _, sh := range sys.router.Shards() {
				n += sh.Stats().Requests.Load()
			}
			return n
		}
		t.walStat = func() (fs, b uint64) {
			for _, sh := range sys.shards {
				_, f, by := sh.store.WALStats()
				fs += f
				b += by
			}
			return fs, b
		}
	}
	traced := sys.log.wrap(-1, sys.front)
	nextT := func() job { return tr.nextVia(traced) }
	load := func(d time.Duration, next func() job) *phase {
		if s.open() {
			return openLoop(s.RefRate, d, next)
		}
		return closedLoop(d, 0, next)
	}
	warm, rest := split(c.seconds)
	load(warm, tr.next)
	all := &phase{}
	var plain, withSpans []float64
	for seg := 0; seg < 4; seg++ {
		if seg%2 == 0 {
			p := load(rest/4, tr.next)
			plain = append(plain, p.LatMS[kindSearch]...)
			count(all, p)
			continue
		}
		t.begin()
		p := load(rest/4, nextT)
		t.end(p)
		withSpans = append(withSpans, p.LatMS[kindSearch]...)
		count(all, p)
	}
	u, v := summarizeAt(plain, 0.9), summarizeAt(withSpans, 0.9)
	res.metrics["trace.overhead.search_p50_ms"] = v.P50/u.P50 - 1
	res.metrics["trace.overhead.search_p90_ms"] = v.Tail/u.Tail - 1

	t.layerMetrics(res.metrics, generatorAllocs(tr), s.Shards)
	// Engine-bound work replayed straight into Index.SearchBatch, in the
	// shape the server ran it: the queries per coalesced flush on
	// zipf-single, whole requests on bulk-uniform, single queries (router
	// hops bypass the batcher) on a shard of cluster-rw.
	batch := s.PerRequest
	if s.Shards == 0 && s.PerRequest == 1 {
		batch = max(1, int(math.Round(res.metrics["qos.batcher.queries_per_flush"])))
	}
	qs := tr.replayQueries(probeQueries * 2)
	if err := replay(sys.idx, qs, batch, res.metrics); err != nil {
		res.fail("engine replay: %v", err)
	}
	return all
}

// count adds p's attempts and failures to all.
func count(all, p *phase) {
	for k := 0; k < nKinds; k++ {
		all.Attempted[k] += p.Attempted[k]
		all.Failed[k] += p.Failed[k]
	}
}

// generatorAllocs measures the generator's own heap allocations per
// request: requests like the workload's through a handler that does
// nothing.
func generatorAllocs(tr *traffic) float64 {
	nop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	body := tr.bodies[0]
	const n = 2000
	before := readRuntime()
	openLoop(float64(n)*4, time.Second/4, func() job {
		return func() outcome {
			return outcome{kind: kindSearch, ok: served(call(nop, http.MethodPost, "/search", body))}
		}
	})
	return (readRuntime()[0] - before[0]) / n
}

// replayQueries returns up to n queries the traffic has sent, in the
// order it first sent them.
func (tr *traffic) replayQueries(n int) [][]float32 {
	var out [][]float32
	switch {
	case tr.spec.PerRequest > 1:
		for r := 0; r < tr.cursor && len(out) < n; r++ {
			for j := 0; j < tr.spec.PerRequest; j++ {
				out = append(out, tr.pool[tr.perm[r*tr.spec.PerRequest+j]])
			}
		}
	case tr.mix != nil:
		for i := range tr.captured.bodies {
			if tr.captured.bodies[i].Load() != nil && len(out) < n {
				out = append(out, tr.pool[i])
			}
		}
	default:
		for r := 0; r < tr.cursor && len(out) < n; r++ {
			out = append(out, tr.pool[tr.perm[r]])
		}
	}
	return out
}

// gateSingle checks that a single server's first served response for
// each probe query is bit-identical to a direct Index.SearchBatch on
// the same queries (the batcher and cache contract), and measures
// recall.
func gateSingle(c *config, sys *system, d *data, tr *traffic, res *result) {
	var queries [][]float32
	var answers [][]wireResult
	for i := range tr.captured.bodies {
		b := tr.captured.bodies[i].Load()
		if b == nil {
			continue
		}
		var ws wireSearch
		if err := json.Unmarshal(*b, &ws); err != nil {
			res.fail("decoding captured response: %v", err)
			return
		}
		qs := [][]float32{tr.pool[i]}
		if tr.spec.PerRequest > 1 {
			qs = qs[:0]
			for j := 0; j < tr.spec.PerRequest; j++ {
				qs = append(qs, tr.pool[tr.perm[i*tr.spec.PerRequest+j]])
			}
		}
		if len(ws.Results) != len(qs) {
			res.fail("captured response has %d result lists for %d queries", len(ws.Results), len(qs))
			return
		}
		queries = append(queries, qs...)
		answers = append(answers, ws.Results...)
		if len(queries) >= probeQueries {
			break
		}
	}
	if len(queries) == 0 {
		res.fail("no served response captured")
		return
	}
	rep, err := sys.idx.SearchBatch(queries, anna.SearchOptions{W: searchW, K: searchK, Mode: anna.ClusterMajor})
	if err != nil {
		res.fail("direct search: %v", err)
		return
	}
	mismatched := 0
	for i, direct := range rep.Results {
		if !identical(answers[i], direct) {
			mismatched++
		}
	}
	res.stamp["identity_probe_queries"] = len(queries)
	if mismatched > 0 {
		res.fail("%d of %d served results differ from a direct Index.SearchBatch", mismatched, len(queries))
	}
	probeRecall(c, sys, d, res, func(i int) int64 { return int64(i) }, nil, nil)
}

// probeRecall sends the probe queries through the front handler once
// the load is over, in requests shaped like the workload's, and checks
// recall@10 against exact ground truth over the corpus (row i has ID
// id(i)) plus extra rows with IDs extraIDs.
func probeRecall(c *config, sys *system, d *data, res *result, id func(int) int64, extra [][]float32, extraIDs []int64) {
	gt := time.Now()
	truth := groundTruth(d.base, len(d.corpus), id, extra, extraIDs, d.probe, searchK)
	res.metrics["setup.groundtruth_s"] = time.Since(gt).Seconds()
	per := c.spec.PerRequest
	var got [][]int64
	for lo := 0; lo < len(d.probe); lo += per {
		qs := d.probe[lo:min(lo+per, len(d.probe))]
		w := call(sys.front, http.MethodPost, "/search", searchBody(qs))
		res.attempted++
		var ws wireSearch
		if !served(w) || json.Unmarshal(w.Body.Bytes(), &ws) != nil || len(ws.Results) != len(qs) {
			res.failed++
			res.fail("recall probe: status %d %q", w.Code, w.Header().Get("X-Anna-Partial"))
			return
		}
		for _, rs := range ws.Results {
			ids := make([]int64, len(rs))
			for j, r := range rs {
				ids[j] = r.ID
			}
			got = append(got, ids)
		}
	}
	sum := 0.0
	for i := range truth {
		sum += recallAt(searchK, truth[i], got[i])
	}
	r := sum / float64(len(truth))
	res.metrics["recall_at_10"] = r
	res.stamp["recall_probe_queries"] = len(truth)
	if r < c.spec.MinRecall {
		res.fail("recall@10 %.4f under the floor %.2f", r, c.spec.MinRecall)
	}
}

// identical reports whether a served result list matches the direct
// one bit for bit: same IDs, same float32 scores, same order.
func identical(served []wireResult, direct []anna.Result) bool {
	if len(served) != len(direct) {
		return false
	}
	for j := range served {
		if served[j].ID != direct[j].ID || math.Float32bits(served[j].Score) != math.Float32bits(direct[j].Score) {
			return false
		}
	}
	return true
}

// gateCluster checks the sharded stack: every acknowledged /add is
// present — each shard's vectors are exactly its initial ones plus the
// acknowledged batches, tiled at the returned first IDs — and recall@10
// of fresh probe queries through the router over the final corpus.
func gateCluster(c *config, sys *system, d *data, tr *traffic, res *result) {
	w := call(sys.front, http.MethodGet, "/stats", nil)
	var st struct {
		Vectors int `json:"vectors"`
		Shards  []struct {
			Vectors int `json:"vectors"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || len(st.Shards) != len(sys.shards) {
		res.fail("reading router /stats: %v (%d shards)", err, len(st.Shards))
		return
	}
	stride := cluster.DefaultStride
	perShard := make([][]int64, len(sys.shards))
	for _, a := range tr.acked {
		s := int(a.firstID / stride)
		if s < 0 || s >= len(sys.shards) {
			res.fail("acknowledged first_id %d outside every shard stripe", a.firstID)
			return
		}
		perShard[s] = append(perShard[s], a.firstID%stride)
	}
	failedAdds := int(tr.failedAdds.Load())
	for s, firsts := range perShard {
		sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
		next := int64(sys.initial[s])
		for _, f := range firsts {
			if f < next {
				res.fail("shard %d: acknowledged batch at %d overlaps the previous one", s, f)
				return
			}
			if f > next && failedAdds == 0 {
				res.fail("shard %d: gap before acknowledged batch at %d (want %d)", s, f, next)
				return
			}
			next = f + addBatch
		}
		if have := int64(st.Shards[s].Vectors); have < next || (failedAdds == 0 && have != next) {
			res.fail("shard %d holds %d vectors, acknowledged adds end at %d", s, have, next)
			return
		}
	}
	want := len(d.corpus) + addBatch*len(tr.acked)
	if st.Vectors < want || st.Vectors > want+addBatch*failedAdds {
		res.fail("cluster holds %d vectors, want %d initial+acknowledged", st.Vectors, want)
	}
	res.stamp["acknowledged_adds"] = len(tr.acked)

	// Recall of the probes through the router, over the final corpus.
	var extra [][]float32
	var extraIDs []int64
	for _, a := range tr.acked {
		for j := 0; j < addBatch; j++ {
			extra = append(extra, d.held[a.batch*addBatch+j])
			extraIDs = append(extraIDs, a.firstID+int64(j))
		}
	}
	n := int64(len(sys.shards))
	probeRecall(c, sys, d, res, func(i int) int64 { return int64(i)%n*stride + int64(i)/n }, extra, extraIDs)
}
