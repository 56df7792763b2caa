package main

import (
	"bytes"
	"runtime/metrics"
	"time"

	"anna"
	annametrics "anna/internal/metrics"
)

// tracer accumulates the per-layer record of the traced segments: span
// logs from the benchmark's wrappers, deltas of the counters the
// program exports, and runtime counters. Everything is read at segment
// boundaries; nothing inside the program is instrumented.
type tracer struct {
	regs     []*annametrics.Registry // every anna.Server (the front server, or each shard)
	router   *annametrics.Registry   // the cluster router, when there is one
	attempts func() uint64           // sum of shard-client attempts (cluster only)
	walStat  func() (fsyncs, bytes uint64)
	log      *spanLog

	start  counters // reading at the open segment's start
	sum    counters // summed over the closed segments
	spans  []spanRec
	phases []*phase
}

// counters is one reading of everything the tracer differences.
type counters struct {
	servers  map[string]float64 // server registries, summed
	router   map[string]float64
	rt       [3]float64 // heap allocations, GC CPU seconds, total CPU seconds
	attempts uint64
	fsyncs   uint64
	walBytes uint64
}

var rtNames = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

// readRuntime returns heap allocations (objects), GC CPU seconds and
// total CPU seconds since the process started.
func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func newTracer(regs []*annametrics.Registry, log *spanLog) *tracer {
	return &tracer{regs: regs, log: log,
		sum: counters{servers: map[string]float64{}, router: map[string]float64{}}}
}

func (t *tracer) read() counters {
	c := counters{servers: scrapeAll(t.regs), rt: readRuntime()}
	if t.router != nil {
		c.router = scrape(t.router)
	}
	if t.attempts != nil {
		c.attempts = t.attempts()
	}
	if t.walStat != nil {
		c.fsyncs, c.walBytes = t.walStat()
	}
	return c
}

// begin opens a traced segment.
func (t *tracer) begin() {
	t.log.take()
	t.start = t.read()
	t.log.on.Store(true)
}

// end closes a traced segment that produced phase p.
func (t *tracer) end(p *phase) {
	t.log.on.Store(false)
	now := t.read()
	for k, v := range delta(t.start.servers, now.servers) {
		t.sum.servers[k] += v
	}
	for k, v := range delta(t.start.router, now.router) {
		t.sum.router[k] += v
	}
	for i := range now.rt {
		t.sum.rt[i] += now.rt[i] - t.start.rt[i]
	}
	t.sum.attempts += now.attempts - t.start.attempts
	t.sum.fsyncs += now.fsyncs - t.start.fsyncs
	t.sum.walBytes += now.walBytes - t.start.walBytes
	t.spans = append(t.spans, t.log.take()...)
	t.phases = append(t.phases, p)
}

// layerMetrics derives the per-layer metrics of the traced segments.
// genAllocs is the generator's own allocations per request, measured
// against a handler that does nothing, and subtracted.
func (t *tracer) layerMetrics(out map[string]float64, genAllocs float64, nShards int) {
	var late, addLat []float64
	var searches, adds, addOK int
	for _, p := range t.phases {
		late = append(late, p.LateMS...)
		addLat = append(addLat, p.LatMS[kindAdd]...)
		if float64(p.OutstandingMax) > out["loadgen.outstanding_max"] {
			out["loadgen.outstanding_max"] = float64(p.OutstandingMax)
		}
		searches += p.Attempted[kindSearch]
		adds += p.Attempted[kindAdd]
		addOK += p.Attempted[kindAdd] - p.Failed[kindAdd]
	}
	out["loadgen.late_p99_ms"] = summarize(late).Tail

	// Spans around anna.Server handlers: the front server, or each
	// shard's hop when a router fronts them.
	var serveN int
	var serveSum time.Duration
	front := map[string]time.Duration{}
	hops := map[string][]time.Duration{}
	var frontSum time.Duration
	for _, s := range t.spans {
		if s.path != "/search" {
			continue
		}
		switch {
		case nShards == 0 && s.shard < 0:
			serveN++
			serveSum += s.d
		case s.shard < 0:
			front[s.id] = s.d
			frontSum += s.d
		default:
			serveN++
			serveSum += s.d
			hops[s.id] = append(hops[s.id], s.d)
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	if serveN > 0 {
		out["serve.req_us_mean"] = us(serveSum) / float64(serveN)
		engine := 0.0
		for _, st := range []string{"select", "scan", "rerank", "merge"} {
			engine += t.sum.servers[`anna_stage_duration_seconds_sum{stage="`+st+`"}`]
		}
		wait := t.sum.servers["anna_batch_coalesce_wait_seconds_sum"]
		out["serve.self_us_per_req"] = (serveSum.Seconds() - wait - engine) * 1e6 / float64(serveN)
		rejected := t.sum.servers[`anna_rejected_requests_total{reason="overload"}`] + t.sum.servers[`anna_rejected_requests_total{reason="quota"}`]
		out["serve.rejected_share"] = rejected / float64(serveN)
	}
	if reqs := searches + adds; reqs > 0 {
		out["serve.allocs_per_req"] = t.sum.rt[0]/float64(reqs) - genAllocs
	}
	if t.sum.rt[2] > 0 {
		out["go.gc_cpu_fraction"] = t.sum.rt[1] / t.sum.rt[2]
	}

	hits, misses := t.sum.servers["anna_cache_hits_total"], t.sum.servers["anna_cache_misses_total"]
	if hits+misses > 0 {
		out["qos.cache.hit_share"] = hits / (hits + misses)
	}
	out["qos.cache.invalidations"] = t.sum.servers["anna_cache_invalidations_total"]
	out["qos.cache.evictions"] = t.sum.servers["anna_cache_evictions_total"]
	out["qos.batcher.flushes"] = t.sum.servers["anna_batch_flushes_total"]
	if n := t.sum.servers["anna_batch_size_queries_count"]; n > 0 {
		out["qos.batcher.queries_per_flush"] = t.sum.servers["anna_batch_size_queries_sum"] / n
	}
	if n := t.sum.servers["anna_batch_coalesce_wait_seconds_count"]; n > 0 {
		out["qos.batcher.wait_us_per_query"] = t.sum.servers["anna_batch_coalesce_wait_seconds_sum"] * 1e6 / n
	}

	if nShards > 0 {
		var joined int
		var self, skew, hop time.Duration
		for id, d := range front {
			hs := hops[id]
			if len(hs) < nShards {
				continue // a hop failed or the ID was not forwarded
			}
			lo, hi := hs[0], hs[0]
			for _, h := range hs {
				lo, hi = min(lo, h), max(hi, h)
				hop += h
			}
			joined++
			self += d - hi
			skew += hi - lo
		}
		if len(front) > 0 {
			out["cluster.router_us_per_req"] = us(frontSum) / float64(len(front))
		}
		if joined > 0 {
			out["cluster.shard_us_per_hop"] = us(hop) / float64(joined*nShards)
			out["cluster.router_self_us_per_req"] = us(self) / float64(joined)
			out["cluster.hop_skew_us"] = us(skew) / float64(joined)
		}
		if want := searches*nShards + adds; want > 0 {
			out["cluster.attempts_per_hop"] = float64(t.sum.attempts) / float64(want)
		}
		if searches > 0 {
			out["cluster.partial_share"] = t.sum.router["anna_partial_results_total"] / float64(searches)
		}
		out["wal.append_us_p50"] = histQuantile(t.sum.servers, "anna_wal_append_duration_seconds", 0.5) * 1e6
		out["wal.fsync_p99_ms"] = histQuantile(t.sum.servers, "anna_wal_fsync_duration_seconds", 0.99) * 1e3
		a := summarizeAt(addLat, 0.9)
		out["durable.add_p50_ms"], out["durable.add_p90_ms"] = a.P50, a.Tail
		if addOK > 0 {
			out["wal.fsyncs_per_add"] = float64(t.sum.fsyncs) / float64(addOK)
			out["wal.bytes_per_vector"] = float64(t.sum.walBytes) / float64(addOK*addBatch)
		}
	}
}

// replay runs queries through Index.SearchBatch directly, in batches of
// batch in the server's mode (ClusterMajor), and reports the engine,
// ivf and pq layer metrics from the benchmark's own span around each
// call and the BatchReport it returns.
func replay(idx *anna.Index, queries [][]float32, batch int, out map[string]float64) error {
	var wall, sel, scan, merge time.Duration
	var scanned, listBytes int64
	for lo := 0; lo < len(queries); lo += batch {
		hi := min(lo+batch, len(queries))
		start := time.Now()
		rep, err := idx.SearchBatch(queries[lo:hi], anna.SearchOptions{W: searchW, K: searchK, Mode: anna.ClusterMajor})
		wall += time.Since(start)
		if err != nil {
			return err
		}
		sel += rep.SelectTime
		scan += rep.ScanTime
		merge += rep.MergeTime
		scanned += rep.ScannedVectors
		listBytes += rep.ListBytesTouched
	}
	n := float64(len(queries))
	perQ := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	out["engine.direct_us_per_query"] = perQ(wall)
	out["ivf.select_us_per_query"] = perQ(sel)
	out["ivf.scan_us_per_query"] = perQ(scan)
	out["ivf.merge_us_per_query"] = perQ(merge)
	out["ivf.scanned_per_query"] = float64(scanned) / n
	out["ivf.list_kb_per_query"] = float64(listBytes) / 1024 / n
	if scanned > 0 {
		out["pq.ns_per_scanned"] = float64(scan) / float64(scanned)
	}
	return nil
}

// timeAdds times Index.Add directly, batch by batch, on a private copy
// of idx (so the served index and its lock are left alone), and
// reports the in-memory ingest cost per vector.
func timeAdds(idx *anna.Index, vectors [][]float32, out map[string]float64) error {
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		return err
	}
	idx, err := anna.LoadIndex(&buf)
	if err != nil {
		return err
	}
	var d time.Duration
	for lo := 0; lo+addBatch <= len(vectors); lo += addBatch {
		start := time.Now()
		if _, err := idx.Add(vectors[lo : lo+addBatch]); err != nil {
			return err
		}
		d += time.Since(start)
	}
	out["ivf.add_us_per_vector"] = float64(d) / float64(time.Microsecond) / float64(len(vectors)/addBatch*addBatch)
	return nil
}
