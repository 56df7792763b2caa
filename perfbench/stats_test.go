package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	annametrics "anna/internal/metrics"
)

func TestPercentileRuleKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		tail     float64
		pct      float64
		noTail   bool
		p50      float64
		wantMore int
	}{
		{n: 1000, tail: 990, pct: 99, p50: 500},   // p99 has exactly 10 beyond
		{n: 2000, tail: 1980, pct: 99, p50: 1000}, // p99 has 20 beyond
		{n: 500, tail: 490, pct: 98, p50: 250},    // p99 would leave 5: fall back to p98
		{n: 100, tail: 90, pct: 90, p50: 50},      // p90
		{n: 11, tail: 1, pct: 100.0 / 11, p50: 6}, // the lowest sample is the only one with 10 beyond
		{n: 10, tail: 10, noTail: true, p50: 5},   // no percentile has 10 beyond
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.P50 != tc.p50 || d.Tail != tc.tail {
			t.Errorf("n=%d: got N=%d p50=%v tail=%v, want p50=%v tail=%v", tc.n, d.N, d.P50, d.Tail, tc.p50, tc.tail)
		}
		if tc.noTail {
			if d.TailPct != 0 {
				t.Errorf("n=%d: reported a tail percentile %v with too few samples", tc.n, d.TailPct)
			}
			continue
		}
		if math.Abs(d.TailPct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail percentile %v, want %v", tc.n, d.TailPct, tc.pct)
		}
		if beyond := tc.n - int(d.Tail); beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
}

func TestWindowedSummaryShrugsOffOneStall(t *testing.T) {
	// 5000 requests at 1 ms, except a stall of 100 ms hitting 80
	// consecutive requests in the third window.
	var lat []float64
	var seq []int
	for i := 0; i < 5000; i++ {
		l := 1.0
		if i >= 2100 && i < 2180 {
			l = 100
		}
		lat, seq = append(lat, l), append(seq, i)
	}
	if pooled := summarize(lat); pooled.Tail != 100 {
		t.Fatalf("pooled p99 %v: the stall should own it", pooled.Tail)
	}
	d := windowed(lat, seq, 5000, 0.99)
	if d.N != 5000 || d.P50 != 1 || d.Tail != 1 || d.TailPct != 99 {
		t.Fatalf("windowed = %+v, want p50 1, p99 1 over 5 windows of 1000", d)
	}
	// At p90 the windows hold 100 samples: 50 of them, one with the
	// stall in its whole tail.
	if d := windowed(lat, seq, 5000, 0.9); d.Tail != 1 || d.TailPct != 90 {
		t.Fatalf("windowed p90 = %+v, want 1 at p90", d)
	}
	// Too few samples for two windows: the pooled summary.
	if d := windowed(lat[:1500], seq[:1500], 1500, 0.99); d != summarize(lat[:1500]) {
		t.Fatalf("small sample: %+v, want the pooled %+v", d, summarize(lat[:1500]))
	}
}

func TestRecallAtHandBuiltCase(t *testing.T) {
	truth := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, tc := range []struct {
		got  []int64
		want float64
	}{
		{[]int64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 1},          // order does not matter
		{[]int64{1, 2, 3, 40, 50, 60, 70, 80, 90, 100}, 0.3}, // three of ten
		{[]int64{11, 12, 13}, 0},                             // truth beyond k is not counted
		{[]int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0.1},         // a duplicate counts once
		{[]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 10}, 0.9},    // got beyond k is not counted
		{nil, 0},
	} {
		if r := recallAt(10, truth, tc.got); math.Abs(r-tc.want) > 1e-12 {
			t.Errorf("recallAt(%v) = %v, want %v", tc.got, r, tc.want)
		}
	}
}

func TestLadderIsFixedAndFine(t *testing.T) {
	for i := 0; i < 200; i++ {
		if r := ladderRate(i+1) / ladderRate(i); r > 1.10 {
			t.Fatalf("rungs %d and %d are %.3fx apart", i, i+1, r)
		}
		if got := ladderIndex(ladderRate(i)); got != i {
			t.Fatalf("ladderIndex(ladderRate(%d)) = %d", i, got)
		}
	}
	if i := ladderIndex(ladderRate(10) + 1); i != 11 {
		t.Fatalf("a rate just above rung 10 maps to rung %d, want 11", i)
	}
}

// budget allows n rungs.
func budget(n int) func() bool {
	return func() bool { n--; return n >= 0 }
}

func TestClimbFindsHighestPassingRung(t *testing.T) {
	for _, tc := range []struct {
		start, capacity, want int
	}{
		{start: 30, capacity: 37, want: 37}, // walk up, then bisect
		{start: 30, capacity: 30, want: 30},
		{start: 30, capacity: 21, want: 21}, // walk down, then bisect
		{start: 30, capacity: -1, want: -1}, // nothing passes
		{start: 2, capacity: 0, want: 0},
	} {
		tried := 0
		got := climb(tc.start, 4, budget(20), func(i int) bool { tried++; return i <= tc.capacity })
		if got != tc.want {
			t.Errorf("start %d capacity %d: climb = %d, want %d", tc.start, tc.capacity, got, tc.want)
		}
		if tc.capacity >= 0 && tried > 8 {
			t.Errorf("start %d capacity %d: %d rungs tried", tc.start, tc.capacity, tried)
		}
	}
	// Out of budget: the best pass seen so far.
	if got := climb(0, 4, budget(3), func(int) bool { return true }); got != 8 {
		t.Errorf("budget-limited climb = %d, want 8", got)
	}
}

func TestVerdictRules(t *testing.T) {
	limit := 10 * time.Millisecond
	ok := func(n int, lat float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = lat
		}
		return xs
	}
	for _, tc := range []struct {
		name string
		r    rungStats
		want string
	}{
		{"healthy", rungStats{Rate: 1000, Attempted: 1000, LatMS: ok(1000, 1)}, ""},
		{"ten slow of 1000 still meets p99", rungStats{Rate: 1000, Attempted: 1000, LatMS: append(ok(990, 1), ok(10, 50)...)}, ""},
		{"eleven slow of 1000 miss p99", rungStats{Rate: 1000, Attempted: 1000, LatMS: append(ok(989, 1), ok(11, 50)...)}, "p99"},
		{"one failure of 1000 is tolerated", rungStats{Rate: 1000, Attempted: 1000, Failed: 1, LatMS: ok(999, 1)}, ""},
		{"two failures of 1000 are not", rungStats{Rate: 1000, Attempted: 1000, Failed: 2, LatMS: ok(998, 1)}, "failures"},
		{"failures count as missing the limit", rungStats{Rate: 1000, Attempted: 1000, Failed: 1, LatMS: append(ok(989, 1), ok(10, 50)...)}, "p99"},
		{"growing backlog", rungStats{Rate: 1000, Attempted: 1000, LatMS: ok(1000, 1), BacklogFirst: 5, BacklogSecond: 16}, "backlog"},
		{"steady backlog", rungStats{Rate: 1000, Attempted: 1000, LatMS: ok(1000, 1), BacklogFirst: 5, BacklogSecond: 14}, ""},
		{"a stall in one window of five", stalled(5000, 1), ""},
		{"stalls in two windows of five", stalled(5000, 2), ""},
		{"stalls in three windows of five", stalled(5000, 3), "p99"},
	} {
		pass, why := verdict(tc.r, limit)
		if why != tc.want || pass != (tc.want == "") {
			t.Errorf("%s: verdict = %v %q, want %q", tc.name, pass, why, tc.want)
		}
	}
}

// stalled is a rung of n 1 ms requests whose first bad windows of 1000
// each hold 20 requests at 50 ms.
func stalled(n, bad int) rungStats {
	r := rungStats{Rate: 1000, Attempted: n}
	for i := 0; i < n; i++ {
		l := 1.0
		if i/1000 < bad && i%1000 < 20 {
			l = 50
		}
		r.LatMS, r.Seq = append(r.LatMS, l), append(r.Seq, i)
	}
	return r
}

// queueServer is a fake handler with a known service time: one server
// that takes exactly service per request, FIFO, so its capacity is
// 1/service requests per second.
type queueServer struct {
	mu      sync.Mutex
	free    time.Time
	service time.Duration
}

func (q *queueServer) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	q.mu.Lock()
	start := time.Now()
	if q.free.After(start) {
		start = q.free
	}
	q.free = start.Add(q.service)
	done := q.free
	q.mu.Unlock()
	time.Sleep(time.Until(done))
	w.WriteHeader(http.StatusOK)
}

func TestLadderAgainstKnownServiceTime(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an open-loop ladder in real time")
	}
	q := &queueServer{service: 2 * time.Millisecond} // capacity 500/s
	next := func() job {
		return func() outcome {
			return outcome{kind: kindSearch, ok: served(call(q, http.MethodPost, "/search", []byte("{}")))}
		}
	}
	limit := 20 * time.Millisecond
	goodput, phases := ladder(250, limit, 500*time.Millisecond, 4*time.Second, next)
	// Rung 33 offers 500.3/s: within a rung's resolution of capacity.
	if goodput > 501 || goodput < 0.85*500 {
		t.Fatalf("goodput %.0f/s for a 500/s server", goodput)
	}
	for _, p := range phases {
		pass, why := verdict(p.rung(), limit)
		if p.Rate > 500*1.1 && pass {
			t.Errorf("rung %.0f/s passed above capacity", p.Rate)
		}
		if p.Rate > 500*1.1 && why == "" {
			t.Errorf("rung %.0f/s failed without a reason", p.Rate)
		}
	}
	// Well past capacity the queue grows without bound: the backlog
	// rule catches it even when the rung is too short for p99 to.
	p := openLoop(750, 400*time.Millisecond, next)
	if !backlogGrew(p.BacklogFirst, p.BacklogSecond, p.Rate, limit) {
		t.Errorf("backlog %.1f -> %.1f at 1.5x capacity not flagged", p.BacklogFirst, p.BacklogSecond)
	}
}

func TestHistQuantileMatchesRegistry(t *testing.T) {
	reg := annametrics.NewRegistry()
	h := reg.Histogram("x_seconds", "test", nil)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-5)
	}
	m := scrape(reg)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := histQuantile(m, "x_seconds", q), h.Quantile(q); math.Abs(got-want) > 1e-12 {
			t.Errorf("q=%v: %v from the exposition, %v from the histogram", q, got, want)
		}
	}
	if m["x_seconds_count"] != 1000 {
		t.Errorf("count series %v", m["x_seconds_count"])
	}
}

// The metric definitions the binary prints must be the ones
// BENCHMARK.json declares.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d defined", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not defined", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d defined", kind, len(got), len(want))
			return
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestPhaseAppendShiftsTheSchedule(t *testing.T) {
	a, b := &phase{}, &phase{}
	a.record(outcome{kind: kindSearch, ok: true}, 2*time.Millisecond, 0)
	a.record(outcome{kind: kindSearch, ok: false}, 0, 1)
	a.sent = 2
	b.record(outcome{kind: kindAdd, ok: true}, 4*time.Millisecond, 1)
	b.sent = 3
	all := &phase{}
	all.append(a)
	all.append(b)
	if all.sent != 5 || all.attempted() != 3 || all.failed() != 1 {
		t.Fatalf("sent %d attempted %d failed %d, want 5, 3, 1", all.sent, all.attempted(), all.failed())
	}
	if all.LatMS[kindAdd][0] != 4 || all.Seq[kindAdd][0] != 3 {
		t.Errorf("appended add: %v ms at request %d, want 4 ms at 3", all.LatMS[kindAdd][0], all.Seq[kindAdd][0])
	}
	if all.LatMS[kindSearch][0] != 2 || all.FailSeq[kindSearch][0] != 1 {
		t.Errorf("first phase changed: %v ms, failure at %d", all.LatMS[kindSearch][0], all.FailSeq[kindSearch][0])
	}
}
