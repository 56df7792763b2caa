package front

import (
	"log/slog"
	"runtime"
	"time"

	"anna/internal/slo"
	"anna/internal/trace"
	"anna/internal/tsdb"
)

// Config carries the knobs anna.Server and cluster.Config both expose
// under these names (documented there), plus what each caller adds to
// the common tsdb series and SLOs.
type Config struct {
	Logger          *slog.Logger
	ScrapeEvery     time.Duration
	SLOLatencyP99   time.Duration
	SLOAvailability float64
	SLOOptions      slo.Options

	// Series are scraped alongside the common ones.
	Series []tsdb.Series
	// Unavailable are bad-event parts of the availability SLO beyond a
	// 5xx, each a series of Series.
	Unavailable []slo.Part
	// SLORecall enables the recall SLO over the Recall gauge, when both
	// are set.
	SLORecall float64
	Recall    func() float64
}

// NewRecorder returns the trace recorder behind /debug/queries and the
// slow-query log: 1-in-sampleEvery sampling (default 64; negative
// disables it), a slow threshold (default 250ms; negative disables
// it), and a ring of ringSize traces (default 256).
func NewRecorder(log *slog.Logger, sampleEvery int, slow time.Duration, ringSize int) *trace.Recorder {
	if sampleEvery == 0 {
		sampleEvery = 64
	}
	if slow == 0 {
		slow = 250 * time.Millisecond
	}
	return trace.NewRecorder(ringSize, sampleEvery, slow, log)
}

// Start sets the logger (default slog.Default()) and, unless
// cfg.ScrapeEvery is negative, builds the tsdb and SLO burn-rate
// engine: the tsdb snapshots the serving counters every ScrapeEvery
// (default 10s) and the engine evaluates multi-window burn over those
// snapshots on every scrape.
func (f *Front) Start(cfg Config) {
	f.Log = cfg.Logger
	if f.Log == nil {
		f.Log = slog.Default()
	}
	if cfg.ScrapeEvery < 0 {
		return
	}
	interval := cfg.ScrapeEvery
	if interval == 0 {
		interval = 10 * time.Second
	}
	opt := cfg.SLOOptions
	if opt.Logger == nil {
		opt.Logger = f.Log
	}
	search := f.duration["search"]
	series := append([]tsdb.Series{
		{Name: "requests", Kind: tsdb.CounterKind, Sample: func() float64 { return float64(f.resps.Load()) }},
		{Name: "errors_5xx", Kind: tsdb.CounterKind, Sample: func() float64 { return float64(f.resps5xx.Load()) }},
		{Name: "latency_p99_ms", Kind: tsdb.GaugeKind, Sample: func() float64 { return search.Quantile(0.99) * 1000 }},
		{Name: "goroutines", Kind: tsdb.GaugeKind, Sample: func() float64 { return float64(runtime.NumGoroutine()) }},
	}, cfg.Series...)
	if cfg.SLOLatencyP99 > 0 {
		// The latency SLO is windowed, not cumulative: "slow" and
		// "total" are counters derived from the latency histogram's
		// bucket counts, so the burn rate reads the share of requests
		// over the bound within each window — and recovers once the
		// slowness stops (a cumulative p99 never forgets). The bound
		// snaps to the nearest histogram bucket edge, the tightest
		// threshold the buckets can answer exactly.
		bound := search.NearestBound(cfg.SLOLatencyP99.Seconds())
		series = append(series,
			tsdb.Series{Name: "latency_slow", Kind: tsdb.CounterKind,
				Sample: func() float64 { return float64(search.Count() - search.CountLE(bound)) }},
			tsdb.Series{Name: "latency_total", Kind: tsdb.CounterKind,
				Sample: func() float64 { return float64(search.Count()) }},
		)
	}
	recall := cfg.SLORecall > 0 && cfg.Recall != nil
	if recall {
		series = append(series, tsdb.Series{Name: "recall", Kind: tsdb.GaugeKind, Sample: cfg.Recall})
	}

	db := tsdb.New(ringSize(opt.SlowLong, interval), series...)
	var slos []slo.SLO
	if cfg.SLOLatencyP99 > 0 {
		slos = append(slos, slo.SLO{Name: "latency_p99", Objective: 0.99,
			BadRatio: slo.BadShare(db, "latency_total", slo.Part{Series: "latency_slow", Weight: 1})})
	}
	if cfg.SLOAvailability > 0 {
		parts := append([]slo.Part{{Series: "errors_5xx", Weight: 1}}, cfg.Unavailable...)
		slos = append(slos, slo.SLO{Name: "availability", Objective: cfg.SLOAvailability,
			BadRatio: slo.BadShare(db, "requests", parts...)})
	}
	if recall {
		// Zero scrapes are "no shadow samples yet", not zero recall —
		// skip them rather than fire on an idle server.
		slos = append(slos, slo.SLO{Name: "recall", Objective: 0.99,
			BadRatio: slo.BadBelow(db, "recall", cfg.SLORecall, true)})
	}
	eng := slo.New(opt, slos...)
	eng.Register(f.reg)
	db.OnScrape(eng.EvaluateAt)
	db.Start(interval)
	f.db, f.eng = db, eng
}

// ringSize sizes the tsdb ring to retain at least the slow-long burn
// window (default 6h), clamped to [256, 4096] scrapes.
func ringSize(slowLong, interval time.Duration) int {
	if slowLong <= 0 {
		slowLong = 6 * time.Hour
	}
	return min(max(int(slowLong/interval)+8, 256), 4096)
}
