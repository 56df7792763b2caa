package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxOutstanding caps requests in flight from the open-loop generator.
// It sits far above annaserve's default max in-flight (256) so the
// server's own admission control, not the generator, decides what is
// refused; when the cap is reached the dispatcher waits and the wait
// shows as lateness and as latency, which is timed from the due time.
const maxOutstanding = 1024

// Request kinds, each with its own latency sample.
const (
	kindSearch = iota
	kindAdd
	nKinds
)

// outcome is what one request reports back to the generator.
type outcome struct {
	kind int
	ok   bool
}

// job is one prepared request. The dispatcher builds it, cheaply; it
// runs in its own goroutine.
type job func() outcome

// phase is the record of one load phase.
type phase struct {
	Rate      float64 // offered requests/s (0 for a closed loop)
	Elapsed   time.Duration
	Attempted [nKinds]int
	Failed    [nKinds]int
	// LatMS holds, per kind, the latency of every successful request in
	// milliseconds: from its due time in an open loop, from its send
	// time in a closed loop.
	LatMS [nKinds][]float64
	// Seq holds each latency's request number within the phase, so a
	// sample can be cut into windows of the schedule; FailSeq holds the
	// request numbers of the failed requests.
	Seq     [nKinds][]int
	FailSeq [nKinds][]int
	// LateMS is how late the dispatcher sent each request.
	LateMS         []float64
	OutstandingMax int64
	BacklogFirst   float64
	BacklogSecond  float64
	sent           int // requests sent
}

func (p *phase) attempted() int { return p.Attempted[kindSearch] + p.Attempted[kindAdd] }
func (p *phase) failed() int    { return p.Failed[kindSearch] + p.Failed[kindAdd] }

// append adds q's requests to p as if q's schedule followed p's.
func (p *phase) append(q *phase) {
	for k := 0; k < nKinds; k++ {
		p.Attempted[k] += q.Attempted[k]
		p.Failed[k] += q.Failed[k]
		p.LatMS[k] = append(p.LatMS[k], q.LatMS[k]...)
		for _, seq := range q.Seq[k] {
			p.Seq[k] = append(p.Seq[k], p.sent+seq)
		}
		for _, seq := range q.FailSeq[k] {
			p.FailSeq[k] = append(p.FailSeq[k], p.sent+seq)
		}
	}
	p.LateMS = append(p.LateMS, q.LateMS...)
	p.OutstandingMax = max(p.OutstandingMax, q.OutstandingMax)
	p.Rate = q.Rate
	p.Elapsed += q.Elapsed
	p.sent += q.sent
}

// rung condenses an open-loop phase for the ladder verdict: every kind
// of request counts toward failures and the latency limit.
func (p *phase) rung() rungStats {
	r := rungStats{Rate: p.Rate, Attempted: p.attempted(), Failed: p.failed(),
		BacklogFirst: p.BacklogFirst, BacklogSecond: p.BacklogSecond}
	for k := 0; k < nKinds; k++ {
		r.LatMS = append(r.LatMS, p.LatMS[k]...)
		r.Seq = append(r.Seq, p.Seq[k]...)
		r.FailSeq = append(r.FailSeq, p.FailSeq[k]...)
	}
	return r
}

// record adds finished request number seq to p.
func (p *phase) record(o outcome, lat time.Duration, seq int) {
	p.Attempted[o.kind]++
	if !o.ok {
		p.Failed[o.kind]++
		p.FailSeq[o.kind] = append(p.FailSeq[o.kind], seq)
		return
	}
	p.LatMS[o.kind] = append(p.LatMS[o.kind], ms(lat))
	p.Seq[o.kind] = append(p.Seq[o.kind], seq)
}

// latency summarises the latency of kind over the phase's windows,
// with the tail at quantile q.
func (p *phase) latency(kind int, q float64) dist {
	return windowed(p.LatMS[kind], p.Seq[kind], p.sent, q)
}

// openLoop offers rate requests per second for window, on a fixed
// schedule: request i is due at start + i/rate whatever happened to
// earlier ones. One dispatcher (the calling goroutine) sends each due
// request in its own goroutine under the outstanding cap and records
// how late it sent it; latency runs from the due time, so a stall
// charges every request queued behind it. The phase ends when every
// request has finished.
func openLoop(rate float64, window time.Duration, next func() job) *phase {
	p := &phase{Rate: rate}
	n := int(window.Seconds() * rate)
	p.LateMS = make([]float64, 0, n)
	sem := make(chan struct{}, maxOutstanding)
	var (
		mu          sync.Mutex
		wg          sync.WaitGroup
		outstanding atomic.Int64
		sums        [2]float64
		counts      [2]int
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		waitUntil(due)
		sem <- struct{}{}
		late := time.Since(due)
		o := outstanding.Add(1)
		half := 0
		if 2*i >= n {
			half = 1
		}
		sums[half] += float64(o) + late.Seconds()*rate
		counts[half]++
		p.LateMS = append(p.LateMS, ms(late))
		if o > p.OutstandingMax {
			p.OutstandingMax = o
		}
		j := next()
		wg.Add(1)
		go func(seq int) {
			defer wg.Done()
			out := j()
			lat := time.Since(due)
			outstanding.Add(-1)
			<-sem
			mu.Lock()
			p.record(out, lat, seq)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	p.sent = n
	p.Elapsed = time.Since(start)
	for h := range sums {
		if counts[h] > 0 {
			sums[h] /= float64(counts[h])
		}
	}
	p.BacklogFirst, p.BacklogSecond = sums[0], sums[1]
	return p
}

// waitUntil returns at t. It sleeps until a millisecond before t and
// then yields the processor until t: an idle Go process wakes from
// time.Sleep only at millisecond granularity (the runtime's poller
// waits in whole milliseconds), which would send sub-millisecond
// schedules up to a millisecond late and charge that to every latency.
// Yielding costs only otherwise idle CPU: any runnable goroutine runs
// first.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - time.Millisecond)
		default:
			runtime.Gosched()
		}
	}
}

// closedLoop runs one client that sends its next request as soon as
// the previous one finishes, for window and at least minRequests
// requests.
func closedLoop(window time.Duration, minRequests int, next func() job) *phase {
	p := &phase{OutstandingMax: 1}
	start := time.Now()
	for i := 0; i < minRequests || time.Since(start) < window; i++ {
		j := next()
		t := time.Now()
		out := j()
		p.record(out, time.Since(t), i)
		p.sent++
	}
	p.Elapsed = time.Since(start)
	return p
}

// call runs one request through h in-process, the way annaload's
// selfTarget does: the generator opens no socket of its own.
func call(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// served reports whether a response counts as answered: a 200 that the
// router did not mark as covering only some shards.
func served(w *httptest.ResponseRecorder) bool {
	return w.Code == http.StatusOK && w.Header().Get("X-Anna-Partial") == ""
}

// ladder runs the goodput search: each visited rung is an open-loop
// phase of rungWindow, judged by verdict against limit. It starts at
// the rung of from, walks 4 rungs (about 22%) at a time until the
// outcome flips, then bisects, and starts no rung once budget has
// elapsed. A rung that fails is run once more and passes if the repeat
// does: a stall the program did not cause (a busy neighbour, a paused
// VM) can fail a rung below capacity, but nothing can make a rung above
// capacity pass, because its backlog grows. It returns the highest
// passing rate (0 when none passed) and every phase it ran.
func ladder(from float64, limit, rungWindow, budget time.Duration, next func() job) (float64, []*phase) {
	var phases []*phase
	end := time.Now().Add(budget)
	more := func() bool { return time.Now().Before(end) }
	best := climb(ladderIndex(from), 4, more, func(i int) bool {
		for try := 0; try < 2 && (try == 0 || more()); try++ {
			p := openLoop(ladderRate(i), rungWindow, next)
			phases = append(phases, p)
			ok, _ := verdict(p.rung(), limit)
			// Let the rung's stragglers and GC settle so rungs do not
			// bleed into each other.
			time.Sleep(50 * time.Millisecond)
			if ok {
				return true
			}
		}
		return false
	})
	if best < 0 {
		return 0, phases
	}
	return ladderRate(best), phases
}
