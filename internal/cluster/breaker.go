// Package cluster is the scatter-gather serving layer: a shard router
// that partitions the index ID space across N annaserve replicas, fans
// searches out to every shard, merges their per-query top-k lists, and
// routes adds to an owning shard — with every remote hop hardened for
// partial failure (retries with budgets, hedged requests, per-shard
// circuit breakers) and graceful degradation when a shard stays down
// (partial results carrying an explicit coverage header instead of a
// failed query).
//
// The layout follows the FusionANNS observation that the winning
// large-scale shape is a thin routing tier over partitioned PQ shards:
// each shard is a complete single-process annaserve (its own PQ
// codebooks, WAL and snapshot), the router holds no index state at
// all, and the global vector ID space is striped — shard i owns IDs
// [i*Stride, (i+1)*Stride), with the shard-local ID being the offset
// into the stripe. Search results merge with the same topk k-way
// machinery the engine uses for intra-query parallelism, so the merge
// semantics (descending score, ascending ID on ties) are identical to
// a single process serving the union of the shards.
package cluster

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Breaker is a per-shard circuit breaker. Closed passes every request
// and counts consecutive failures; at the threshold it opens and fails
// fast (no connection attempts against a dead shard, so a scatter
// doesn't pay a timeout per query per dead shard). After the cooldown
// it admits a single probe (half-open): success closes the circuit,
// failure re-opens it for another cooldown.
//
// Only transport errors and 5xx count as failures — a 4xx means the
// shard is healthy and the request was wrong, which must not poison
// the circuit for everyone else.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // test hook

	mu       sync.Mutex
	state    breakerState
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	opens    uint64
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures (default 5) and probes again after cooldown
// (default 1s).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may be sent. In the open state it
// returns false until the cooldown elapses, then true exactly once (the
// probe) until that probe reports an outcome.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		// One probe at a time; concurrent requests keep failing fast
		// until the in-flight probe decides.
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default: // open
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	}
}

// Success reports a request outcome that proves the shard healthy.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// Failure reports a transport error or 5xx outcome.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		// The probe failed: back to a full cooldown.
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
		b.opens++
		return
	}
	b.fails++
	if b.state == breakerClosed && b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.opens++
	}
}

// State returns the current state name ("closed", "open", "half-open").
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
