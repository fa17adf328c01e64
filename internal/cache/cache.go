// Package cache provides the bounded, sharded, in-memory content-addressed
// store behind the flow's pattern cache: artifacts are keyed by a
// collision-resistant signature of their full input (see flow's window
// signatures), concurrent computations of the same key are deduplicated
// single-flight, and hit/miss/wait/evict counters expose the cache's
// behaviour to reports and CLIs.
//
// Determinism contract: the store memoizes pure functions only — a compute
// callback must depend on nothing but the data folded into its key — so a
// cached run is byte-identical to an uncached one at any worker count.
// Eviction (bounded FIFO per shard) therefore only ever costs recomputation,
// never correctness.
package cache

import (
	"sync"
	"sync/atomic"

	"postopc/internal/obs"
)

// Key is a content signature: a collision-resistant hash (SHA-256 sized) of
// the canonical serialization of every input of the cached computation.
type Key [32]byte

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Hits counts lookups satisfied by an already-completed entry.
	Hits uint64
	// Misses counts lookups that started a new computation.
	Misses uint64
	// Waits counts single-flight waits: lookups that found the key already
	// being computed and blocked for its result instead of recomputing.
	Waits uint64
	// Evictions counts completed entries dropped to respect the bound.
	Evictions uint64
	// Entries is the number of live entries (completed and in-flight).
	Entries int
}

// Lookups returns the total number of lookups observed: Reserve calls,
// which the flow's window path makes, including the one inside each Do.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses + s.Waits }

// HitRate returns the fraction of lookups that avoided a computation
// (hits plus single-flight waits), in [0, 1]; 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.Hits+s.Waits) / float64(n)
}

// entry is one keyed slot. done is closed when val/err are set; an entry
// whose computation failed is removed from its shard so later callers retry
// (errors are never cached).
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// shard is one lock domain of the store.
type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	// fifo holds completed keys in insertion order — the eviction queue.
	// In-flight entries are never evicted (a waiter holds a pointer to
	// them), so fifo is appended to only once a computation completes.
	fifo []Key
}

const numShards = 16

// Store is the sharded single-flight content-addressed store.
type Store struct {
	shards   [numShards]shard
	perShard int

	hits, misses, waits, evictions atomic.Uint64

	// Telemetry handles (see Instrument). All nil on an uninstrumented
	// store, where they cost a nil check per Do; they only ever receive
	// writes, so telemetry can never alter a cached result.
	mHits, mMisses, mWaits, mEvictions *obs.Counter
	hLookup, hWait                     *obs.Histogram
}

// DefaultEntries is the bound used when New is given a non-positive size.
const DefaultEntries = 4096

// New returns a store bounded to roughly maxEntries completed entries
// (rounded up to the shard count; maxEntries <= 0 selects DefaultEntries).
func New(maxEntries int) *Store {
	if maxEntries <= 0 {
		maxEntries = DefaultEntries
	}
	per := (maxEntries + numShards - 1) / numShards
	s := &Store{perShard: per}
	for i := range s.shards {
		s.shards[i].entries = make(map[Key]*entry)
	}
	return s
}

// Instrument attaches telemetry to the store: hit/miss/wait/evict
// counters under "cache.*" plus lookup and single-flight wait latency
// histograms. Call it before the store is shared between goroutines
// (typically right after New); a nil or disabled sink leaves the store
// uninstrumented.
func (s *Store) Instrument(sink *obs.Sink) *Store {
	s.mHits = sink.Counter("cache.hits_total")
	s.mMisses = sink.Counter("cache.misses_total")
	s.mWaits = sink.Counter("cache.waits_total")
	s.mEvictions = sink.Counter("cache.evictions_total")
	s.hLookup = sink.LatencyHistogram("cache.lookup_ns")
	s.hWait = sink.LatencyHistogram("cache.singleflight_wait_ns")
	return s
}

// Ticket is one claimed lookup, the batch-aware face of the single-flight
// protocol. Reserve classifies the lookup immediately — hit, single-flight
// wait, or leadership of a fresh computation — so a batched caller can
// route each batch member without blocking: hits (Ready) read their value
// at once and skip the computation, leaders run the computation and must
// Complete it, and waiters keep the ticket and Wait once the batch is done.
// The zero Ticket is invalid; tickets are passed by value and must not be
// reused after Wait/Complete returns the result.
type Ticket struct {
	store  *Store
	e      *entry
	k      Key
	leader bool
}

// Leader reports whether this ticket claimed the computation: exactly one
// concurrent Reserve of a key wins leadership, and that caller must call
// Complete exactly once (even on failure) or every waiter blocks forever.
func (t Ticket) Leader() bool { return t.leader }

// Ready reports whether the result was already published when it is called
// — a plain cache hit whose Wait returns without blocking. Always false on
// a leader ticket that has not completed.
func (t Ticket) Ready() bool {
	select {
	case <-t.e.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the result is published and returns it. On a leader
// ticket Wait may only be called after Complete (it would otherwise wait
// on itself). The single-flight wait histogram observes only waits that
// actually block.
func (t Ticket) Wait() (any, error) {
	select {
	case <-t.e.done:
	default:
		tw := t.store.hWait.StartTimer()
		<-t.e.done
		t.store.hWait.ObserveSince(tw)
	}
	return t.e.val, t.e.err
}

// Complete publishes the leader's result, wakes every waiter, and applies
// the store's retention policy: successful values enter the FIFO eviction
// queue, errors are never cached (the entry is removed so the next Reserve
// leads a fresh computation, matching Do). Call exactly once, only on a
// leader ticket, with the computation's own (unwrapped) error.
func (t Ticket) Complete(val any, err error) {
	e := t.e
	e.val, e.err = val, err
	close(e.done)

	s := t.store
	sh := &s.shards[int(t.k[0])%numShards]
	sh.mu.Lock()
	if err != nil {
		// Errors are not cached; only remove our own entry (a concurrent
		// retry may already have replaced it).
		if sh.entries[t.k] == e {
			delete(sh.entries, t.k)
		}
	} else {
		sh.fifo = append(sh.fifo, t.k)
		for len(sh.fifo) > s.perShard {
			old := sh.fifo[0]
			sh.fifo = sh.fifo[1:]
			delete(sh.entries, old)
			s.evictions.Add(1)
			s.mEvictions.Inc()
		}
	}
	sh.mu.Unlock()
}

// Reserve claims the lookup of k and classifies it: a completed entry is a
// hit (Ready ticket), an in-flight entry is a single-flight wait, and an
// absent key makes the caller the leader, obligated to Complete. The
// hit/miss/wait counters are attributed here, exactly as Do attributes
// them.
func (s *Store) Reserve(k Key) Ticket {
	t0 := s.hLookup.StartTimer()
	sh := &s.shards[int(k[0])%numShards]
	sh.mu.Lock()
	if e, ok := sh.entries[k]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done: // already complete: a plain hit
			s.hits.Add(1)
			s.mHits.Inc()
		default: // in flight: the caller will wait for the leader
			s.waits.Add(1)
			s.mWaits.Inc()
		}
		s.hLookup.ObserveSince(t0)
		return Ticket{store: s, e: e, k: k}
	}
	e := &entry{done: make(chan struct{})}
	sh.entries[k] = e
	sh.mu.Unlock()
	s.misses.Add(1)
	s.mMisses.Inc()
	s.hLookup.ObserveSince(t0)
	return Ticket{store: s, e: e, k: k, leader: true}
}

// Do returns the value cached under k, computing it with compute if absent.
// Concurrent calls for the same key run compute exactly once — the others
// block until it finishes and share its result (single-flight). A failed
// compute is not cached: its error is delivered to the callers that waited
// on it, and the next Do for the key computes afresh.
//
// compute must be a pure function of the data hashed into k; the returned
// value is shared between callers and must be treated as immutable.
func (s *Store) Do(k Key, compute func() (any, error)) (any, error) {
	t := s.Reserve(k)
	if !t.leader {
		return t.Wait()
	}
	val, err := compute()
	t.Complete(val, err)
	return val, err
}

// Cap returns the store's effective bound on completed entries (the
// requested bound rounded up to the shard count) — a run-manifest fact,
// never an input to any cached computation.
func (s *Store) Cap() int { return s.perShard * numShards }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Waits:     s.waits.Load(),
		Evictions: s.evictions.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.entries)
		sh.mu.Unlock()
	}
	return st
}
