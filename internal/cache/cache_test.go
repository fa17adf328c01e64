package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func keyOf(b byte) Key {
	var k Key
	k[0] = b
	k[31] = b
	return k
}

// TestSingleFlight hammers one signature from many goroutines and requires
// exactly one compute: the single-flight contract that keeps concurrent
// par.ForEach workers from duplicating a window simulation. Run under
// -race (make check) to exercise the synchronization.
func TestSingleFlight(t *testing.T) {
	s := New(64)
	const workers = 32
	var computes atomic.Int64
	release := make(chan struct{})

	vals := make([]any, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			vals[w], errs[w] = s.Do(keyOf(7), func() (any, error) {
				computes.Add(1)
				<-release // hold the flight open until every worker has arrived
				return &struct{ v int }{42}, nil
			})
		}(w)
	}
	// Let every worker reach Do before the leader finishes.
	for s.Stats().Waits < workers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computes for one signature, want exactly 1", got)
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if vals[w] != vals[0] {
			t.Fatalf("worker %d got a different artifact pointer than worker 0 — results were not shared", w)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Waits != workers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d single-flight waits", st, workers-1)
	}
}

func TestHitAfterCompletion(t *testing.T) {
	s := New(64)
	calls := 0
	for i := 0; i < 5; i++ {
		v, err := s.Do(keyOf(1), func() (any, error) {
			calls++
			return 99, nil
		})
		if err != nil || v != 99 {
			t.Fatalf("get %d = (%v, %v), want (99, nil)", i, v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 4 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 4 hits / 1 entry", st)
	}
	if got := st.HitRate(); got != 0.8 {
		t.Fatalf("hit rate = %g, want 0.8", got)
	}
}

// TestHitRateZeroLookups: a fresh store (or a Stats zero value) has no
// lookups; HitRate must report 0, not NaN — this value flows straight into
// CLI tables and the metrics gauge, where NaN would corrupt the output.
func TestHitRateZeroLookups(t *testing.T) {
	var zero Stats
	if got := zero.HitRate(); got != 0 {
		t.Fatalf("zero-value Stats.HitRate() = %g, want 0", got)
	}
	if got := New(64).Stats().HitRate(); got != 0 {
		t.Fatalf("fresh store HitRate() = %g, want 0", got)
	}
}

// TestErrorsAreNotCached: a failed compute must not poison the key.
func TestErrorsAreNotCached(t *testing.T) {
	s := New(64)
	boom := errors.New("boom")
	if _, err := s.Do(keyOf(2), func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first Do error = %v, want boom", err)
	}
	v, err := s.Do(keyOf(2), func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after error = (%v, %v), want (ok, nil)", v, err)
	}
	if st := s.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want the error entry dropped and 2 misses", st)
	}
}

// TestEvictionBound fills the store past its bound and checks it stays
// bounded, evicting oldest-first, and that evicted keys recompute.
func TestEvictionBound(t *testing.T) {
	s := New(numShards) // one completed entry per shard
	key := func(i int) Key {
		var k Key
		k[0] = 0 // pin every key to one shard to make the FIFO order observable
		k[1] = byte(i)
		return k
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Do(key(i), func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Entries != 1 || st.Evictions != 3 {
		t.Fatalf("stats = %+v, want 1 live entry and 3 evictions", st)
	}
	// The newest entry survived; the oldest was evicted and recomputes.
	recomputed := false
	if _, err := s.Do(key(0), func() (any, error) { recomputed = true; return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("oldest key was still cached after eviction")
	}
	kept := false
	if _, err := s.Do(key(0), func() (any, error) { kept = true; return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if kept {
		t.Fatal("just-recomputed key was not cached")
	}
}

// TestConcurrentMixedKeys drives many goroutines over overlapping keys to
// give the race detector surface area on the shard locking.
func TestConcurrentMixedKeys(t *testing.T) {
	s := New(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyOf(byte(i % 13))
				want := fmt.Sprintf("v%d", i%13)
				v, err := s.Do(k, func() (any, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("goroutine %d: Do = (%v, %v), want (%q, nil)", g, v, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
