package guard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGuardStressConcurrent hammers one controller from many goroutines
// mixing admissions, completions, dispatch observations and state
// snapshots. It asserts only invariants that hold under any
// interleaving — the point of the test is the race detector plus "no
// panic, no deadlock, sane aggregates".
func TestGuardStressConcurrent(t *testing.T) {
	c := New(Config{
		Limiter: LimiterConfig{Initial: 8, Min: 2, Max: 64},
	})

	const goroutines = 16
	const iters = 2000

	var admitted, denied atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				class := Class((g + i) % 2)
				v := c.Admit(Request{
					Class:       class,
					Timeout:     time.Duration(i%3) * time.Second,
					QueuedAhead: i % 7,
					InFlight:    i % 24,
				})
				if !v.Allow {
					denied.Add(1)
					if v.Reason == "" {
						t.Error("denial without a reason")
						return
					}
					continue
				}
				admitted.Add(1)
				latency := time.Duration(1+i%10) * time.Millisecond
				switch i % 4 {
				case 0:
					// A failure (a fault-injected crash): not a latency signal.
					c.ObserveDone(class, "", latency, latency, false, OutcomeNeutral, false)
				case 1:
					c.ObserveDispatch(class, time.Duration(i%50)*time.Millisecond, i%5)
					c.ObserveDone(class, "", latency, latency, true, OutcomeNeutral, false)
				case 2:
					// Slow completions: overload signals for the limiter.
					c.ObserveDone(class, "", 100*latency, latency, true, OutcomeNeutral, false)
				default:
					st := c.State()
					if st.Limit < 2 || st.Limit > 64 {
						t.Errorf("limit %d escaped [2, 64]", st.Limit)
						return
					}
					c.ObserveDone(class, "", latency, latency, true, OutcomeNeutral, false)
				}
			}
		}(g)
	}
	wg.Wait()

	if admitted.Load()+denied.Load() != goroutines*iters {
		t.Fatalf("admitted %d + denied %d != %d requests",
			admitted.Load(), denied.Load(), goroutines*iters)
	}
	if admitted.Load() == 0 {
		t.Fatal("nothing admitted under stress")
	}
	st := c.State()
	if st.Limit < 2 || st.Limit > 64 {
		t.Fatalf("final limit %d escaped [2, 64]", st.Limit)
	}
	t.Logf("admitted=%d denied=%d limit=%d", admitted.Load(), denied.Load(), st.Limit)
}
