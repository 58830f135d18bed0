package guard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGuardStressConcurrent hammers one controller from many goroutines
// mixing admissions, completions, breaker trips/recoveries, probe
// releases, open-breaker reads and state snapshots. It asserts only
// invariants that hold under any interleaving — the point of the test is
// the race detector plus "no panic, no deadlock, sane aggregates".
func TestGuardStressConcurrent(t *testing.T) {
	c := New(Config{
		Limiter: LimiterConfig{Initial: 8, Min: 2, Max: 64, Cooldown: time.Microsecond},
		Breaker: BreakerConfig{Threshold: 3, Cooldown: 100 * time.Microsecond},
	})

	keys := []string{"netA|clean", "netA|chaos", "netB|clean", "netB|chaos"}
	const goroutines = 16
	const iters = 2000

	var admitted, denied, probes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := keys[(g+i)%len(keys)]
				class := Class((g + i) % 2)
				v := c.Admit(Request{
					Class:       class,
					BackendKey:  key,
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
				if v.Probe {
					probes.Add(1)
				}
				switch i % 5 {
				case 0:
					// Chaos keys fail, tripping breakers under load.
					ok := key == "netA|clean" || key == "netB|clean"
					outcome := OutcomeBackendFailure
					if ok {
						outcome = OutcomeBackendOK
					}
					c.ObserveDone(class, key, time.Duration(1+i%10)*time.Millisecond,
						time.Duration(1+i%10)*time.Millisecond, ok, outcome, v.Probe)
				case 1:
					// Cancelled while queued: neutral, probe slot released.
					if v.Probe {
						c.ReleaseProbe(key)
					}
					c.ObserveDone(class, key, time.Millisecond, 0, false, OutcomeNeutral, false)
				case 2:
					c.ObserveDispatch(class, time.Duration(i%50)*time.Millisecond, i%5)
					c.ObserveDone(class, key, 5*time.Millisecond, 4*time.Millisecond, true, OutcomeBackendOK, v.Probe)
				case 3:
					_ = c.OpenBreakers()
					c.ObserveDone(class, key, 2*time.Millisecond, 2*time.Millisecond, true, OutcomeBackendOK, v.Probe)
				default:
					st := c.State()
					if st.Limit < 2 || st.Limit > 64 {
						t.Errorf("limit %d escaped [2, 64]", st.Limit)
						return
					}
					c.ObserveDone(class, key, 3*time.Millisecond, 3*time.Millisecond, true, OutcomeBackendOK, v.Probe)
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
	if n := c.OpenBreakers(); n < 0 || n > len(keys) {
		t.Fatalf("open breakers = %d, want within [0, %d]", n, len(keys))
	}
	t.Logf("admitted=%d denied=%d probes=%d trips=%d limit=%d",
		admitted.Load(), denied.Load(), probes.Load(), st.BreakerTrips, st.Limit)
}

// TestGuardStressBreakerProbeExclusion asserts the single-probe
// invariant under contention: when a breaker goes half-open, at most one
// caller at a time holds the probe slot no matter how many race for it.
func TestGuardStressBreakerProbeExclusion(t *testing.T) {
	s := newBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Nanosecond})
	s.Allow("k")
	s.Record("k", false, false) // trip
	time.Sleep(time.Millisecond)

	var holding atomic.Int32
	var granted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := s.Allow("k")
				if !v.Allow {
					continue
				}
				if !v.Probe {
					// Breaker closed underneath us (a probe succeeded):
					// plain admissions need no bookkeeping.
					continue
				}
				granted.Add(1)
				if holding.Add(1) != 1 {
					t.Error("two probes in flight at once")
				}
				holding.Add(-1)
				// Fail the probe so the breaker re-opens and, after the
				// 1ns cooldown, hands out another probe to fight over.
				s.Record("k", false, true)
			}
		}()
	}
	wg.Wait()
	if granted.Load() == 0 {
		t.Fatal("no probe ever granted")
	}
}
