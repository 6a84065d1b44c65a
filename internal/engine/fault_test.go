package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathdb/internal/buffer"
	"pathdb/internal/core"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
)

// TestFaultSweep is the fault-isolation acceptance test: concurrent
// queries run against a disk injecting seeded transient read errors and
// torn page images at increasing rates. Every query must either return
// exactly the fault-free node count or fail with the typed
// *storage.PageError — no panics, no wrong answers — and a faulting
// member must not take its gang down with it. Meant to run under -race.
func TestFaultSweep(t *testing.T) {
	st, dict := testStore(t)
	paths := []string{srcQ6, srcQ7a, srcQ7b, srcQ7c, srcQ15}

	// Fault-free ground truth per path.
	want := map[string]int{}
	for _, src := range paths {
		st.ResetForRun()
		rs := core.BuildPlan(st, parsePath(t, dict, src), st.Roots(), core.StrategySchedule, core.PlanOptions{}).Run()
		want[src] = len(rs)
	}

	for _, rate := range []float64{0.01, 0.05, 0.20} {
		t.Run(fmt.Sprintf("rate=%g", rate), func(t *testing.T) {
			st.ResetForRun()
			st.Disk().SetFaults(vdisk.Faults{
				Seed:      uint64(rate * 1000),
				ReadError: rate,
				Corrupt:   rate / 2,
				Latency:   rate,
			})
			defer func() {
				st.Disk().SetFaults(vdisk.Faults{})
				st.ResetForRun()
			}()

			goroutines := runtime.NumGoroutine()
			e := New(st, Config{MaxInFlight: 4, QueueDepth: 32})

			const workers = 6
			type outcome struct {
				src   string
				count int
				err   error
			}
			results := make(chan outcome, workers*2*len(paths))
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := e.NewSession()
					for i := 0; i < 2*len(paths); i++ {
						src := paths[(i+w)%len(paths)]
						res, err := s.Do(context.Background(), Query{
							Path:     parsePath(t, dict, src),
							Strategy: core.StrategySchedule,
						})
						results <- outcome{src: src, count: res.Count(), err: err}
					}
				}(w)
			}
			wg.Wait()
			close(results)

			total, failed := 0, 0
			for o := range results {
				total++
				if o.err != nil {
					failed++
					var pe *storage.PageError
					if !errors.As(o.err, &pe) {
						t.Fatalf("query %q failed with untyped error %T: %v", o.src, o.err, o.err)
					}
					if pe.Kind != storage.PageIO && pe.Kind != storage.PageCorrupt {
						t.Fatalf("query %q: unexpected kind %v", o.src, pe.Kind)
					}
					continue
				}
				if o.count != want[o.src] {
					t.Errorf("query %q: %d results, want %d (silent wrong answer)", o.src, o.count, want[o.src])
				}
			}
			if m := e.Metrics(); m.Faulted != int64(failed) {
				t.Errorf("Metrics.Faulted = %d, but %d queries returned page errors", m.Faulted, failed)
			}
			led := st.Ledger()
			if led.ReadFaults == 0 || led.LatencySpikes == 0 {
				t.Errorf("fault counters flat: faults=%d spikes=%d", led.ReadFaults, led.LatencySpikes)
			}
			if rate >= 0.05 && led.ReadRetries == 0 {
				t.Errorf("no retries recorded at rate %g", rate)
			}
			t.Logf("rate=%g: %d/%d queries failed typed, retries=%d checksum_fails=%d",
				rate, failed, total, led.ReadRetries, led.ChecksumFails)

			e.Close()
			// Goroutine-leak check: everything the engine and its queries
			// spawned must wind down after Close.
			deadline := time.Now().Add(3 * time.Second)
			for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > goroutines {
				t.Errorf("goroutine leak: %d before, %d after drain", goroutines, g)
			}
		})
	}
}

// TestStepIterLeakUnderFaults audits StepIter.Release on the typed-panic
// unwind path: every navigation iterator checked out of the pool must be
// returned even when a page fault aborts the operator chain mid-step.
// Runs each strategy against a disk injecting a high fault rate, with one
// read attempt per page so that a fault aborts its query instead of a retry
// absorbing it, and asserts the live-iterator counter returns to its
// starting level once all queries — successful and faulted — have finished.
func TestStepIterLeakUnderFaults(t *testing.T) {
	st, dict := testStore(t)
	paths := []string{srcQ6, srcQ7a, srcQ7b, srcQ7c, srcQ15}

	for _, strat := range []core.Strategy{core.StrategySimple, core.StrategySchedule, core.StrategyScan} {
		t.Run(strat.String(), func(t *testing.T) {
			st.ResetForRun()
			st.Buffer().SetRetryPolicy(buffer.RetryPolicy{Attempts: 1})
			st.Disk().SetFaults(vdisk.Faults{
				Seed:      42,
				ReadError: 0.15,
				Corrupt:   0.10,
			})
			defer func() {
				st.Disk().SetFaults(vdisk.Faults{})
				st.Buffer().SetRetryPolicy(buffer.DefaultRetryPolicy())
				st.ResetForRun()
			}()

			base := storage.LiveStepIters()
			e := New(st, Config{MaxInFlight: 4, QueueDepth: 32})

			const workers = 4
			var wg sync.WaitGroup
			var faulted atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := e.NewSession()
					for i := 0; i < 3*len(paths); i++ {
						src := paths[(i+w)%len(paths)]
						_, err := s.Do(context.Background(), Query{
							Path:     parsePath(t, dict, src),
							Strategy: strat,
						})
						if err != nil {
							faulted.Add(1)
							var pe *storage.PageError
							if !errors.As(err, &pe) {
								t.Errorf("query %q: untyped error %T: %v", src, err, err)
							}
						}
					}
				}(w)
			}
			wg.Wait()
			e.Close()

			if live := storage.LiveStepIters(); live != base {
				t.Errorf("StepIter leak: %d live before, %d after (%d queries faulted)",
					base, live, faulted.Load())
			}
			if faulted.Load() == 0 {
				t.Errorf("no queries faulted at this rate; unwind path not exercised")
			}
		})
	}
}

// pagesRead runs src once on a cold store and returns the set of pages
// its evaluation read from the device.
func pagesRead(t *testing.T, st *storage.Store, dict *xmltree.Dictionary, src string) map[vdisk.PageID]bool {
	t.Helper()
	st.ResetForRun()
	st.Disk().SetTrace(true)
	core.BuildPlan(st, parsePath(t, dict, src), st.Roots(), core.StrategySchedule, core.PlanOptions{}).Run()
	set := make(map[vdisk.PageID]bool)
	for _, ev := range st.Disk().Trace() {
		set[ev.Page] = true
	}
	st.Disk().SetTrace(false)
	return set
}

// TestFaultIsolationInGang pins the tentpole guarantee directly: a gang
// whose shared scheduler hits a persistently damaged page must fail only
// the queries that need that page; the other members complete with
// correct results.
func TestFaultIsolationInGang(t *testing.T) {
	st, dict := testStore(t)
	st.ResetForRun()
	q15Want := len(core.BuildPlan(st, parsePath(t, dict, srcQ15), st.Roots(), core.StrategySchedule, core.PlanOptions{}).Run())

	// Damage a page Q6 reads but Q15 does not.
	q6Pages := pagesRead(t, st, dict, srcQ6)
	q15Pages := pagesRead(t, st, dict, srcQ15)
	bad := vdisk.InvalidPage
	for p := range q6Pages {
		if !q15Pages[p] {
			bad = p
			break
		}
	}
	if bad == vdisk.InvalidPage {
		t.Fatal("no page separates the Q6 and Q15 working sets")
	}
	// Build the engine (whose chooser scans the whole volume) before
	// damaging the medium.
	e := newStoppedEngine(st, Config{MaxInFlight: 2, QueueDepth: 4})
	st.ResetForRun()
	st.Disk().CorruptPage(bad, 3)
	defer func() {
		// Heal the shared volume for later tests: rewrite the damaged
		// page from a fresh import is overkill — corrupt it back and
		// forth is impossible, so re-damage+verify is skipped; instead
		// the page is restored by re-running CorruptPage with the same
		// seed (XOR damage is an involution).
		st.Disk().CorruptPage(bad, 3)
		st.ResetForRun()
	}()

	// One gang with both queries, run deterministically on the stopped
	// engine so they share a scheduler.
	s := e.NewSession()
	p6, err6 := s.TrySubmit(context.Background(), Query{Path: parsePath(t, dict, srcQ6), Strategy: core.StrategySchedule})
	p15, err15 := s.TrySubmit(context.Background(), Query{Path: parsePath(t, dict, srcQ15), Strategy: core.StrategySchedule})
	if err6 != nil || err15 != nil {
		t.Fatalf("submit: %v / %v", err6, err15)
	}
	e.execute(e.gather(<-e.queue))

	_, got6 := p6.Wait(context.Background())
	var pe *storage.PageError
	if !errors.As(got6, &pe) || pe.Kind != storage.PageCorrupt {
		t.Fatalf("Q6 over the damaged page: err = %v, want corrupt *storage.PageError", got6)
	}
	res15, got15 := p15.Wait(context.Background())
	if got15 != nil {
		t.Fatalf("Q15 must survive its gang-mate's fault, got %v", got15)
	}
	if res15.Count() != q15Want {
		t.Fatalf("Q15 count = %d, want %d", res15.Count(), q15Want)
	}
	if res15.Shared {
		t.Fatal("Q15 reported a shared run, but the shared run faulted and it re-ran solo")
	}
	if m := e.Metrics(); m.Faulted != 1 || m.Batched != 0 {
		t.Fatalf("metrics: faulted %d batched %d, want 1 and 0", m.Faulted, m.Batched)
	}
}
