package pathdb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestUpdateBasic drives the facade transaction API: staged mutations are
// invisible until commit, visible after, and an aborted transaction leaves
// the volume untouched.
func TestUpdateBasic(t *testing.T) {
	db := engineFixture(t)
	root := mustOne(t, db, "/site")

	if n := countPath(t, db, "/site/probe"); n != 0 {
		t.Fatalf("fresh volume has %d probes", n)
	}
	var inserted Node
	err := db.Update(func(tx *Tx) error {
		n, err := tx.InsertXML(root, `<probe kind='a'><sub/></probe>`)
		if err != nil {
			return err
		}
		inserted = n
		// Not yet visible to queries: the version publishes at commit.
		if c := countPath(t, db, "/site/probe"); c != 0 {
			return fmt.Errorf("uncommitted insert visible: %d", c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := countPath(t, db, "/site/probe"); n != 1 {
		t.Fatalf("after commit: %d probes, want 1", n)
	}
	if name := inserted.Name(); name != "probe" {
		t.Fatalf("inserted handle resolves to %q", name)
	}

	boom := errors.New("boom")
	err = db.Update(func(tx *Tx) error {
		if _, err := tx.InsertXML(root, "<probe/>"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("abort error: %v", err)
	}
	if n := countPath(t, db, "/site/probe"); n != 1 {
		t.Fatalf("aborted insert leaked: %d probes", n)
	}

	if err := db.Update(func(tx *Tx) error { return tx.Delete(inserted) }); err != nil {
		t.Fatal(err)
	}
	if n := countPath(t, db, "/site/probe"); n != 0 {
		t.Fatalf("after delete: %d probes, want 0", n)
	}

	// Deleting the same node again hits ErrGone.
	err = db.Update(func(tx *Tx) error { return tx.Delete(inserted) })
	if !errors.Is(err, ErrGone) {
		t.Fatalf("double delete: %v, want ErrGone", err)
	}
}

// TestScheduleAfterPagesReturn commits inserts and deletes that relocate
// pages copy-on-write until a physical page comes back to the logical page
// it started as, after a scheduled read had requested another logical page
// stored there. Every read must still finish, under a deadline: the view
// once translated the returning page's completion to the other logical page,
// and XSchedule re-requested a cluster that never arrived, forever.
func TestScheduleAfterPagesReturn(t *testing.T) {
	db := exitFixture(t) // 40-page pool, smaller than the volume
	q, err := db.Query("/site/people/person/name")
	if err != nil {
		t.Fatal(err)
	}
	want := q.WithStrategy(Simple).Count()
	people, err := db.Query("/site/people/person")
	if err != nil {
		t.Fatal(err)
	}
	var held []Node
	for i := 0; i < 80; i++ {
		if len(held) > 3 {
			if err := db.Update(func(tx *Tx) error { return tx.Delete(held[0]) }); err != nil {
				t.Fatal(err)
			}
			held = held[1:]
		} else {
			persons := people.WithStrategy(Simple).Nodes()
			var n Node
			err := db.Update(func(tx *Tx) (err error) {
				n, err = tx.InsertXML(persons[(i*7)%len(persons)], "<x>pad</x>")
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, n)
		}
		done := make(chan int, 1)
		go func() { done <- q.WithStrategy(Schedule).Count() }()
		select {
		case got := <-done:
			if got != want {
				t.Fatalf("commit %d: %d names, want %d", i, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("commit %d: the scheduled read did not finish", i)
		}
	}
}

// TestUpdateMixedWorkloadUnderFaults is the subsystem's integration gauntlet:
// 8 readers — 7 engine sessions and one querying the DB directly — and 2
// writers race while the fault plane injects read errors and latency spikes. Every transaction inserts TWO
// probe elements, so any reader observing an odd count has seen a torn
// snapshot. The readers also scan keywords through a pool smaller than the
// volume, so faults reach reads: both fault counters must move. Afterwards
// the engine must shut down without leaking goroutines.
func TestUpdateMixedWorkloadUnderFaults(t *testing.T) {
	g0 := runtime.NumGoroutine()
	// engineFixture's volume (32 pages) in a 24-page pool, flushed, with a
	// zeroed ledger: the readers' scans reach the device while the faults
	// are armed.
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.1, Seed: 7, EntityScale: 0.05}, Options{BufferPages: 24})
	if err != nil {
		t.Fatal(err)
	}
	eng := db.NewEngine(EngineConfig{MaxInFlight: 8})
	root := mustOne(t, db, "/site")
	db.ResetStats()
	db.SetFaults(FaultConfig{Seed: 11, ReadError: 0.02, Latency: 0.05})

	const writers, perWriter, readers, perReader = 2, 8, 8, 12
	var commits int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				err := eng.Update(func(tx *Tx) error {
					if _, err := tx.InsertXML(root, fmt.Sprintf("<probe w='%d' i='%d'/>", w, i)); err != nil {
						return err
					}
					_, err := tx.InsertXML(root, fmt.Sprintf("<probe w='%d' i='%d' twin='1'/>", w, i))
					return err
				})
				if err != nil {
					// A typed storage fault aborts this transaction only;
					// atomicity means no half-inserted pair either way.
					if k := KindOf(err); k == KindIO || k == KindCorrupt {
						continue
					}
					errs <- fmt.Errorf("writer %d commit %d: %w", w, i, err)
					return
				}
				mu.Lock()
				commits++
				mu.Unlock()
			}
		}(w)
	}

	// Reader 0 queries the DB directly, beside the engine's readers.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			do := eng.NewSession().Do
			if r == 0 {
				do = db.QueryCtx
			}
			last := -1
			for i := 0; i < perReader; i++ {
				// A read across the volume, larger than the pool.
				if _, err := do(context.Background(), "/site//keyword", QueryOptions{}); err != nil {
					if k := KindOf(err); k != KindIO && k != KindCorrupt {
						errs <- fmt.Errorf("reader %d: %w", r, err)
						return
					}
				}
				res, err := do(context.Background(), "/site/probe", QueryOptions{})
				if err != nil {
					if k := KindOf(err); k == KindIO || k == KindCorrupt {
						continue
					}
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				n := res.Count()
				if n%2 != 0 {
					errs <- fmt.Errorf("reader %d saw a torn snapshot: %d probes (odd)", r, n)
					return
				}
				if n < last {
					errs <- fmt.Errorf("reader %d went back in time: %d after %d", r, n, last)
					return
				}
				last = n
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	db.SetFaults(FaultConfig{})
	if led := db.store.Ledger(); led.ReadFaults == 0 || led.LatencySpikes == 0 {
		t.Errorf("no fault injected: %d read faults and %d latency spikes over %d page reads",
			led.ReadFaults, led.LatencySpikes, led.PageReads)
	}

	if n := countPath(t, db, "/site/probe"); int64(n) != 2*commits {
		t.Errorf("final probe count %d, want %d (2 per commit)", n, 2*commits)
	}
	tm := db.TxnMetrics()
	if int64(tm.Commits) != commits {
		t.Errorf("TxnMetrics.Commits = %d, want %d", tm.Commits, commits)
	}
	if tm.Commits > 1 && tm.Flushes > tm.Commits {
		t.Errorf("group commit regressed: %d flushes for %d commits", tm.Flushes, tm.Commits)
	}

	eng.Close()
	// The engine's dispatcher and workers must be gone; give the runtime a
	// moment to retire them before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > g0 {
		t.Errorf("goroutine leak: %d before, %d after shutdown", g0, g)
	}
	if tm := db.TxnMetrics(); tm.Pinned != 0 {
		t.Errorf("%d snapshots still pinned after drain", tm.Pinned)
	}
}

// TestUpdateSerializesChooser: commits move the plan chooser's statistics;
// auto queries racing the refreshes must stay consistent. Four writers race
// a direct reader beside three engine sessions.
func TestUpdateSerializesChooser(t *testing.T) {
	db := engineFixture(t)
	root := mustOne(t, db, "/site")
	const path = "/site/regions//item"
	want := countPath(t, db, path)
	eng := db.NewEngine(EngineConfig{MaxInFlight: 4})
	defer eng.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if err := db.Update(func(tx *Tx) error {
					_, err := tx.InsertXML(root, "<pad/>")
					return err
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
		count := func() (int, error) { return countPath(t, db, path), nil }
		if i > 0 {
			ses := eng.NewSession()
			count = func() (int, error) {
				res, err := ses.Do(context.Background(), path, QueryOptions{})
				return len(res.Nodes), err
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				got, err := count()
				if err == nil && got != want {
					err = fmt.Errorf("count drifted under updates: %d, want %d", got, want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// mustOne resolves a path expected to match exactly one node.
func mustOne(t *testing.T, db *DB, path string) Node {
	t.Helper()
	q, err := db.Query(path)
	if err != nil {
		t.Fatal(err)
	}
	nodes := q.Nodes()
	if len(nodes) != 1 {
		t.Fatalf("%s matched %d nodes, want 1", path, len(nodes))
	}
	return nodes[0]
}

func countPath(t *testing.T, db *DB, path string) int {
	t.Helper()
	q, err := db.Query(path)
	if err != nil {
		t.Fatal(err)
	}
	return q.Count()
}

// addPersons commits 200 persons under /site/people in one transaction.
func addPersons(t *testing.T, db *DB) {
	t.Helper()
	people := mustOne(t, db, "/site/people")
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < 200; i++ {
			if _, err := tx.InsertXML(people, "<person><name>late</name></person>"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotAcrossCommit: a reader that has begun before a commit returns
// the node set of the version it began on, whichever surface runs it — a
// direct QueryStream, a Query.Each whose callback commits, an engine Stream
// and an engine Do whose gang began before the commit — under every
// strategy, on a fresh volume (the reader pins the initial version) and
// after a warm-up commit. The reader's snapshot shows in TxnMetrics.Pinned
// while it runs.
func TestSnapshotAcrossCommit(t *testing.T) {
	const path = "/site/people/person"
	surfaces := []struct {
		name string
		// read counts path under opts, calling commit once the read has
		// begun and before it ends.
		read func(t *testing.T, db *DB, opts QueryOptions, commit func()) int
	}{
		{"QueryStream", func(t *testing.T, db *DB, opts QueryOptions, commit func()) int {
			cur, err := db.QueryStream(context.Background(), path, opts)
			if err != nil {
				t.Fatal(err)
			}
			cur.Next()
			commit()
			return 1 + len(streamIDs(t, cur))
		}},
		{"Each", func(t *testing.T, db *DB, opts QueryOptions, commit func()) int {
			q, err := db.Query(path)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			q.WithStrategy(opts.Strategy).Each(func(Node) bool {
				if n++; n == 1 {
					commit()
				}
				return true
			})
			return n
		}},
		{"Session.Stream", func(t *testing.T, db *DB, opts QueryOptions, commit func()) int {
			eng := db.NewEngine(EngineConfig{})
			defer eng.Close()
			// Unread, the stream's producer parks on its first full block:
			// its gang has begun.
			cur, err := eng.NewSession().Stream(context.Background(), path, opts)
			if err != nil {
				t.Fatal(err)
			}
			waitParked(t)
			commit()
			return len(streamIDs(t, cur))
		}},
		{"Session.Do", func(t *testing.T, db *DB, opts QueryOptions, commit func()) int {
			eng := db.NewEngine(EngineConfig{MaxInFlight: 2})
			defer eng.Close()
			ses := eng.NewSession()
			// A parked stream holds the dispatcher while the next gang — a
			// stream that parks in its turn, then the Do — queues behind it.
			gate, err := ses.Stream(context.Background(), "/site//description", QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			waitParked(t)
			first, err := ses.Stream(context.Background(), path, opts)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan ExecResult, 1)
			go func() {
				res, err := ses.Do(context.Background(), path, opts)
				if err != nil {
					t.Error(err)
				}
				done <- res
			}()
			for eng.Metrics().Submitted < 3 {
				time.Sleep(time.Millisecond)
			}
			gate.Close()
			waitParked(t) // the gang of first and the Do has begun
			commit()
			if n := len(streamIDs(t, first)); n != 128 {
				t.Errorf("the stream of the Do's gang: %d nodes, want 128", n)
			}
			res := <-done
			return res.Count()
		}},
	}
	for _, s := range surfaces {
		for _, warm := range []bool{false, true} {
			for _, strat := range []Strategy{Simple, Schedule, Scan} {
				name := fmt.Sprintf("%s/warm=%v/%v", s.name, warm, strat)
				t.Run(name, func(t *testing.T) {
					db := engineFixture(t)
					if warm {
						root := mustOne(t, db, "/site")
						if _, err := db.InsertXML(root, "<pad/>"); err != nil {
							t.Fatal(err)
						}
					}
					if n := countPath(t, db, path); n != 128 {
						t.Fatalf("fixture has %d persons, want 128", n)
					}
					commit := func() {
						if tm := db.TxnMetrics(); tm.Pinned < 1 {
							t.Errorf("a read under way pins %d snapshots, want at least 1", tm.Pinned)
						}
						addPersons(t, db)
					}
					if got := s.read(t, db, QueryOptions{Strategy: strat}, commit); got != 128 {
						t.Errorf("a read begun before the commit returned %d persons, want 128", got)
					}
					if n := countPath(t, db, path); n != 328 {
						t.Errorf("after the commit: %d persons, want 328", n)
					}
					if tm := db.TxnMetrics(); tm.Pinned != 0 {
						t.Errorf("%d snapshots still pinned after the reads", tm.Pinned)
					}
				})
			}
		}
	}
}
