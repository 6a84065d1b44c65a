package pathdb

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"pathdb/internal/storage"
)

// streamIDs drains a cursor and returns the yielded node IDs in order.
func streamIDs(t *testing.T, c *Cursor) []uint64 {
	t.Helper()
	var ids []uint64
	for c.Next() {
		ids = append(ids, c.Node().ID())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return ids
}

func resultIDs(res ExecResult) []uint64 {
	ids := make([]uint64, len(res.Nodes))
	for i, n := range res.Nodes {
		ids[i] = n.ID()
	}
	return ids
}

func sameSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[uint64]int, len(a))
	for _, id := range a {
		set[id]++
	}
	for _, id := range b {
		if set[id] == 0 {
			return false
		}
		set[id]--
	}
	return true
}

func sameSeq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamMatchesDo: Session.Stream yields exactly Do's node set (and,
// sorted, Do's node sequence), for plain paths and unions.
func TestStreamMatchesDo(t *testing.T) {
	db := engineFixture(t)
	eng := db.NewEngine(EngineConfig{MaxInFlight: 4})
	defer eng.Close()
	ses := eng.NewSession()

	paths := []string{
		"/site/regions//item",
		"/site//description",
		"/site/people/person/name | /site/regions//item/name",
		"/site//item | /site/regions//item", // overlapping union: dedup matters
	}
	for _, path := range paths {
		for _, sorted := range []bool{false, true} {
			opts := QueryOptions{Sorted: sorted}
			want, err := ses.Do(context.Background(), path, opts)
			if err != nil {
				t.Fatalf("Do(%q): %v", path, err)
			}
			cur, err := ses.Stream(context.Background(), path, opts)
			if err != nil {
				t.Fatalf("Stream(%q): %v", path, err)
			}
			got := streamIDs(t, cur)
			if sorted {
				if !sameSeq(got, resultIDs(want)) {
					t.Errorf("sorted stream of %q: sequence differs from Do (%d vs %d nodes)",
						path, len(got), len(want.Nodes))
				}
			} else if !sameSet(got, resultIDs(want)) {
				t.Errorf("stream of %q: node set differs from Do (%d vs %d nodes)",
					path, len(got), len(want.Nodes))
			}
			if sum, ok := cur.Summary(); !ok {
				t.Errorf("stream of %q: no summary after drain", path)
			} else if sum.Strategy == Auto {
				t.Errorf("stream of %q: summary strategy unresolved", path)
			}
		}
	}
}

// TestStreamLimit: Limit stops production after N nodes; a sorted limited
// stream yields exactly the first N of the full sorted result.
func TestStreamLimit(t *testing.T) {
	db := engineFixture(t)
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	ses := eng.NewSession()

	full, err := ses.Do(context.Background(), itemPath, QueryOptions{Sorted: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Nodes) < 10 {
		t.Fatalf("fixture too small: %d items", len(full.Nodes))
	}

	const limit = 7
	cur, err := ses.Stream(context.Background(), itemPath, QueryOptions{Sorted: true, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	got := streamIDs(t, cur)
	if !sameSeq(got, resultIDs(full)[:limit]) {
		t.Fatalf("limited sorted stream: got %d nodes, want the first %d of the sorted result", len(got), limit)
	}

	// Unsorted: the limit caps production without a guaranteed prefix.
	cur, err = ses.Stream(context.Background(), itemPath, QueryOptions{Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if got := streamIDs(t, cur); len(got) != limit {
		t.Fatalf("limited stream yielded %d nodes, want %d", len(got), limit)
	}

	// Do shares the same Limit semantics (it is stream-then-drain).
	res, err := ses.Do(context.Background(), itemPath, QueryOptions{Sorted: true, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSeq(resultIDs(res), resultIDs(full)[:limit]) {
		t.Fatalf("Do with Limit: got %d nodes, want first %d sorted", len(res.Nodes), limit)
	}
}

// exitFixture is the volume the exit-path tests run on: cold, shuffled, and
// with a pool far smaller than the document, so that an XSchedule plan
// abandoned mid-flight has cluster requests outstanding.
func exitFixture(t *testing.T) *DB {
	t.Helper()
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.1, Seed: 7, EntityScale: 0.05},
		Options{PageSize: 2048, BufferPages: 40, Layout: Shuffled, LayoutSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	return db
}

// checkNoRequestsLeft runs exit on a cold volume and requires that it left
// no cluster request on the device: whatever exit did, the view its plan
// read through withdrew its prefetches, so none can surface inside a later
// query.
func checkNoRequestsLeft(t *testing.T, exit func(t *testing.T, db *DB)) {
	t.Helper()
	db := exitFixture(t)
	exit(t, db)
	if n := db.store.Disk().PendingAsync(); n != 0 {
		t.Fatalf("the exit left %d cluster requests on the device", n)
	}
}

// TestDirectExitWithdrawsRequests: an abandoned Each, a faulted QueryCtx and
// a query cancelled mid-flight all withdraw their outstanding cluster
// requests (the contract of core.XSchedule: "the plan's owner cancels them").
func TestDirectExitWithdrawsRequests(t *testing.T) {
	t.Run("abandoned Each", func(t *testing.T) {
		checkNoRequestsLeft(t, func(t *testing.T, db *DB) {
			q, err := db.Query("//item/name")
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			q.WithStrategy(Schedule).Each(func(Node) bool { n++; return n < 50 })
			if n != 50 {
				t.Fatalf("Each stopped after %d nodes, want 50", n)
			}
		})
	})
	t.Run("faulted QueryCtx", func(t *testing.T) {
		checkNoRequestsLeft(t, func(t *testing.T, db *DB) {
			db.SetFaults(FaultConfig{Seed: 1, ReadError: 0.9})
			_, err := db.QueryCtx(context.Background(), "//item/name", QueryOptions{Strategy: Schedule})
			db.SetFaults(FaultConfig{})
			if !errors.Is(err, ErrIO) {
				t.Fatalf("QueryCtx under ReadError=0.9: err=%v, want ErrIO", err)
			}
		})
	})
	t.Run("cancelled mid-flight", func(t *testing.T) {
		// QueryCtx is this cursor followed by Drain; holding the cursor is
		// what lets the test cancel at a known point.
		checkNoRequestsLeft(t, func(t *testing.T, db *DB) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cur, err := db.QueryStream(ctx, "//item/name", QueryOptions{Strategy: Schedule})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50 && cur.Next(); i++ {
			}
			cancel()
			if _, err := cur.Drain(); !errors.Is(err, ErrCanceled) {
				t.Fatalf("Drain of a cancelled query: err=%v, want ErrCanceled", err)
			}
		})
	})
}

// TestStreamEarlyClose: every way a cursor can end — over the engine
// producer and over the direct one — takes the same exit: Err is nil or
// typed, the summary is there, a second Close is a no-op, no goroutine and
// no pooled navigation iterator stays behind, and (direct) no cluster
// request is left to surface inside the next query.
func TestStreamEarlyClose(t *testing.T) {
	const union = "/site/people/person/name | /site/regions//item/name"
	exits := []struct {
		name  string
		path  string
		opts  QueryOptions
		fault bool
		// drive takes the open cursor to its exit; cancel cancels its context.
		drive func(t *testing.T, cur *Cursor, cancel func())
		kind  ErrorKind // of Err(); KindUnknown wants nil
		count int       // required Count(), -1 for any
	}{
		{name: "exhausted", path: "//item/name", count: -1,
			drive: func(_ *testing.T, cur *Cursor, _ func()) {
				for cur.Next() {
				}
			}},
		{name: "limit cut", path: "//item/name", opts: QueryOptions{Limit: 3}, count: 3,
			drive: func(_ *testing.T, cur *Cursor, _ func()) {
				for cur.Next() {
				}
			}},
		{name: "close after one node", path: "//item/name", count: 1,
			drive: func(_ *testing.T, cur *Cursor, _ func()) { cur.Next(); cur.Close() }},
		{name: "close before the first Next", path: "//item/name", count: 0,
			drive: func(_ *testing.T, cur *Cursor, _ func()) { cur.Close() }},
		{name: "context cancelled mid-stream", path: "//item/name", count: -1, kind: KindCanceled,
			drive: func(_ *testing.T, cur *Cursor, cancel func()) {
				cur.Next()
				cancel()
				for cur.Next() {
				}
			}},
		{name: "read fault", path: "//item/name", fault: true, count: -1, kind: KindIO,
			drive: func(_ *testing.T, cur *Cursor, _ func()) {
				for cur.Next() {
				}
			}},
		{name: "sorted union", path: union, opts: QueryOptions{Sorted: true}, count: -1,
			drive: func(t *testing.T, cur *Cursor, _ func()) {
				var prev Node
				for i := 0; cur.Next(); i++ {
					if i > 0 && CompareDocOrder(prev, cur.Node()) >= 0 {
						t.Fatal("sorted union out of document order")
					}
					prev = cur.Node()
				}
			}},
	}
	type opener func(ctx context.Context, path string, opts QueryOptions) (*Cursor, error)

	// check drives one exit and asserts what every exit promises.
	check := func(t *testing.T, db *DB, open opener, i int, direct bool) {
		ex := exits[i]
		opts := ex.opts
		opts.Strategy = Schedule
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if ex.fault {
			db.SetFaults(FaultConfig{Seed: 3, ReadError: 1})
			defer db.SetFaults(FaultConfig{})
		}
		cur, err := open(ctx, ex.path, opts)
		if err != nil {
			t.Fatal(err)
		}
		ex.drive(t, cur, cancel)
		if cur.Next() {
			t.Fatal("Next after the exit must report false")
		}
		err = cur.Err()
		// An engine stream whose worker finished before the cancel arrived
		// ends cleanly; everything else ends exactly as the exit says.
		raced := err == nil && !direct && ex.kind == KindCanceled
		if wantErr := ex.kind != KindUnknown; !raced && ((err != nil) != wantErr || KindOf(err) != ex.kind) {
			t.Fatalf("Err() = %v (kind %v), want kind %v", err, KindOf(err), ex.kind)
		}
		if ex.count >= 0 && cur.Count() != ex.count {
			t.Fatalf("Count() = %d, want %d", cur.Count(), ex.count)
		}
		sum, ok := cur.Summary()
		if !ok {
			t.Fatal("no summary after the exit")
		}
		for n := 0; n < 2; n++ {
			if err := cur.Close(); err != nil {
				t.Fatalf("Close #%d: %v", n+1, err)
			}
		}
		if again, ok := cur.Summary(); !ok || again.CostV != sum.CostV || cur.Err() != err {
			t.Fatal("a second Close changed the cursor's outcome")
		}
	}

	baseline := runtime.NumGoroutine()
	baseIters := storage.LiveStepIters()

	t.Run("direct", func(t *testing.T) {
		for i, ex := range exits {
			t.Run(ex.name, func(t *testing.T) {
				checkNoRequestsLeft(t, func(t *testing.T, db *DB) { check(t, db, db.QueryStream, i, true) })
			})
		}
	})
	t.Run("engine", func(t *testing.T) {
		db := exitFixture(t)
		eng := db.NewEngine(EngineConfig{MaxInFlight: 4})
		defer eng.Close()
		ses := eng.NewSession()
		for i, ex := range exits {
			t.Run(ex.name, func(t *testing.T) {
				db.ResetStats() // cold, so that the fault plane has reads to fail
				check(t, db, ses.Stream, i, false)
			})
		}
		// Early closes at varying depths of the sink's blocks: inside the
		// first, at the end of a full one, one past it, one past the next.
		// Sorted over Simple streams live too (the plan is ordered).
		for _, opts := range []QueryOptions{{}, {Sorted: true, Strategy: Simple}} {
			for _, k := range []int{0, 1, 3, 17, 64, 65, 129} {
				cur, err := ses.Stream(context.Background(), "/site//description", opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k && cur.Next(); i++ {
				}
				if cur.Count() != k {
					t.Fatalf("%+v: %d nodes before the close, want %d", opts, cur.Count(), k)
				}
				cur.Close()
				if cur.Next() {
					t.Fatal("Next after Close must report false")
				}
			}
		}
		// A cancel while the producer is parked on back-pressure.
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := ses.Stream(ctx, "/site//description", QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cur.Next()
		waitParked(t)
		cancel()
		for cur.Next() {
		}
		if err := cur.Err(); err != nil && KindOf(err) != KindCanceled {
			t.Fatalf("cancelled while parked: %v", err)
		}
		cur.Close()
	})

	checkNoLeaks(t, baseline, baseIters)
}

// waitParked waits until a streaming producer is parked on back-pressure:
// its worker blocked handing a full block to a consumer that does not read.
func waitParked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if strings.Contains(string(buf[:runtime.Stack(buf, true)]), "engine.(*Engine).emit(") {
			return
		}
	}
	t.Fatal("no streaming producer parked on its consumer")
}

// checkNoLeaks waits for the goroutine count to fall back to baseline and
// requires every pooled navigation iterator to be back.
func checkNoLeaks(t *testing.T, goroutines int, iters int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutines {
		buf := make([]byte, 1<<20)
		t.Fatalf("leaked goroutines: %d > %d\n%s", g, goroutines, buf[:runtime.Stack(buf, true)])
	}
	if n := storage.LiveStepIters(); n != iters {
		t.Fatalf("leaked navigation iterators: %d live, baseline %d", n, iters)
	}
}

// TestEngineShutdownWithParkedStream: closing or draining an engine under a
// streaming query whose producer is parked on an unread cursor returns, fails
// the query with ErrClosed, and leaves no goroutine or iterator behind.
func TestEngineShutdownWithParkedStream(t *testing.T) {
	db := engineFixture(t)
	goroutines, iters := runtime.NumGoroutine(), storage.LiveStepIters()
	for _, name := range []string{"Close", "Shutdown"} {
		eng := db.NewEngine(EngineConfig{})
		cur, err := eng.NewSession().Stream(context.Background(), "/site//description", QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cur.Next()
		waitParked(t)
		if name == "Close" {
			eng.Close()
		} else {
			// Draining waits for the parked query until the deadline, then
			// closes.
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			if err := eng.Shutdown(ctx); !errors.Is(err, ErrTimeout) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Shutdown over a parked stream: %v, want the deadline", err)
			}
			cancel()
		}
		for cur.Next() {
		}
		if err := cur.Err(); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: the parked stream ended with %v, want ErrClosed", name, err)
		}
		cur.Close()
	}
	checkNoLeaks(t, goroutines, iters)
}

// TestUnreadSmallStreamDoesNotBlock: a streaming query of at most one block
// completes without its consumer, so a cursor opened and not yet read does
// not hold the dispatcher — the next query completes — and still yields
// everything once read.
func TestUnreadSmallStreamDoesNotBlock(t *testing.T) {
	db := engineFixture(t)
	eng := db.NewEngine(EngineConfig{MaxInFlight: 1})
	defer eng.Close()
	ses := eng.NewSession()
	const small = "/site/regions/*"
	for _, opts := range []QueryOptions{{}, {Sorted: true, Strategy: Simple}} {
		cur, err := ses.Stream(context.Background(), small, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		want, err := ses.Do(ctx, small, opts)
		cancel()
		if err != nil {
			t.Fatalf("%+v: the query after an unread stream: %v", opts, err)
		}
		if n := len(want.Nodes); n == 0 || n > 64 {
			t.Fatalf("%s has %d nodes; the test needs 1..64", small, n)
		}
		if got := streamIDs(t, cur); !sameSeq(got, resultIDs(want)) {
			t.Fatalf("%+v: the unread stream yields %d nodes, Do %d", opts, len(got), len(want.Nodes))
		}
	}
}

// TestStreamFaultTyped: a mid-stream storage fault surfaces as the typed
// taxonomy error on Err, and the failed cursor still cleans up. Seeds
// sweep the fault plane so the cancel path runs at varying depths.
func TestStreamFaultTyped(t *testing.T) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.1, Seed: 7, EntityScale: 0.1},
		Options{BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	ses := eng.NewSession()
	baseIters := storage.LiveStepIters()

	// Certain failure: the stream must end with a typed ErrIO.
	db.SetFaults(FaultConfig{Seed: 3, ReadError: 1})
	cur, err := ses.Stream(context.Background(), itemPath, QueryOptions{Strategy: Schedule})
	if err == nil {
		for cur.Next() {
		}
		err = cur.Err()
		cur.Close()
	}
	if !errors.Is(err, ErrIO) {
		t.Fatalf("stream under ReadError=1: err=%v, want ErrIO", err)
	}

	// Seeded sweep at moderate rates: every outcome must be either clean or
	// typed io/corrupt, with no iterator leaks either way.
	for seed := uint64(1); seed <= 5; seed++ {
		db.SetFaults(FaultConfig{Seed: seed, ReadError: 0.05, Corrupt: 0.02})
		cur, err := ses.Stream(context.Background(), itemPath, QueryOptions{Strategy: Schedule})
		if err == nil {
			for i := 0; i < 10 && cur.Next(); i++ {
			}
			cur.Close() // early close mid-fault-sweep
			err = cur.Err()
		}
		if err != nil && KindOf(err) != KindIO && KindOf(err) != KindCorrupt {
			t.Fatalf("seed %d: err=%v kind=%v, want io/corrupt", seed, err, KindOf(err))
		}
	}
	db.SetFaults(FaultConfig{})
	if iters := storage.LiveStepIters(); iters != baseIters {
		t.Fatalf("fault sweep leaked navigation iterators: %d live, baseline %d", iters, baseIters)
	}
}

// TestQueryStreamMatchesQueryCtx: QueryCtx is QueryStream followed by Drain,
// so from the same pool state the two report the same nodes in the same
// order at the same cost under the same strategy — for plain, predicate and
// union paths, every strategy, sorted or not, limited or not. A limited
// unsorted QueryCtx stops pulling its plan; an early Close returns the
// cursor's pooled resources.
func TestQueryStreamMatchesQueryCtx(t *testing.T) {
	db := mustLoad(t, `<a><b><c/><c/></b><b/><d><b><c/></b></d></a>`)
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	// ResetStats also drops the derived generation, so a PredAuto predicate
	// builds its levels on both sides alike.
	ctx := context.Background()
	drain := func(cur *Cursor, err error) ExecResult {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		res, err := cur.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, path := range []string{"/a/b", "/a//c", "/a//b[c]", "/a/b | /a/d/b", "/a//b | /a/b"} {
		for _, strat := range []Strategy{Auto, Simple, Schedule, Scan} {
			for _, sorted := range []bool{false, true} {
				for _, limit := range []int{0, 2} {
					opts := QueryOptions{Strategy: strat, Sorted: sorted, Limit: limit}
					// A single path or a sorted union runs alike live and
					// drained: QueryStream+Drain equals QueryCtx. A live
					// unsorted union runs its branches solo, one after another,
					// as Session.Stream runs it (QueryCtx pools it like
					// Session.Do, below).
					live := strings.Contains(path, "|") && !sorted
					db.ResetStats()
					var want ExecResult
					if live {
						want = drain(eng.NewSession().Stream(ctx, path, opts))
					} else {
						var err error
						if want, err = db.QueryCtx(ctx, path, opts); err != nil {
							t.Fatal(err)
						}
					}
					db.ResetStats()
					got := drain(db.QueryStream(ctx, path, opts))
					if !sameSeq(resultIDs(got), resultIDs(want)) || got.Strategy != want.Strategy || got.CostV != want.CostV && !(live && limit > 0) {
						t.Errorf("%s %+v: QueryStream+Drain %d nodes, %v, %v; QueryCtx or Session.Stream %d nodes, %v, %v", path, opts,
							len(got.Nodes), got.CostV, got.Strategy, len(want.Nodes), want.CostV, want.Strategy)
					}
					if live && limit > 0 {
						// Under a limit the dispatcher may finish a later branch
						// before Session.Stream's cursor cancels it, so its cost
						// is no reference. Here the first branch alone supplies
						// the limit and the live cursor stops before the later
						// branches start: the union costs what that branch
						// costs alone, to the tick.
						db.ResetStats()
						first, err := db.QueryCtx(ctx, strings.Split(path, " | ")[0], opts)
						if err != nil {
							t.Fatal(err)
						}
						if len(first.Nodes) < limit {
							t.Fatalf("%s %+v: the first branch yields %d nodes, under the limit", path, opts, len(first.Nodes))
						}
						if got.CostV != first.CostV {
							t.Errorf("%s %+v: QueryStream+Drain costs %v, its first branch alone %v", path, opts, got.CostV, first.CostV)
						}
					}
					if limit > 0 && len(want.Nodes) > limit {
						t.Errorf("%s %+v: %d nodes exceed the limit", path, opts, len(want.Nodes))
					}
					if sorted {
						for i := 1; i < len(want.Nodes); i++ {
							if CompareDocOrder(want.Nodes[i-1], want.Nodes[i]) >= 0 {
								t.Errorf("%s %+v: result not in document order", path, opts)
							}
						}
					}
				}
			}
		}
	}

	// QueryCtx runs a query the way the engine runs it: on two volumes built
	// alike and committed to alike, it reports Session.Do's nodes at
	// Session.Do's cost, to the tick, for every strategy, sorted or not,
	// limited or not. A union is admitted whole — one gang of its branches,
	// its batchable ones pooled in one group — so its costs, the group's
	// clock included, are equal too, on a flushed and on a resident pool.
	direct, engined := engineFixture(t), engineFixture(t)
	twin := engined.NewEngine(EngineConfig{MaxInFlight: 3})
	defer twin.Close()
	ses := twin.NewSession()
	unions := []string{
		"/site/regions//item | /site/people/person/name",
		"//description | //annotation | //emailaddress",
		"/site/closed_auctions/closed_auction/price | /site//item[mailbox/mail//keyword] | /site/people/person/name",
	}
	for round := 0; round < 3; round++ {
		for _, resident := range []bool{false, true} {
			for _, db := range []*DB{direct, engined} {
				db.ResetStats()
				if resident {
					loadAll(db)
				}
			}
			for _, path := range unions {
				for _, strat := range []Strategy{Auto, Schedule} {
					for _, sorted := range []bool{false, true} {
						opts := QueryOptions{Strategy: strat, Sorted: sorted}
						got, err := direct.QueryCtx(ctx, path, opts)
						if err != nil {
							t.Fatal(err)
						}
						before := engined.CostReport().Total
						want, err := ses.Do(ctx, path, opts)
						if err != nil {
							t.Fatal(err)
						}
						// The volume ledger gains the branches' own costs and
						// the group's clock once: SharedV is that clock.
						if d := engined.CostReport().Total - before; d != want.CostV+want.SharedV {
							t.Errorf("round %d, resident %v, %s %+v: the volume ledger gained %v, Session.Do reports %v + group %v",
								round, resident, path, opts, d, want.CostV, want.SharedV)
						}
						if !resident && strat == Schedule && (!want.Shared || want.SharedV == 0) {
							t.Errorf("%s %+v on a flushed pool: Session.Do did not pool its branches", path, opts)
						}
						if !sameSeq(resultIDs(got), resultIDs(want)) || got.Strategy != want.Strategy || got.Gang != want.Gang ||
							got.Shared != want.Shared || got.CostV != want.CostV || got.CPUV != want.CPUV ||
							got.IOWaitV != want.IOWaitV || got.SharedV != want.SharedV {
							t.Errorf("round %d, resident %v, %s %+v: QueryCtx %d nodes, %v, gang %d, shared %v, %v = %v + %v, group %v; "+
								"Session.Do %d nodes, %v, gang %d, shared %v, %v = %v + %v, group %v", round, resident, path, opts,
								len(got.Nodes), got.Strategy, got.Gang, got.Shared, got.CostV, got.CPUV, got.IOWaitV, got.SharedV,
								len(want.Nodes), want.Strategy, want.Gang, want.Shared, want.CostV, want.CPUV, want.IOWaitV, want.SharedV)
						}
					}
				}
			}
		}
		for _, path := range []string{
			"/site/regions//item", "/site/people/person/name", "/site/closed_auctions/closed_auction/price",
			"/site//item[mailbox/mail//keyword]", "/site//description",
		} {
			for _, strat := range []Strategy{Auto, Simple, Schedule, Scan} {
				for _, opts := range []QueryOptions{{}, {Sorted: true}, {Limit: 5}, {Sorted: true, Limit: 5}} {
					opts.Strategy = strat
					got, err := direct.QueryCtx(ctx, path, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ses.Do(ctx, path, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !sameSeq(resultIDs(got), resultIDs(want)) || got.CostV != want.CostV || got.Strategy != want.Strategy {
						t.Errorf("round %d, %s %+v: QueryCtx %d nodes, %v, %v; Session.Do %d nodes, %v, %v", round, path, opts,
							len(got.Nodes), got.CostV, got.Strategy, len(want.Nodes), want.CostV, want.Strategy)
					}
				}
			}
		}
		for _, db := range []*DB{direct, engined} {
			if _, err := db.InsertXML(mustOne(t, db, "/site/regions/europe"), "<item><name>late</name></item>"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d, e := direct.CostReport().Total, engined.CostReport().Total; d != e {
		t.Errorf("volume ledgers: %v direct, %v through the engine", d, e)
	}

	// Unsorted evaluation stops pulling after Limit matches: on a cold
	// volume one node of many costs a fraction of the full run.
	big := exitFixture(t)
	full, err := big.QueryCtx(ctx, "//item/name", QueryOptions{Strategy: Schedule})
	if err != nil {
		t.Fatal(err)
	}
	big.ResetStats()
	one, err := big.QueryCtx(ctx, "//item/name", QueryOptions{Strategy: Schedule, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Nodes) != 1 || one.CostV*10 > full.CostV {
		t.Fatalf("QueryCtx{Limit: 1} returned %d nodes for %v; the unlimited run costs %v", len(one.Nodes), one.CostV, full.CostV)
	}

	// Early close releases pooled iterators.
	baseIters := storage.LiveStepIters()
	cur, err := db.QueryStream(ctx, "/a//c", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur.Next()
	cur.Close()
	if iters := storage.LiveStepIters(); iters != baseIters {
		t.Fatalf("direct early Close leaked iterators: %d live, baseline %d", iters, baseIters)
	}
}

// TestStreamCancelMidStream: cancelling the caller's context terminates a
// live stream with the typed canceled/timeout error instead of hanging.
func TestStreamCancelMidStream(t *testing.T) {
	db := engineFixture(t)
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	ses := eng.NewSession()

	ctx, cancel := context.WithCancel(context.Background())
	cur, err := ses.Stream(ctx, "/site//description", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("no first node: %v", cur.Err())
	}
	cancel()
	for cur.Next() {
	}
	if k := KindOf(cur.Err()); cur.Err() != nil && k != KindCanceled && k != KindTimeout {
		t.Fatalf("cancelled stream err=%v kind=%v, want canceled", cur.Err(), k)
	}
	cur.Close()
}
