package pathdb

import (
	"context"
	"errors"
	"testing"

	"pathdb/internal/vdisk"
)

func TestErrorKindRoundTrip(t *testing.T) {
	kinds := []ErrorKind{KindUnknown, KindTimeout, KindOverloaded, KindClosed, KindIO, KindCorrupt, KindCanceled}
	for _, k := range kinds {
		if got := ParseErrorKind(k.String()); got != k {
			t.Errorf("ParseErrorKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if ParseErrorKind("no-such-kind") != KindUnknown {
		t.Error("unknown names must parse as KindUnknown")
	}
}

func TestErrorTaxonomyMatching(t *testing.T) {
	cases := []struct {
		kind     ErrorKind
		sentinel error
	}{
		{KindTimeout, ErrTimeout},
		{KindOverloaded, ErrOverloaded},
		{KindClosed, ErrClosed},
		{KindIO, ErrIO},
		{KindCorrupt, ErrCorrupt},
		{KindCanceled, ErrCanceled},
	}
	for _, c := range cases {
		err := &Error{Kind: c.kind, Op: "query", Path: "/a", Err: errors.New("cause")}
		if !errors.Is(err, c.sentinel) {
			t.Errorf("kind %v does not match its sentinel", c.kind)
		}
		for _, other := range cases {
			if other.kind != c.kind && errors.Is(err, other.sentinel) {
				t.Errorf("kind %v wrongly matches sentinel of %v", c.kind, other.kind)
			}
		}
		if KindOf(err) != c.kind {
			t.Errorf("KindOf = %v, want %v", KindOf(err), c.kind)
		}
		var pe *Error
		if !errors.As(err, &pe) || pe.Path != "/a" {
			t.Errorf("errors.As lost the typed error for kind %v", c.kind)
		}
	}
	if KindOf(errors.New("plain")) != KindUnknown || KindOf(nil) != KindUnknown {
		t.Error("KindOf of non-taxonomy errors must be KindUnknown")
	}
}

func TestWrapErrClassification(t *testing.T) {
	deadline := wrapErr("query", "/a", context.DeadlineExceeded)
	if KindOf(deadline) != KindTimeout || !errors.Is(deadline, context.DeadlineExceeded) {
		t.Errorf("deadline wrap: kind=%v, Is(DeadlineExceeded)=%v", KindOf(deadline), errors.Is(deadline, context.DeadlineExceeded))
	}
	if !errors.Is(deadline, ErrTimeout) {
		t.Error("deadline wrap must match the ErrTimeout sentinel")
	}
	canceled := wrapErr("query", "/a", context.Canceled)
	if KindOf(canceled) != KindCanceled {
		t.Errorf("canceled wrap: kind=%v", KindOf(canceled))
	}
	if wrapErr("query", "/a", nil) != nil {
		t.Error("wrapErr(nil) must be nil")
	}
	// Idempotent: an already-typed error passes through.
	if inner := wrapErr("submit", "/a", deadline); inner != deadline {
		t.Error("wrapErr must not double-wrap taxonomy errors")
	}
}

func TestQueryCtxMatchesQuery(t *testing.T) {
	db := mustLoad(t, `<a><b><c/></b><b/><d><b/></d></a>`)
	for _, path := range []string{"/a/b", "/a//b", "/a/b | /a/d/b"} {
		q, err := db.Query(path)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Count()
		res, err := db.QueryCtx(context.Background(), path, QueryOptions{Sorted: true})
		if err != nil {
			t.Fatalf("QueryCtx(%q): %v", path, err)
		}
		if res.Count() != want {
			t.Errorf("QueryCtx(%q) = %d nodes, want %d", path, res.Count(), want)
		}
	}
	if _, err := db.QueryCtx(context.Background(), "b/c", QueryOptions{}); err == nil {
		t.Error("relative path must be rejected")
	}
}

func TestQueryCtxCancellation(t *testing.T) {
	db := mustLoad(t, `<a><b/><b/></a>`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryCtx(ctx, "/a/b", QueryOptions{})
	if KindOf(err) != KindCanceled {
		t.Fatalf("cancelled QueryCtx: err=%v kind=%v, want canceled", err, KindOf(err))
	}
}

func TestQueryCtxFaultsReturnTypedErrors(t *testing.T) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.1, Seed: 7, EntityScale: 0.1},
		Options{BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.QueryCtx(context.Background(), itemPath, QueryOptions{Strategy: Schedule})
	if err != nil {
		t.Fatal(err)
	}
	db.ResetStats()

	// Persistent I/O failure: typed KindIO.
	db.SetFaults(FaultConfig{Seed: 1, ReadError: 1})
	_, err = db.QueryCtx(context.Background(), itemPath, QueryOptions{Strategy: Schedule})
	if !errors.Is(err, ErrIO) {
		t.Fatalf("under ReadError=1: err=%v, want ErrIO match", err)
	}

	// Moderate transient faults: retries recover the exact answer.
	db.SetFaults(FaultConfig{Seed: 2, ReadError: 0.1, Corrupt: 0.05})
	db.ResetStats()
	res, err := db.QueryCtx(context.Background(), itemPath, QueryOptions{Strategy: Schedule})
	if err != nil {
		if KindOf(err) != KindIO && KindOf(err) != KindCorrupt {
			t.Fatalf("fault sweep err=%v kind=%v, want io/corrupt", err, KindOf(err))
		}
	} else if res.Count() != ref.Count() {
		t.Fatalf("faulty run returned %d nodes, fault-free %d", res.Count(), ref.Count())
	}

	db.SetFaults(FaultConfig{})
	db.ResetStats()
	res, err = db.QueryCtx(context.Background(), itemPath, QueryOptions{Strategy: Schedule})
	if err != nil || res.Count() != ref.Count() {
		t.Fatalf("after disarm: err=%v count=%d want %d", err, res.Count(), ref.Count())
	}

	// A union's pooled group over a persistently damaged page: the group
	// faults and re-runs its branches solo, so the union fails typed when a
	// branch needs the page, and one whose branches do not returns the
	// fault-free nodes.
	faulty := itemPath + " | /site/people/person/name"
	clean := "/site/people/person/name | /site/closed_auctions/closed_auction/price"
	pages := func(path string) (map[vdisk.PageID]bool, ExecResult) {
		db.ResetStats()
		db.store.Disk().SetTrace(true)
		defer db.store.Disk().SetTrace(false)
		res, err := db.QueryCtx(context.Background(), path, QueryOptions{Strategy: Schedule})
		if err != nil || !res.Shared {
			t.Fatalf("%s: err=%v shared=%v, want a pooled run", path, err, res.Shared)
		}
		set := map[vdisk.PageID]bool{}
		for _, ev := range db.store.Disk().Trace() {
			set[ev.Page] = true
		}
		return set, res
	}
	faultyPages, _ := pages(faulty)
	cleanPages, cleanRef := pages(clean)
	bad := vdisk.InvalidPage
	for p := range faultyPages {
		if !cleanPages[p] {
			bad = p
			break
		}
	}
	if bad == vdisk.InvalidPage {
		t.Fatal("no page separates the two unions")
	}
	db.ResetStats()
	db.store.Disk().CorruptPage(bad, 3)
	defer db.store.Disk().CorruptPage(bad, 3) // XOR damage is an involution
	if _, err := db.QueryCtx(context.Background(), faulty, QueryOptions{Strategy: Schedule}); KindOf(err) != KindCorrupt {
		t.Fatalf("union over the damaged page: err=%v kind=%v, want corrupt", err, KindOf(err))
	}
	if n := db.store.Disk().PendingAsync(); n != 0 {
		t.Fatalf("the faulted group left %d prefetches on the device", n)
	}
	db.ResetStats()
	res, err = db.QueryCtx(context.Background(), clean, QueryOptions{Strategy: Schedule})
	if err != nil || !sameSeq(resultIDs(res), resultIDs(cleanRef)) {
		t.Fatalf("union beside the damaged page: err=%v, %d nodes, want the fault-free %d", err, res.Count(), cleanRef.Count())
	}
}

const itemPath = "/site/regions//item"

func TestSessionFaultReturnsTypedError(t *testing.T) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.1, Seed: 7, EntityScale: 0.1},
		Options{BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	db.ResetStats()
	db.SetFaults(FaultConfig{Seed: 3, ReadError: 1})
	_, err = eng.NewSession().Do(context.Background(), itemPath, QueryOptions{Strategy: Schedule})
	db.SetFaults(FaultConfig{})
	if !errors.Is(err, ErrIO) {
		t.Fatalf("session query under ReadError=1: err=%v, want ErrIO", err)
	}
	var pe *Error
	if !errors.As(err, &pe) || pe.Path != itemPath || pe.Kind != KindIO {
		t.Fatalf("typed error missing op/path context: %+v", err)
	}
	if m := eng.Metrics(); m.Faulted != 1 {
		t.Fatalf("EngineMetrics.Faulted = %d, want 1", m.Faulted)
	}
}
