package buffer

import (
	"testing"
	"testing/quick"

	"pathdb/internal/rng"
	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
)

func newPool(t testing.TB, npages, capacity int) (*Manager, *stats.Ledger) {
	led := stats.NewLedger()
	d := vdisk.New(vdisk.DefaultCostModel(), led, 256)
	for i := 0; i < npages; i++ {
		p := d.Alloc()
		d.Write(p, []byte{byte(i), byte(i >> 8)})
	}
	led.Reset()
	d.ResetClockState()
	return New(d, capacity), led
}

func TestFixReadsCorrectPage(t *testing.T) {
	m, _ := newPool(t, 10, 4)
	for i := 9; i >= 0; i-- {
		f := fix(m, vdisk.PageID(i))
		if f.Data[0] != byte(i) {
			t.Fatalf("page %d data = %d", i, f.Data[0])
		}
		m.Unfix(f)
	}
}

func TestHitAvoidsDisk(t *testing.T) {
	m, led := newPool(t, 10, 4)
	f := fix(m, 3)
	m.Unfix(f)
	reads := led.PageReads
	f = fix(m, 3)
	m.Unfix(f)
	if led.PageReads != reads {
		t.Fatal("hit caused a disk read")
	}
	if led.BufferHits != 1 || led.BufferMisses != 1 {
		t.Fatalf("hits=%d misses=%d", led.BufferHits, led.BufferMisses)
	}
}

func TestLRUEviction(t *testing.T) {
	m, led := newPool(t, 10, 2)
	for i := 0; i < 3; i++ {
		m.Unfix(fix(m, vdisk.PageID(i)))
	}
	// Page 0 is LRU and must be gone; 1 and 2 remain.
	if m.Contains(0) {
		t.Fatal("LRU page not evicted")
	}
	if !m.Contains(1) || !m.Contains(2) {
		t.Fatal("wrong page evicted")
	}
	if led.Evictions != 1 {
		t.Fatalf("evictions = %d", led.Evictions)
	}
}

func TestTouchRefreshesLRU(t *testing.T) {
	m, _ := newPool(t, 10, 2)
	m.Unfix(fix(m, 0))
	m.Unfix(fix(m, 1))
	m.Unfix(fix(m, 0)) // 0 becomes MRU
	m.Unfix(fix(m, 2)) // evicts 1
	if !m.Contains(0) || m.Contains(1) {
		t.Fatal("LRU order not refreshed by hit")
	}
}

func TestPinnedPagesSurviveEviction(t *testing.T) {
	m, _ := newPool(t, 10, 2)
	f0 := fix(m, 0)
	f1 := fix(m, 1)
	m.Unfix(fix(m, 2)) // all frames pinned: must overflow, not evict
	if !m.Contains(0) || !m.Contains(1) {
		t.Fatal("pinned page evicted")
	}
	if m.Overflow() == 0 {
		t.Fatal("overflow not recorded")
	}
	m.Unfix(f0)
	m.Unfix(f1)
}

func TestUnfixUnpinnedPanics(t *testing.T) {
	m, _ := newPool(t, 2, 2)
	f := fix(m, 0)
	m.Unfix(f)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Unfix(f)
}

func TestRequestWaitLoaded(t *testing.T) {
	m, led := newPool(t, 20, 8)
	w := m.NewWaiter(nil)
	w.Request(5)
	w.Request(15)
	got := map[vdisk.PageID]bool{}
	for i := 0; i < 2; i++ {
		p, ok, _ := w.WaitLoaded()
		if !ok {
			t.Fatal("WaitLoaded failed")
		}
		got[p] = true
		if !m.Contains(p) {
			t.Fatal("loaded page not in pool")
		}
	}
	if !got[5] || !got[15] {
		t.Fatalf("got %v", got)
	}
	if _, ok, _ := w.WaitLoaded(); ok {
		t.Fatal("WaitLoaded returned a third page")
	}
	if led.AsyncSubmitted != 2 {
		t.Fatalf("async submitted = %d", led.AsyncSubmitted)
	}
}

func TestRequestCachedIsImmediatelyReady(t *testing.T) {
	m, led := newPool(t, 10, 4)
	w := m.NewWaiter(nil)
	m.Unfix(fix(m, 7))
	reads := led.PageReads
	w.Request(7)
	p, ok, _ := w.WaitLoaded()
	if !ok || p != 7 {
		t.Fatalf("WaitLoaded = %d, %v", p, ok)
	}
	if led.PageReads != reads {
		t.Fatal("cached request hit the disk")
	}
}

func TestRequestDeduplicated(t *testing.T) {
	m, led := newPool(t, 10, 4)
	w := m.NewWaiter(nil)
	w.Request(3)
	w.Request(3)
	if led.AsyncSubmitted != 1 {
		t.Fatalf("duplicate request submitted: %d", led.AsyncSubmitted)
	}
	if p, ok, _ := w.WaitLoaded(); !ok || p != 3 {
		t.Fatalf("WaitLoaded = %d %v", p, ok)
	}
	if _, ok, _ := w.WaitLoaded(); ok {
		t.Fatal("dedup delivered twice")
	}
}

func TestSyncReadSupersedesPending(t *testing.T) {
	m, _ := newPool(t, 10, 4)
	w := m.NewWaiter(nil)
	w.Request(3)
	m.Unfix(fix(m, 3)) // sync read wins the race
	// The async completion may still surface, but must terminate cleanly.
	for {
		_, ok, _ := w.WaitLoaded()
		if !ok {
			break
		}
	}
	if w.Outstanding() != 0 {
		t.Fatal("requests left outstanding")
	}
}

func TestWaitLoadedEmpty(t *testing.T) {
	m, _ := newPool(t, 5, 2)
	w := m.NewWaiter(nil)
	if _, ok, _ := w.WaitLoaded(); ok {
		t.Fatal("WaitLoaded on empty queue succeeded")
	}
}

func TestFlushAll(t *testing.T) {
	m, _ := newPool(t, 10, 4)
	m.Unfix(fix(m, 1))
	m.Unfix(fix(m, 2))
	m.FlushAll()
	if m.Len() != 0 || m.Contains(1) {
		t.Fatal("FlushAll incomplete")
	}
}

func TestFlushAllPinnedPanics(t *testing.T) {
	m, _ := newPool(t, 10, 4)
	fix(m, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.FlushAll()
}

func TestCapacityNeverExceededWhenUnpinned(t *testing.T) {
	f := func(seed uint64) bool {
		m, _ := newPool(t, 64, 8)
		r := rng.New(seed)
		for i := 0; i < 200; i++ {
			fr := fix(m, vdisk.PageID(r.Intn(64)))
			m.Unfix(fr)
			if m.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDataIntegrityUnderChurn(t *testing.T) {
	f := func(seed uint64) bool {
		m, _ := newPool(t, 32, 4)
		r := rng.New(seed)
		for i := 0; i < 300; i++ {
			p := vdisk.PageID(r.Intn(32))
			fr := fix(m, p)
			if fr.Data[0] != byte(p) || fr.Data[1] != byte(p>>8) {
				return false
			}
			m.Unfix(fr)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncRequestsOverlapWithCPU(t *testing.T) {
	m, led := newPool(t, 100, 50)
	w := m.NewWaiter(nil)
	for i := 0; i < 10; i++ {
		w.Request(vdisk.PageID(i * 7))
	}
	led.AdvanceCPU(stats.Ticks(10) * 100 * stats.Millisecond)
	waitBefore := led.IOWait
	for {
		if _, ok, _ := w.WaitLoaded(); !ok {
			break
		}
	}
	if led.IOWait != waitBefore {
		t.Fatalf("fully overlapped async work charged %v wait", led.IOWait-waitBefore)
	}
}

func BenchmarkFixHit(b *testing.B) {
	m, _ := newPool(b, 4, 4)
	m.Unfix(fix(m, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Unfix(fix(m, 0))
	}
}

func TestEvictHandlerFires(t *testing.T) {
	m, _ := newPool(t, 10, 2)
	var evicted []vdisk.PageID
	m.SetEvictHandler(func(p vdisk.PageID) { evicted = append(evicted, p) })
	for i := 0; i < 3; i++ {
		m.Unfix(fix(m, vdisk.PageID(i)))
	}
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evicted = %v, want [0]", evicted)
	}
	m.FlushAll()
	if len(evicted) != 3 {
		t.Fatalf("FlushAll notified %d evictions, want 3 total", len(evicted))
	}
}

func TestDiscardDropsFrame(t *testing.T) {
	m, led := newPool(t, 10, 4)
	m.Unfix(fix(m, 3))
	if !m.Discard(3) || m.Contains(3) {
		t.Fatal("page survived discard")
	}
	if !m.Discard(3) {
		t.Fatal("discard of an absent page reported a pin")
	}
	reads := led.PageReads
	m.Unfix(fix(m, 3))
	if led.PageReads != reads+1 {
		t.Fatal("discarded page served from cache")
	}
}

func TestDiscardPinnedRefused(t *testing.T) {
	m, _ := newPool(t, 10, 4)
	f := fix(m, 2)
	if m.Discard(2) || !m.Contains(2) {
		t.Fatal("discard dropped a pinned frame")
	}
	m.Unfix(f)
	if !m.Discard(2) {
		t.Fatal("discard refused an unpinned frame")
	}
}

// fix is the test shorthand for a Fix that must succeed.
func fix(m *Manager, p vdisk.PageID) *Frame {
	f, err := m.Fix(p)
	if err != nil {
		panic(err)
	}
	return f
}
