package buffer

import (
	"sync"
	"testing"

	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
)

func newConcurrentPool(t *testing.T, pages, capacity int) *Manager {
	t.Helper()
	d := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), 32)
	buf := make([]byte, 32)
	for i := 0; i < pages; i++ {
		p := d.Alloc()
		buf[0] = byte(i)
		d.Write(p, buf)
	}
	d.Ledger().Reset()
	d.ResetClockState()
	return New(d, capacity)
}

// TestConcurrentFixUnfix drives the pool from many goroutines with a
// capacity small enough to force constant eviction pressure. Assertions
// are structural (right data, pins balanced); -race validates the locking.
func TestConcurrentFixUnfix(t *testing.T) {
	const pages = 48
	m := newConcurrentPool(t, pages, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := vdisk.PageID((w*13 + i*7) % pages)
				f := fix(m, p)
				if f.Page != p {
					t.Errorf("Fix(%d) returned frame for page %d", p, f.Page)
					m.Unfix(f)
					return
				}
				if f.Data[0] != byte(p) {
					t.Errorf("page %d holds data %d", p, f.Data[0])
					m.Unfix(f)
					return
				}
				m.Unfix(f)
			}
		}(w)
	}
	wg.Wait()

	if m.Len() > m.Capacity() {
		t.Fatalf("pool over capacity after quiesce: len=%d cap=%d", m.Len(), m.Capacity())
	}
	// Every pin must have been released.
	if _, err := func() (r any, err any) {
		defer func() { err = recover() }()
		m.FlushAll() // panics if anything is still pinned
		return nil, nil
	}(); err != nil {
		t.Fatalf("pins leaked: %v", err)
	}
	led := m.Disk().Ledger()
	if led.BufferHits+led.BufferMisses != 8*200 {
		t.Fatalf("probe accounting: hits=%d misses=%d want sum %d",
			led.BufferHits, led.BufferMisses, 8*200)
	}
}

// TestConcurrentHitsShareOneLoad: when many goroutines fix the same page,
// exactly one disk read must happen; everyone else hits the loaded frame
// and sees complete data.
func TestConcurrentHitsShareOneLoad(t *testing.T) {
	m := newConcurrentPool(t, 4, 4)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := fix(m, 2)
			if f.Data[0] != 2 {
				t.Errorf("incomplete frame observed: %d", f.Data[0])
			}
			m.Unfix(f)
		}()
	}
	wg.Wait()
	led := m.Disk().Ledger()
	if led.PageReads != 1 {
		t.Fatalf("PageReads = %d, want 1 (one load shared by all)", led.PageReads)
	}
	if led.BufferMisses != 1 || led.BufferHits != 15 {
		t.Fatalf("hits=%d misses=%d, want 15/1", led.BufferHits, led.BufferMisses)
	}
}

func TestCancelRequests(t *testing.T) {
	m := newConcurrentPool(t, 8, 8)
	w := m.NewWaiter(nil)
	w.Request(1)
	w.Request(3)
	m.Unfix(fix(m, 5)) // cache page 5
	w.Request(5)       // ready immediately
	if w.Outstanding() != 3 {
		t.Fatalf("outstanding = %d, want 3", w.Outstanding())
	}
	w.Cancel()
	if w.Outstanding() != 0 {
		t.Fatal("Cancel left requests")
	}
	if p, ok, _ := w.WaitLoaded(); ok {
		t.Fatalf("cancelled request delivered page %d", p)
	}
	// The pool keeps working normally afterwards.
	w.Request(3)
	p, ok, _ := w.WaitLoaded()
	if !ok || p != 3 {
		t.Fatalf("post-cancel request: got %v,%v", p, ok)
	}
}
