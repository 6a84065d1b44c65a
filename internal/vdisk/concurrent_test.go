package vdisk

import (
	"sync"
	"testing"

	"pathdb/internal/stats"
)

func newTestDisk(t *testing.T, pages int) *Disk {
	t.Helper()
	d := New(DefaultCostModel(), stats.NewLedger(), 64)
	buf := make([]byte, 64)
	for i := 0; i < pages; i++ {
		p := d.Alloc()
		buf[0] = byte(i)
		d.Write(p, buf)
	}
	d.Ledger().Reset()
	d.ResetClockState()
	return d
}

// TestConcurrentDiskAccess exercises the device mutex from many goroutines,
// each billing its own ledger through the *On entry points the buffer pool
// uses. The interleaving is nondeterministic; the assertions are structural
// (deliveries complete, data intact, counters add up) and -race does the
// rest.
func TestConcurrentDiskAccess(t *testing.T) {
	d := newTestDisk(t, 64)
	const workers, rounds = 8, 50
	leds := make([]*stats.Ledger, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		leds[w] = stats.NewLedger()
		wg.Add(1)
		go func(w int, led *stats.Ledger) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				p := PageID((w*7 + i) % 64)
				if err := d.ReadSyncOn(led, p, buf); err != nil || buf[0] != byte(p) {
					t.Errorf("worker %d: sync read of page %d: data %d, err %v", w, p, buf[0], err)
					return
				}
				q := PageID((w*11 + i*3) % 64)
				d.SubmitOn(led, q)
				got, ok, err := d.WaitMatchOn(led, func(x PageID) bool { return x == q }, buf)
				if !ok || err != nil || got != q {
					t.Errorf("worker %d: waited for page %d, got %d (ok %v, err %v)", w, q, got, ok, err)
					return
				}
				if buf[0] != byte(q) {
					t.Errorf("worker %d: page %d carried data %d", w, q, buf[0])
					return
				}
			}
		}(w, leds[w])
	}
	wg.Wait()
	if n := d.PendingAsync(); n != 0 {
		t.Fatalf("%d requests left pending", n)
	}
	var reads, submitted, completed int64
	for _, led := range leds {
		reads += led.PageReads
		submitted += led.AsyncSubmitted
		completed += led.AsyncCompleted
	}
	if want := int64(2 * workers * rounds); reads != want {
		t.Errorf("page reads across ledgers = %d, want %d", reads, want)
	}
	if want := int64(workers * rounds); submitted != want || completed != want {
		t.Errorf("async submitted %d completed %d, want %d each", submitted, completed, want)
	}
	if root := d.Ledger(); root.PageReads != 0 {
		t.Errorf("root ledger charged %d page reads, want 0", root.PageReads)
	}
}
