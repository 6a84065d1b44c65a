package storage

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pathdb/internal/stats"
	"pathdb/internal/xpath"
)

// navPrint renders everything one step on each axis reaches from c, without
// leaving c's page: the nodes' ids, kinds, tags, keys and texts.
func navPrint(c Cursor) string {
	var sb strings.Builder
	for _, axis := range []xpath.Axis{xpath.Self, xpath.Child, xpath.Descendant, xpath.Parent, xpath.Ancestor,
		xpath.FollowingSibling, xpath.PrecedingSibling, xpath.AttributeAxis} {
		it := c.st.Step(c, axis, xpath.AnyNode())
		for r, ok := it.Next(); ok; r, ok = it.Next() {
			fmt.Fprintf(&sb, "%v %v %v %v %q;", r.ID(), r.RecKind(), r.Tag(), r.OrdKey(), r.Text())
		}
		it.Release()
	}
	return sb.String()
}

// TestImageOutlivesEviction answers the pin question with data: images
// alias their buffer frame, and nothing counts references. A cursor, and
// the key and text a streamed result kept, still read identically after
// their frame was evicted, ten pool-fulls of misses went by and the
// collector ran — while another reader churns the pool — because the
// garbage collector keeps the frame reachable and the pool never reuses
// one. And once no cursor is left, a sweep of a volume ten times the pool
// leaves the heap holding the pool's frames and images, not the volume.
func TestImageOutlivesEviction(t *testing.T) {
	st := xmarkVolume(t, 2048)
	const capacity = 8
	st.SetBufferCapacity(capacity)
	n := st.NumDataPages()
	if n < 10*capacity {
		t.Fatalf("volume of %d pages is too small for a %d-page pool", n, capacity)
	}
	sweep := func(s *Store) {
		for i := 0; i < n; i++ {
			s.LoadCluster(s.DataPage(i))
		}
	}

	items := evalStepFull(st, st.Swizzle(st.Root()), xpath.Descendant, xpath.NameTest(st.Dict().Intern("item")))
	held := items[len(items)/2]
	want := navPrint(held)
	text := childCursors(held)[0].Text()
	key := held.OrdKey()
	wantText, wantKey := strings.Clone(text), string(key)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // another reader, missing on its own ledger
		defer wg.Done()
		view := st.Reader(stats.NewLedger())
		for i := 0; i < 10; i++ {
			sweep(view)
		}
	}()
	for i := 0; i < 10; i++ {
		if got := navPrint(held); got != want {
			t.Errorf("navigation from a held cursor changed during eviction churn")
			break
		}
	}
	wg.Wait()
	sweep(st)
	runtime.GC()
	runtime.GC()
	if e := st.cache.entries[swizKey{page: held.page}]; e != nil && &e.img == held.img {
		t.Fatal("the held cursor's image is still the cached one; it was never evicted")
	}
	if got := navPrint(held); got != want {
		t.Fatalf("navigation from a cursor on an evicted image changed:\n got %s\nwant %s", got, want)
	}
	if text != wantText || string(key) != wantKey {
		t.Fatalf("a kept text or key changed after eviction: %q %x, want %q %x", text, key, wantText, wantKey)
	}

	// No live cursor: the heap after a sweep is bounded by the pool.
	held, items = Cursor{}, nil
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	st.ResetForRun()
	h0 := heap()
	sweep(st)
	h1 := heap()
	sweep(st)
	h2 := heap()
	ps := int64(st.disk.PageSize())
	if grew, bound := h1-h0, 2*capacity*ps+64<<10; grew > bound {
		t.Errorf("a sweep of %d pages through a %d-page pool left %d bytes in use, want at most %d", n, capacity, grew, bound)
	}
	if grew := h2 - h1; grew > 16<<10 {
		t.Errorf("a second sweep grew the heap by %d bytes: images outlive their frames", grew)
	}
}
