package ordpath

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pathdb/internal/rng"
)

// oldString is the renderer String had before AppendDotted: decode the
// components, format each, join. Kept here as the oracle only.
func oldString(k Key) string {
	comps := k.Components()
	parts := make([]string, len(comps))
	for i, c := range comps {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ".")
}

// randomKey draws a key of 0–14 components whose sizes span one to ten
// LEB128 bytes.
func randomKey(r *rng.RNG) Key {
	comps := make([]uint64, r.Intn(15))
	for i := range comps {
		comps[i] = r.Uint64() >> uint(r.Intn(64))
	}
	return FromComponents(comps...)
}

func TestStringMatchesComponentRendering(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 5000; i++ {
		k := randomKey(r)
		if got, want := k.String(), oldString(k); got != want {
			t.Fatalf("key %v: String = %q, component rendering = %q", []byte(k), got, want)
		}
	}
	// Longer than String's stack buffer.
	long := FromComponents(1<<63, 1<<63, 1<<63, 1<<63, 1<<63)
	if got, want := long.String(), oldString(long); got != want {
		t.Fatalf("long key: String = %q, want %q", got, want)
	}
}

func TestAppendDottedKeepsPrefixAndDoesNotAllocate(t *testing.T) {
	k := FromComponents(2, 4, 1<<20, 6, 2, 2, 8, 300, 2, 4, 6, 12)
	if got := string(k.AppendDotted([]byte("ord="))); got != "ord="+oldString(k) {
		t.Fatalf("AppendDotted = %q", got)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = k.AppendDotted(buf[:0]) }); n != 0 {
		t.Fatalf("AppendDotted into a pre-sized buffer: %v allocs, want 0", n)
	}
}

func TestAppendDottedCorruptKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a truncated varint")
		}
	}()
	Key{0x82}.AppendDotted(nil)
}

// SortStable must order, keep ties in input order and count comparisons
// exactly as the sort.SliceStable calls it replaced, whose count the
// operators charge to the virtual clock.
func TestSortStableMatchesSliceStable(t *testing.T) {
	type item struct {
		key Key
		seq int
	}
	r := rng.New(11)
	for _, n := range []int{0, 1, 2, 19, 20, 21, 57, 400, 3000} {
		in := make([]item, n)
		for i := range in {
			// Few distinct keys, so that ties are common.
			in[i] = item{key: Root().BulkChild(r.Intn(5)).BulkChild(r.Intn(1 + n/3)), seq: i}
		}
		want := append([]item(nil), in...)
		wantCmp := 0
		sort.SliceStable(want, func(i, j int) bool {
			wantCmp++
			return Compare(want[i].key, want[j].key) < 0
		})
		got := append([]item(nil), in...)
		gotCmp := SortStable(got, func(it *item) Key { return it.key })
		if gotCmp != wantCmp {
			t.Fatalf("n=%d: %d comparisons, sort.SliceStable makes %d", n, gotCmp, wantCmp)
		}
		for i := range got {
			if got[i].seq != want[i].seq {
				t.Fatalf("n=%d: position %d holds input %d, sort.SliceStable puts %d there",
					n, i, got[i].seq, want[i].seq)
			}
		}
	}
}

var sinkString string

// BenchmarkKeyString renders a 12-component key, the depth of an XMark
// keyword under a nested parlist: String (one allocation, the result) and
// AppendDotted into a reused buffer (none).
func BenchmarkKeyString(b *testing.B) {
	k := FromComponents(2, 4, 1<<20, 6, 2, 2, 8, 300, 2, 4, 6, 12)
	b.Run("String", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkString = k.String()
		}
	})
	b.Run("AppendDotted", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 64)
		for i := 0; i < b.N; i++ {
			buf = k.AppendDotted(buf[:0])
		}
		sinkString = string(buf)
	})
}
