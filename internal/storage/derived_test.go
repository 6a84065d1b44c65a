package storage

import (
	"fmt"
	"testing"

	"pathdb/internal/vdisk"
)

// TestDerivedCacheGenerations pins the epoch-generation contract: entries
// are visible only at the epoch they were admitted under, a newer epoch
// replaces the generation wholesale, and a stale (older-epoch) Put is
// dropped rather than shadowing the current generation.
func TestDerivedCacheGenerations(t *testing.T) {
	c := newDerivedCache()

	c.Put(0, "a", 1)
	if v, ok := c.Get(0, "a"); !ok || v.(int) != 1 {
		t.Fatalf("epoch-0 entry lost: %v %v", v, ok)
	}
	if _, ok := c.Get(1, "a"); ok {
		t.Fatal("entry visible at a later epoch")
	}

	// A newer generation evicts everything from the old one.
	c.Put(2, "b", 2)
	if _, ok := c.Get(0, "a"); ok {
		t.Fatal("old generation survived an epoch advance")
	}
	if v, ok := c.Get(2, "b"); !ok || v.(int) != 2 {
		t.Fatalf("new generation entry lost: %v %v", v, ok)
	}

	// A query pinned to a superseded snapshot must not poison the cache.
	c.Put(1, "stale", 3)
	if _, ok := c.Get(1, "stale"); ok {
		t.Fatal("stale-epoch Put was admitted")
	}
	if v, ok := c.Get(2, "b"); !ok || v.(int) != 2 {
		t.Fatal("stale Put disturbed the current generation")
	}

	// reset drops entries but keeps the generation epoch.
	c.reset()
	if _, ok := c.Get(2, "b"); ok {
		t.Fatal("entry survived reset")
	}
	c.Put(2, "b", 4)
	if v, ok := c.Get(2, "b"); !ok || v.(int) != 4 {
		t.Fatal("cache unusable after reset")
	}
}

// TestDerivedCacheBounded checks the generation's entry cap: overflowing
// inserts are dropped, not admitted unboundedly.
func TestDerivedCacheBounded(t *testing.T) {
	c := newDerivedCache()
	for i := 0; i < maxDerivedEntries+10; i++ {
		c.Put(5, fmt.Sprintf("k%d", i), i)
	}
	n := 0
	for i := 0; i < maxDerivedEntries+10; i++ {
		if _, ok := c.Get(5, fmt.Sprintf("k%d", i)); ok {
			n++
		}
	}
	if n != maxDerivedEntries {
		t.Fatalf("generation holds %d entries, cap is %d", n, maxDerivedEntries)
	}
}

// TestDerivedCacheCredit pins the break-even accounts: they accrue per key,
// a zero share only reads, admission spends them, they survive a later
// epoch the generation can advance to and die with a generation that is
// dropped, and neither a superseded epoch nor a generation without room for
// the keys is granted anything.
func TestDerivedCacheCredit(t *testing.T) {
	c := newDerivedCache()
	ab := []string{"a", "b"}
	if got := c.Credit(3, ab, 5); got != 10 {
		t.Fatalf("first credit: sum %v, want 10", got)
	}
	if got := c.Credit(3, ab[:1], 2); got != 7 {
		t.Fatalf("second credit to one key: sum %v, want 7", got)
	}
	if got := c.Credit(3, ab, 0); got != 12 {
		t.Fatalf("read: sum %v, want 12", got)
	}
	if got := c.Credit(2, ab, 100); got != 0 {
		t.Fatalf("a superseded epoch was credited: %v", got)
	}
	c.Put(3, "a", 1)
	if got := c.Credit(3, ab, 0); got != 5 {
		t.Fatalf("after admitting a: sum %v, want b's 5", got)
	}
	// A commit: views at epoch 4 see the generation they will advance, with
	// its entries and its credits.
	if got := c.Credit(4, ab, 1); got != 7 || !c.Contains(4, "a") || c.Contains(2, "a") {
		t.Fatalf("at a later epoch: sum %v (want 7), a resident %v", got, c.Contains(4, "a"))
	}
	c.Put(4, "x", 1) // admitted at an epoch nobody advanced to: the generation goes
	if got := c.Credit(4, ab, 0); got != 0 || c.Contains(4, "a") {
		t.Fatalf("credit survived a dropped generation: %v", got)
	}
	c.Credit(4, ab, 5)
	c.reset()
	if got := c.Credit(4, ab, 0); got != 0 {
		t.Fatalf("credit survived reset: %v", got)
	}

	// A generation with no room for the keys grants nothing, so a build that
	// could not be admitted is never bought (again).
	for i := 0; len(c.m) < maxDerivedEntries-1; i++ {
		c.Put(4, fmt.Sprintf("k%d", i), i)
	}
	if got := c.Credit(4, ab, 5); got != 0 {
		t.Fatalf("two keys credited with room for one: %v", got)
	}
	if got := c.Credit(4, ab[:1], 5); got != 5 {
		t.Fatalf("one key refused with room for one: %v", got)
	}
	c.Put(4, "full", 0)
	c.Put(4, "a", 1) // refused: the generation is full
	if _, ok := c.Get(4, "a"); ok {
		t.Fatal("a full generation admitted a new key")
	}
	if got := c.Credit(4, ab[:1], 5); got != 0 {
		t.Fatalf("a refused build left credit behind: %v", got)
	}
	c.Put(4, "full", 7) // a resident key is replaced even then
	if v, _ := c.Get(4, "full"); v.(int) != 7 {
		t.Fatalf("resident key not replaced in a full generation: %v", v)
	}
}

// TestStoreDerivedViews checks the Store wiring: views share the base
// store's cache, and a write transaction's overlay view opts out.
func TestStoreDerivedViews(t *testing.T) {
	s := newStore(newDisk(4096), nil, []NodeID{0}, 1, 0, nil)
	base, epoch, ok := s.Derived()
	if !ok || base == nil {
		t.Fatal("base store has no derived cache")
	}
	view := s.Reader(s.led)
	vc, vepoch, ok := view.Derived()
	if !ok || vc != base || vepoch != epoch {
		t.Fatal("reader view does not share the base derived cache")
	}
	ov := s.Reader(s.led)
	ov.overlay = map[vdisk.PageID]*pageImage{}
	if _, _, ok := ov.Derived(); ok {
		t.Fatal("overlay view must not use the derived cache")
	}
	if _, _, ok := s.BeginWrite(nil, s.led).view.Derived(); ok {
		t.Fatal("a write transaction's view must not use the derived cache: it can neither read, admit nor be credited")
	}
}
