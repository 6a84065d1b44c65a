package storage

import (
	"fmt"
	"slices"
	"testing"

	"pathdb/internal/ordpath"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
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

// TestDerivedCacheRoom pins the room probe the predicate rule asks before
// it picks the join: a generation has room at its epoch and at a later one
// it will advance to, none for a superseded epoch, and room for n keys only
// while n more fit under the bound (a full one still replaces resident
// keys); a dropped (reset) generation has room again.
func TestDerivedCacheRoom(t *testing.T) {
	c := newDerivedCache()
	c.Put(3, "a", 1)
	if !c.Room(3, 2) || !c.Room(4, 2) {
		t.Fatal("a generation with one entry has no room for two more")
	}
	if c.Room(2, 0) {
		t.Fatal("a superseded epoch was granted room")
	}
	for i := 0; len(c.m) < maxDerivedEntries-1; i++ {
		c.Put(3, fmt.Sprintf("k%d", i), i)
	}
	if c.Room(3, 2) || !c.Room(3, 1) {
		t.Fatalf("%d of %d entries: want room for exactly one more", len(c.m), maxDerivedEntries)
	}
	c.Put(3, "full", 0)
	if c.Room(3, 1) || !c.Room(3, 0) {
		t.Fatal("a full generation: want room for its resident keys only")
	}
	c.Put(3, "b", 1) // refused: the generation is full
	if _, ok := c.Get(3, "b"); ok {
		t.Fatal("a full generation admitted a new key")
	}
	c.Put(3, "full", 7) // a resident key is replaced even then
	if v, _ := c.Get(3, "full"); v.(int) != 7 {
		t.Fatalf("resident key not replaced in a full generation: %v", v)
	}
	c.reset()
	if !c.Room(3, 2) {
		t.Fatal("no room after reset")
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
		t.Fatal("a write transaction's view must not use the derived cache: it can neither read nor admit")
	}
}

// TestUntouchedLevelAdvanceAllocatesNothing: a commit that wrote no page
// holding a level's entries, and put no fragment under an entry whose string
// value the level carries, leaves the level as it is — advance returns the
// same *Level, unmoved, without allocating, and so does AdvanceLevels.
func TestUntouchedLevelAdvanceAllocatesNothing(t *testing.T) {
	dict := xmltree.NewDictionary()
	doc, top := xmltree.NewDocument(), xmltree.NewElement(dict.Intern("a"))
	doc.AppendChild(top)
	for i, name := range []string{"b", "c", "d"} {
		for j := 0; j < 60; j++ {
			top.AppendChild(xmltree.NewElement(dict.Intern(name))).AppendChild(xmltree.NewText(fmt.Sprintf("%d.%d", i, j)))
		}
	}
	st := importDoc(t, doc, dict, 512, LayoutNatural)
	root := st.Swizzle(st.Root())
	level := func(name string, vals bool) *Level {
		test := xpath.NameTest(dict.Intern(name))
		var ords []ordpath.Key
		var ids []NodeID
		for _, c := range evalStepFull(st, root, xpath.Descendant, test) {
			ords, ids = append(ords, c.OrdKey()), append(ids, c.ID())
		}
		lv := NewLevel(test, false, ords, ids)
		if vals {
			for _, id := range ids {
				lv.Vals = st.AppendStringValue(lv.Vals, id)
				lv.Ends = append(lv.Ends, uint32(len(lv.Vals)))
			}
		}
		return lv
	}
	levels := []*Level{level("b", false), level("c", true)}
	// The parent: a d element on a page without b or c entries, under no c.
	clear := func(c Cursor) bool {
		for _, lv := range levels {
			for k, id := range lv.IDs {
				if id.Page() == c.ID().Page() || lv.Ends != nil && lv.Ords[k].IsAncestorOf(c.OrdKey()) {
					return false
				}
			}
		}
		return true
	}
	var parent NodeID
	for _, c := range evalStepFull(st, root, xpath.Descendant, xpath.NameTest(dict.Intern("d"))) {
		if clear(c) {
			parent = c.ID()
			break
		}
	}
	if parent == 0 {
		t.Fatal("no d element off the levels' pages: the fixture tests nothing")
	}
	since := st.VersionEpoch()
	if _, err := insertSubtree(st, parent, InvalidNodeID, xmltree.NewElement(dict.Intern("zz"))); err != nil {
		t.Fatal(err)
	}
	var written []vdisk.PageID
	var roots []ordpath.Key
	st.WrittenSince(since, func(p vdisk.PageID, _ uint64) {
		written = append(written, p)
		img := st.image(p)
		for q := 0; q < img.n; q++ {
			if par := img.parent(q); par == noParent || img.kind(par) == RecProxyParent {
				roots = append(roots, img.key(q))
			}
		}
		for _, lv := range levels {
			if fresh := img.levelMatches(lv, nil); len(fresh) > 0 {
				t.Fatalf("the commit wrote %d entries of level %s", len(fresh), lv.Test.Render(dict))
			}
		}
	})
	slices.Sort(written)
	slices.SortFunc(roots, ordpath.Compare)
	if len(written) == 0 {
		t.Fatal("the commit wrote no page")
	}
	m := map[string]any{}
	for _, lv := range levels {
		if got, moved := lv.advance(st, written, nil, roots); got != lv || moved {
			t.Fatalf("level %s: advanced to a new level (moved %v)", lv.Test.Render(dict), moved)
		}
		if n := testing.AllocsPerRun(50, func() { lv.advance(st, written, nil, roots) }); n != 0 {
			t.Fatalf("level %s: an untouched advance allocates %v", lv.Test.Render(dict), n)
		}
		m[lv.Test.Render(dict)] = lv
	}
	if _, pages, moved := AdvanceLevels(st, since, m); moved || pages != len(written) || m["b"] != levels[0] || m["c"] != levels[1] {
		t.Fatalf("AdvanceLevels over %d pages: moved %v, levels replaced %v", pages, moved, m["b"] != levels[0] || m["c"] != levels[1])
	}
}
