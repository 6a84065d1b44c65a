package ordpath

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pathdb/internal/rng"
)

func TestRootAndChild(t *testing.T) {
	r := Root()
	if len(r) != 0 || r.Level() != 0 {
		t.Fatal("root key not empty")
	}
	c := r.Child(2)
	if c.Level() != 1 || c.Components()[0] != 2 {
		t.Fatalf("child = %v", c.Components())
	}
}

func TestBulkChildOrdinals(t *testing.T) {
	r := Root()
	for i := 0; i < 5; i++ {
		k := r.BulkChild(i)
		if got := k.Components()[0]; got != uint64(i+1)*2 {
			t.Fatalf("BulkChild(%d) ordinal = %d", i, got)
		}
	}
}

func TestComponentsRoundTrip(t *testing.T) {
	cases := [][]uint64{
		{},
		{2},
		{2, 4, 6},
		{0, 1, 127, 128, 300, 1 << 20, 1 << 40},
	}
	for _, comps := range cases {
		k := FromComponents(comps...)
		got := k.Components()
		if len(got) != len(comps) {
			t.Fatalf("round trip of %v = %v", comps, got)
		}
		for i := range comps {
			if got[i] != comps[i] {
				t.Fatalf("round trip of %v = %v", comps, got)
			}
		}
	}
}

func TestCompareDocumentOrder(t *testing.T) {
	// Document order: ancestor before descendant, siblings by ordinal.
	ordered := []Key{
		FromComponents(2),
		FromComponents(2, 2),
		FromComponents(2, 2, 2),
		FromComponents(2, 2, 4),
		FromComponents(2, 4),
		FromComponents(4),
		FromComponents(4, 2),
	}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Fatalf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestIsAncestorOf(t *testing.T) {
	a := FromComponents(2, 4)
	d := FromComponents(2, 4, 6)
	if !a.IsAncestorOf(d) {
		t.Fatal("direct ancestor not detected")
	}
	if !Root().IsAncestorOf(a) {
		t.Fatal("root not ancestor")
	}
	if a.IsAncestorOf(a) {
		t.Fatal("self is not a proper ancestor")
	}
	if d.IsAncestorOf(a) {
		t.Fatal("descendant claimed as ancestor")
	}
	if FromComponents(2, 5).IsAncestorOf(FromComponents(2, 50)) {
		t.Fatal("sibling-prefix confusion (2.5 vs 2.50)")
	}
	// Multi-byte component boundary: 300 encodes to two bytes.
	big := FromComponents(300)
	if FromComponents(44).IsAncestorOf(big) {
		t.Fatal("byte-prefix of a multi-byte component misdetected")
	}
	if !big.IsAncestorOf(FromComponents(300, 2)) {
		t.Fatal("multi-byte ancestor missed")
	}
}

func TestBetweenSimpleGap(t *testing.T) {
	a, b := FromComponents(2), FromComponents(6)
	m := Between(a, b)
	if Compare(a, m) >= 0 || Compare(m, b) >= 0 {
		t.Fatalf("Between(%v,%v) = %v not strictly between", a, b, m)
	}
}

func TestBetweenAdjacent(t *testing.T) {
	a, b := FromComponents(2), FromComponents(4)
	m := Between(a, b)
	if Compare(a, m) >= 0 || Compare(m, b) >= 0 {
		t.Fatalf("Between adjacent = %v", m)
	}
	if a.IsAncestorOf(m) || m.Level() != 1 {
		t.Fatalf("Between adjacent = %v: not a sibling of %v", m, a)
	}
}

// TestBetweenSecondInsertStaysOutOfLeftSubtree pins the case that broke
// document order under LEB128 keys with no carets: Between(1.2, 1.4) was 1.3,
// and Between(1.2, 1.3) then 1.2.2 — the left sibling's first child.
func TestBetweenSecondInsertStaysOutOfLeftSubtree(t *testing.T) {
	a, b := FromComponents(1, 2), FromComponents(1, 4)
	m1 := Between(a, b)
	m2 := Between(a, m1)
	for _, m := range []Key{m1, m2} {
		if a.IsAncestorOf(m) || Compare(m, a.BulkChild(0)) == 0 {
			t.Fatalf("Between put %v in the subtree of %v", m, a)
		}
		if m.Level() != a.Level() {
			t.Fatalf("Between(%v, …) = %v at level %d, want %d", a, m, m.Level(), a.Level())
		}
	}
	if !(Compare(a, m2) < 0 && Compare(m2, m1) < 0 && Compare(m1, b) < 0) {
		t.Fatalf("%v < %v < %v < %v violated", a, m2, m1, b)
	}
	// A key ending in a caret is no node's: nothing fits between a node and
	// the caret that follows it.
	defer func() {
		if recover() == nil {
			t.Fatal("Between(1.2, 1.3) returned a key")
		}
	}()
	Between(a, FromComponents(1, 3))
}

// TestBetweenRepeatedInsertsKeepOrder inserts 200 siblings into one gap,
// alternating insert-after the left neighbour and insert-before the right
// one, and every fourth time a new first child of the parent. Siblings stay
// strictly ordered, none is another's ancestor, every key's Level is its
// depth, and each sibling's subtree stays between it and the next sibling.
func TestBetweenRepeatedInsertsKeepOrder(t *testing.T) {
	parent := FromComponents(2, 4)
	kids := []Key{parent.BulkChild(0), parent.BulkChild(1), parent.BulkChild(2)}
	left, right := kids[0], kids[1]
	insert := func(m Key) {
		i, _ := slices.BinarySearchFunc(kids, m, Compare)
		kids = slices.Insert(kids, i, m)
	}
	pos := func(k Key) int {
		i, found := slices.BinarySearchFunc(kids, k, Compare)
		if !found {
			t.Fatalf("%v not among the children", k)
		}
		return i
	}
	for i := 0; i < 200; i++ {
		var m Key
		switch {
		case i%4 == 3:
			m = Between(parent, kids[0])
		case i%2 == 0:
			m = Between(left, kids[pos(left)+1])
		default:
			m = Between(kids[pos(right)-1], right)
		}
		insert(m)
		if m.Level() != 3 || !parent.IsAncestorOf(m) {
			t.Fatalf("insert %d: %v is not a child of %v (level %d)", i, m, parent, m.Level())
		}
	}
	for i := range kids {
		if i > 0 && Compare(kids[i-1], kids[i]) >= 0 {
			t.Fatalf("children %d and %d out of order: %v, %v", i-1, i, kids[i-1], kids[i])
		}
		for j := range kids {
			if i != j && kids[i].IsAncestorOf(kids[j]) {
				t.Fatalf("sibling %v is an ancestor of sibling %v", kids[i], kids[j])
			}
		}
		child := kids[i].BulkChild(0)
		if i+1 < len(kids) && Compare(child, kids[i+1]) >= 0 {
			t.Fatalf("child %v of %v does not precede the next sibling %v", child, kids[i], kids[i+1])
		}
		if first := Between(kids[i], child); first.Level() != 4 || !kids[i].IsAncestorOf(first) {
			t.Fatalf("first child %v of %v", first, kids[i])
		}
	}
}

func TestBetweenAncestorChild(t *testing.T) {
	a, b := FromComponents(2), FromComponents(2, 2)
	m := Between(a, b)
	if Compare(a, m) >= 0 || Compare(m, b) >= 0 {
		t.Fatalf("Between(%v,%v) = %v", a, b, m)
	}
}

func TestBetweenRequiresOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Between(FromComponents(4), FromComponents(2))
}

func TestBetweenRepeatedInsertions(t *testing.T) {
	// Insert 200 keys always between the first two; order must stay strict
	// and no relabeling is ever needed.
	lo, hi := FromComponents(2), FromComponents(4)
	keys := []Key{lo, hi}
	for i := 0; i < 200; i++ {
		m := Between(keys[0], keys[1])
		if Compare(keys[0], m) >= 0 || Compare(m, keys[1]) >= 0 {
			t.Fatalf("insertion %d broke order: %v", i, m)
		}
		// Insert at position 1.
		keys = append(keys[:1], append([]Key{m}, keys[1:]...)...)
	}
	for i := 1; i < len(keys); i++ {
		if Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("sequence out of order at %d", i)
		}
	}
}

func TestBetweenPropertyRandomPairs(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		mk := func() Key {
			depth := r.IntRange(1, 5)
			k := Root()
			for i := 0; i < depth; i++ {
				k = k.BulkChild(r.Intn(20))
			}
			return k
		}
		a, b := mk(), mk()
		switch Compare(a, b) {
		case 0:
			return true
		case 1:
			a, b = b, a
		}
		m := Between(a, b)
		return Compare(a, m) < 0 && Compare(m, b) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBetweenChainDeepens(t *testing.T) {
	// Keep inserting between a fixed left neighbour and the last insert.
	a := FromComponents(2)
	b := FromComponents(2, 2)
	for i := 0; i < 64; i++ {
		m := Between(a, b)
		if Compare(a, m) >= 0 || Compare(m, b) >= 0 {
			t.Fatalf("iteration %d: %v not between %v and %v", i, m, a, b)
		}
		b = m
	}
}

func TestSortUsesCompare(t *testing.T) {
	r := rng.New(99)
	var keys []Key
	for i := 0; i < 100; i++ {
		depth := r.IntRange(1, 4)
		k := Root()
		for j := 0; j < depth; j++ {
			k = k.BulkChild(r.Intn(10))
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return Compare(keys[i], keys[j]) < 0 })
	for i := 1; i < len(keys); i++ {
		if Compare(keys[i-1], keys[i]) > 0 {
			t.Fatal("sorted sequence violates Compare")
		}
	}
}

func TestString(t *testing.T) {
	if got := FromComponents(2, 4, 6).String(); got != "2.4.6" {
		t.Fatalf("String = %q", got)
	}
	if got := Root().String(); got != "" {
		t.Fatalf("root String = %q", got)
	}
}

func TestLargeComponents(t *testing.T) {
	k := FromComponents(1 << 62)
	if k.Components()[0] != 1<<62 {
		t.Fatal("large component mangled")
	}
	if Compare(FromComponents(1<<62), FromComponents(1<<62+1)) != -1 {
		t.Fatal("large comparison wrong")
	}
}

func TestLevelMatchesDepth(t *testing.T) {
	k := Root()
	for i := 1; i <= 10; i++ {
		k = k.BulkChild(3)
		if k.Level() != i {
			t.Fatalf("level = %d, want %d", k.Level(), i)
		}
	}
}

func TestAfter(t *testing.T) {
	k := FromComponents(2, 4)
	a := After(k)
	if Compare(k, a) >= 0 {
		t.Fatal("After not greater")
	}
	// After(k) must also follow every descendant of k.
	if Compare(k.Child(1000), a) >= 0 {
		t.Fatal("After not greater than descendants")
	}
	// But still precede k's parent's next sibling.
	if Compare(a, FromComponents(4)) >= 0 {
		t.Fatal("After escaped the parent's range")
	}
}

func TestAfterOfRootPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	After(Root())
}

// refCompare is the reference document order: component-wise numeric
// comparison, a proper prefix (the ancestor) first — what Compare computed
// when it decoded LEB128 keys a component at a time.
func refCompare(a, b []uint64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) > len(b):
		return 1
	case len(a) < len(b):
		return -1
	}
	return 0
}

// levels groups components into levels: carets (odd) and the even one that
// ends them. A trailing run of carets is left out.
func levels(comps []uint64) [][]uint64 {
	var out [][]uint64
	start := 0
	for i, c := range comps {
		if c%2 == 0 {
			out = append(out, comps[start:i+1])
			start = i + 1
		}
	}
	return out
}

// nodeKey makes comps a key some node could carry: no 0 component (nothing
// generated precedes a first child) and an even last one.
func nodeKey(comps []uint64) []uint64 {
	out := slices.Clone(comps)
	if n := len(out); n > 0 {
		out[n-1] &^= 1
	}
	for i, c := range out {
		if c == 0 {
			out[i] = 2
		}
	}
	return out
}

// fuzzComponents reads up to 16 LEB128 values from b.
func fuzzComponents(b []byte) []uint64 {
	var out []uint64
	for len(b) > 0 && len(out) < 16 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out, b = append(out, v), b[n:]
	}
	return out
}

// FuzzKeyOrder checks the encoding against the reference order on two
// component lists, carets and values up to math.MaxUint64 included: byte
// order is component order, IsAncestorOf is a prefix test on levels, Level
// counts levels, components round-trip, no code is longer than its LEB128
// form and LEB128Len sums those forms, Valid accepts every key and rejects every cut inside a component,
// and Between of two node keys lies strictly between them, outside the left
// one's subtree unless that one is the right one's ancestor.
func FuzzKeyOrder(f *testing.F) {
	le := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	f.Add(le(1, 2), le(1, 3))
	f.Add(le(2, 4, 6), le(2, 4, 6, 3, 64))
	f.Add(le(2, 127, 128), le(2, 16383, 16384, 16511, 16512))
	f.Add(le(math.MaxUint64-1), le(math.MaxUint64, 2))
	f.Add(le(2, 3, 64), le(2, 3, 66, 4))
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		ca, cb := fuzzComponents(ab), fuzzComponents(bb)
		a, b := FromComponents(ca...), FromComponents(cb...)
		if got, want := bytes.Compare(a, b), refCompare(ca, cb); got != want {
			t.Fatalf("%v vs %v: bytes.Compare %d, reference %d", ca, cb, got, want)
		}
		for _, c := range [][]uint64{ca, cb} {
			k := FromComponents(c...)
			if got := k.Components(); !slices.Equal(got, c) {
				t.Fatalf("round trip of %v = %v", c, got)
			}
			if got, want := k.Level(), len(levels(c)); got != want {
				t.Fatalf("Level(%v) = %d, want %d", c, got, want)
			}
			if !k.Valid() {
				t.Fatalf("Valid rejects %v", c)
			}
			end, lebs := 0, 0
			for _, v := range c {
				n, leb := len(FromComponents(v)), len(binary.AppendUvarint(nil, v))
				if n > leb || v < 16384 && n != leb {
					t.Fatalf("%d takes %d bytes, %d in LEB128", v, n, leb)
				}
				for cut := end + 1; cut < end+n; cut++ {
					if k[:cut].Valid() {
						t.Fatalf("Valid accepts %v cut to %d bytes", c, cut)
					}
				}
				end, lebs = end+n, lebs+leb
			}
			if got := k.LEB128Len(); got != lebs {
				t.Fatalf("LEB128Len(%v) = %d, want %d", c, got, lebs)
			}
		}

		na, nb := nodeKey(ca), nodeKey(cb)
		ka, kb := FromComponents(na...), FromComponents(nb...)
		la, lb := levels(na), levels(nb)
		prefix := len(la) < len(lb) && slices.EqualFunc(la, lb[:len(la)], slices.Equal[[]uint64])
		if got := ka.IsAncestorOf(kb); got != prefix {
			t.Fatalf("IsAncestorOf(%v, %v) = %v, level prefix %v", na, nb, got, prefix)
		}
		if Compare(ka, kb) > 0 {
			ka, kb = kb, ka
		}
		if Compare(ka, kb) == 0 {
			return
		}
		m := Between(ka, kb)
		if Compare(ka, m) >= 0 || Compare(m, kb) >= 0 {
			t.Fatalf("Between(%v, %v) = %v, not strictly between", ka, kb, m)
		}
		if m.Level() == 0 || m[len(m)-1]&1 != 0 {
			t.Fatalf("Between(%v, %v) = %v does not end on a level", ka, kb, m)
		}
		if ka.IsAncestorOf(m) != ka.IsAncestorOf(kb) {
			t.Fatalf("Between(%v, %v) = %v: in the left key's subtree", ka, kb, m)
		}
	})
}
