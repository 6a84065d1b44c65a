// Package ordpath implements insert-friendly document-order keys in the
// spirit of ORDPATH labels (O'Neil et al., SIGMOD 2004), which the paper
// assumes for re-establishing document order after its operators have
// processed nodes in physical order (Sec. 5.5).
//
// A Key is a sequence of unsigned components, one per tree level, encoded
// as LEB128 varints. Initial bulk-load assigns even ordinals (2, 4, 6, …)
// to siblings, leaving odd ordinals and component extension free for later
// insertions without relabeling — the property that makes these keys
// update-friendly where plain preorder numbers are not (the criticism of
// Sec. 2 against scan-order formats).
package ordpath

import (
	"sort"
	"strconv"
)

// Key is an encoded document-order label. The root element's key is the
// single component [2]; the virtual document node has the empty key. Keys
// compare in document order via Compare.
type Key []byte

// Root returns the key of the virtual document root (empty).
func Root() Key { return Key{} }

// FromComponents builds a key from explicit components.
func FromComponents(comps ...uint64) Key {
	var k Key
	for _, c := range comps {
		k = appendUvarint(k, c)
	}
	return k
}

// Child returns the key of a child of k with the given ordinal.
func (k Key) Child(ordinal uint64) Key {
	out := make(Key, len(k), len(k)+2)
	copy(out, k)
	return appendUvarint(out, ordinal)
}

// BulkChild returns the key for the i-th (0-based) child during initial
// load, using even ordinals so gaps remain for future insertions.
func (k Key) BulkChild(i int) Key {
	return k.Child(uint64(i+1) * 2)
}

// Components decodes the key into its component list.
func (k Key) Components() []uint64 {
	var out []uint64
	for i := 0; i < len(k); {
		v, n := uvarint(k[i:])
		if n <= 0 {
			panic("ordpath: corrupt key")
		}
		out = append(out, v)
		i += n
	}
	return out
}

// Level returns the number of components (the node's depth).
func (k Key) Level() int {
	lvl := 0
	for i := 0; i < len(k); {
		_, n := uvarint(k[i:])
		if n <= 0 {
			panic("ordpath: corrupt key")
		}
		lvl++
		i += n
	}
	return lvl
}

// Valid reports whether k is a well-formed sequence of LEB128 components.
// Compare, Level and Components panic on keys that are not, so a key read
// from untrusted bytes is checked once, where it is decoded.
func (k Key) Valid() bool {
	cont := 0 // continuation bytes of the component being read
	for _, c := range k {
		switch {
		case c >= 0x80:
			if cont++; cont > 9 {
				return false
			}
		case cont == 9 && c > 1:
			return false // tenth byte overflows 64 bits
		default:
			cont = 0
		}
	}
	return cont == 0
}

// Compare orders keys in document order: component-wise numeric comparison,
// with a proper prefix (the ancestor) ordering before its extensions.
func Compare(a, b Key) int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		av, an := uvarint(a[i:])
		bv, bn := uvarint(b[j:])
		if an <= 0 || bn <= 0 {
			panic("ordpath: corrupt key")
		}
		if av < bv {
			return -1
		}
		if av > bv {
			return 1
		}
		i += an
		j += bn
	}
	switch {
	case i < len(a):
		return 1 // a extends b: descendant follows ancestor
	case j < len(b):
		return -1
	default:
		return 0
	}
}

// IsAncestorOf reports whether k is a proper ancestor of other, i.e. k's
// components are a proper prefix of other's.
func (k Key) IsAncestorOf(other Key) bool {
	if len(k) >= len(other) {
		return false
	}
	// Component boundaries align iff the shorter key is a byte prefix that
	// ends exactly on a boundary; with LEB128 a byte prefix ending on a
	// component boundary is exactly a component prefix.
	for i := range k {
		if k[i] != other[i] {
			return false
		}
	}
	// len(k) must be a boundary in other: continuation bytes have the high
	// bit set, so the previous byte (if any) must terminate a varint.
	return len(k) == 0 || k[len(k)-1]&0x80 == 0
}

// Between returns a key strictly between a and b in document order,
// suitable for inserting a new sibling. It requires Compare(a, b) < 0 and
// that b is not a descendant of a (nothing fits between a node and its
// first descendant position only when a careting level is added, which
// this function handles by extending a).
func Between(a, b Key) Key {
	if Compare(a, b) >= 0 {
		panic("ordpath: Between requires a < b")
	}
	ac, bc := a.Components(), b.Components()
	// Find first differing component index.
	i := 0
	for i < len(ac) && i < len(bc) && ac[i] == bc[i] {
		i++
	}
	switch {
	case i == len(ac):
		// a is a proper ancestor (prefix) of b: go just before b's next
		// component by descending below a with a component smaller than
		// bc[i]. If bc[i] > 1 we can use bc[i]-1 careted; for bc[i] == 1 we
		// caret below ordinal 0; for bc[i] == 0 we must recurse one level
		// deeper into b (keys produced by this package never end in a 0
		// component, so the recursion terminates before exhausting b).
		prefix := FromComponents(ac...)
		switch {
		case bc[i] > 1:
			return prefix.Child(bc[i] - 1).Child(2)
		case bc[i] == 1:
			return prefix.Child(0).Child(2)
		default:
			return Between(prefix.Child(0), b)
		}
	case i == len(bc):
		panic("ordpath: Between with b ancestor of a (a < b violated)")
	default:
		if bc[i]-ac[i] >= 2 {
			// Room for a whole ordinal between them.
			mid := ac[i] + (bc[i]-ac[i])/2
			return FromComponents(append(append([]uint64{}, ac[:i]...), mid)...)
		}
		// Adjacent ordinals: caret below a's position. Any key of the form
		// ac[:i+1] ++ [x] with x larger than a's continuation sorts after a
		// (if a ends here) and before b.
		if i == len(ac)-1 {
			// a ends at this component: extend it.
			return FromComponents(ac...).Child(2)
		}
		// a continues below: pick a component after a's next one.
		return FromComponents(append(append([]uint64{}, ac[:i+1]...), ac[i+1]+1)...).Child(2)
	}
}

// After returns a key that sorts after k and after every descendant of k,
// but before k's current following siblings' successors — the key for
// appending a new sibling right after the subtree rooted at k. It bumps
// k's final component by 2.
func After(k Key) Key {
	comps := k.Components()
	if len(comps) == 0 {
		panic("ordpath: After of the root key")
	}
	comps[len(comps)-1] += 2
	return FromComponents(comps...)
}

// AppendDotted appends the key's dotted rendering, e.g. "2.4.2", to dst and
// returns the extended slice. It allocates only when dst must grow, so a
// caller reusing its buffer renders keys allocation-free.
func (k Key) AppendDotted(dst []byte) []byte {
	for i := 0; i < len(k); {
		v, n := uvarint(k[i:])
		if n <= 0 {
			panic("ordpath: corrupt key")
		}
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendUint(dst, v, 10)
		i += n
	}
	return dst
}

// String renders the key as dotted components, e.g. "2.4.2".
func (k Key) String() string {
	var buf [64]byte
	return string(k.AppendDotted(buf[:0]))
}

// SortStable sorts xs into document order by the key of each element and
// returns the number of key comparisons made, which callers charge to the
// cost ledger. Elements with equal keys keep their input order. It runs
// sort.Stable's insertion-sort-plus-SymMerge, the algorithm of
// sort.SliceStable, so the comparison count is the one that function would
// report for the same input; unlike it, swaps are typed, not reflected.
func SortStable[T any](xs []T, key func(*T) Key) int {
	s := byKey[T]{xs: xs, key: key}
	sort.Stable(&s)
	return s.compared
}

type byKey[T any] struct {
	xs       []T
	key      func(*T) Key
	compared int
}

func (s *byKey[T]) Len() int { return len(s.xs) }
func (s *byKey[T]) Less(i, j int) bool {
	s.compared++
	return Compare(s.key(&s.xs[i]), s.key(&s.xs[j])) < 0
}
func (s *byKey[T]) Swap(i, j int) { s.xs[i], s.xs[j] = s.xs[j], s.xs[i] }

// appendUvarint appends v as LEB128.
func appendUvarint(k Key, v uint64) Key {
	for v >= 0x80 {
		k = append(k, byte(v)|0x80)
		v >>= 7
	}
	return append(k, byte(v))
}

// uvarint decodes a LEB128 value, returning the value and byte length
// (0 if the input is empty or truncated).
func uvarint(b []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			if i > 9 || (i == 9 && c > 1) {
				return 0, 0 // overflow
			}
			return v | uint64(c)<<shift, i + 1
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}
