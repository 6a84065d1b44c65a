// Package ordpath implements insert-friendly document-order keys in the
// spirit of ORDPATH labels (O'Neil et al., SIGMOD 2004), which the paper
// assumes for re-establishing document order after its operators have
// processed nodes in physical order (Sec. 5.5).
//
// A Key is a sequence of unsigned components, each encoded prefix-free and
// order-preserving: the leading one bits of its first byte give its length,
// as in UTF-8, and the bits after them hold the value less its length's
// bias, big-endian.
//
//	0xxxxxxx                    0 … 127
//	10xxxxxx + 1 byte           128 … 16 511
//	110xxxxx + 2 bytes          16 512 … 2 113 663
//	…
//	11111111 + 8 bytes          the rest of uint64
//
// So plain byte comparison is document order (Compare is bytes.Compare), and
// an ancestor's key is a byte prefix of its descendants' keys. No value takes
// more bytes than its LEB128 form, and every value below 16 384 takes as many.
// The biases are even, so a code's last bit is its value's parity.
//
// Initial bulk-load assigns even ordinals (2, 4, 6, …) to siblings. An odd
// component is a caret, not a level: a node's key is, level by level, zero
// or more carets and one even component, so it always ends on an even one.
// Between inserts a sibling into any gap by a caret when no even ordinal is
// free — between 2 and 4 it puts 3.64 — and never relabels a node, the
// property that makes these keys update-friendly where plain preorder
// numbers are not (the criticism of Sec. 2 against scan-order formats).
package ordpath

import (
	"bytes"
	"math"
	"math/bits"
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
	n := 0
	for _, c := range comps {
		n += codeSize(c)
	}
	k := make(Key, 0, n)
	for _, c := range comps {
		k = appendCode(k, c)
	}
	return k
}

// Child returns the key of a child of k with the given ordinal, which must
// be even: an odd one is a caret, not a level.
func (k Key) Child(ordinal uint64) Key {
	out := make(Key, len(k), len(k)+codeSize(ordinal))
	copy(out, k)
	return appendCode(out, ordinal)
}

// BulkChild returns the key for the i-th (0-based) child during initial
// load, using even ordinals so gaps remain for future insertions.
func (k Key) BulkChild(i int) Key {
	return k.Child(uint64(i+1) * 2)
}

// Components decodes the key into its component list, carets included.
func (k Key) Components() []uint64 {
	out := make([]uint64, 0, len(k))
	for i := 0; i < len(k); {
		if c := k[i]; c < 0x80 { // a one-byte code: most ordinals
			out = append(out, uint64(c))
			i++
			continue
		}
		v, n := decode(k[i:])
		if n == 0 {
			panic("ordpath: corrupt key")
		}
		out = append(out, v)
		i += n
	}
	return out
}

// LEB128Len returns the bytes k's components take as LEB128 varints, the
// key encoding of the record format that the bulk loader's cluster cuts
// are calibrated against.
func (k Key) LEB128Len() int {
	n := 0
	for i := 0; i < len(k); {
		if k[i] < 0x80 { // below 128 both codes take one byte
			n++
			i++
			continue
		}
		v, m := decode(k[i:])
		if m == 0 {
			panic("ordpath: corrupt key")
		}
		n += (bits.Len64(v|1) + 6) / 7
		i += m
	}
	return n
}

// Level returns the node's depth: the number of its even components.
func (k Key) Level() int {
	lvl := 0
	for i := 0; i < len(k); {
		if i += codeLen(k[i]); i > len(k) {
			panic("ordpath: corrupt key")
		}
		lvl += int(^k[i-1] & 1)
	}
	return lvl
}

// Valid reports whether k is a well-formed sequence of component codes.
// Compare needs no decoding, but Level, Components and the renderers panic
// on keys that are not, so a key read from untrusted bytes is checked once,
// where it is decoded.
func (k Key) Valid() bool {
	for i := 0; i < len(k); {
		n := 1
		if k[i] >= 0x80 {
			if _, n = decode(k[i:]); n == 0 {
				return false
			}
		}
		i += n
	}
	return true
}

// LevelLen returns the byte length of b's first level — its carets and the
// even component that ends them — or 0 if b does not start with a whole,
// well-formed level. A page stores a key as this suffix of its parent's.
func LevelLen(b []byte) int {
	for i := 0; i < len(b); {
		n := 1
		if b[i] >= 0x80 {
			if _, n = decode(b[i:]); n == 0 {
				return 0
			}
		}
		if i += n; b[i-1]&1 == 0 {
			return i
		}
	}
	return 0
}

// Compare orders keys in document order: with order-preserving, prefix-free
// component codes that is byte order, a proper prefix (the ancestor)
// ordering before its extensions.
func Compare(a, b Key) int { return bytes.Compare(a, b) }

// IsAncestorOf reports whether k is a proper ancestor of other: k's levels
// are a proper prefix of other's. The codes are prefix-free, so a key's
// byte prefix that is itself a key ends on a component boundary.
func (k Key) IsAncestorOf(other Key) bool {
	return len(k) < len(other) && bytes.HasPrefix(other, k)
}

// freshOrdinal is the even component that follows a new caret: the middle
// of the one-byte codes, so inserts on either side stay short.
const freshOrdinal = 64

// Between returns a key strictly between a and b in document order for a
// new node: a sibling of a and b when they are siblings, and a's new first
// child before b when a is b's ancestor. It requires Compare(a, b) < 0. The
// key is never in a's subtree unless a is b's ancestor, so repeated inserts
// into one gap keep document order.
func Between(a, b Key) Key {
	if Compare(a, b) >= 0 {
		panic("ordpath: Between requires a < b")
	}
	ac, bc := a.Components(), b.Components()
	i := 0
	for i < len(ac) && ac[i] == bc[i] {
		i++
	}
	var lo []uint64 // nil: a is b's ancestor, the gap has no lower bound
	if i < len(ac) {
		lo = ac[i:]
	}
	return FromComponents(gap(ac[:i], lo, bc[i:])...)
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
	last := len(comps) - 1
	return FromComponents(gap(comps[:last], comps[last:], nil)...)
}

// gap appends to out the components of a new level — carets, then one even
// component — strictly between the suffixes x and y, whose first components
// differ. A nil x has no lower bound and a nil y no upper one; the new
// component steps 2 from the one bound a side has, and halves a gap with
// two. The result never extends x. out may end where x starts in one
// array: gap reads each component of x before it appends over it.
func gap(out, x, y []uint64) []uint64 {
	switch {
	case y == nil:
		switch lo := x[0]; {
		case lo < math.MaxUint64-1:
			return append(out, (lo+2)&^1)
		case lo&1 == 0:
			return append(out, math.MaxUint64, freshOrdinal)
		case len(x) > 1: // after x's continuation below the caret lo
			return gap(append(out, lo), x[1:], nil)
		}
	case x == nil:
		switch hi := y[0]; {
		case hi > 2:
			return append(out, (hi-1)&^1)
		case hi == 2:
			return append(out, 1, freshOrdinal)
		case hi == 1 && len(y) > 1: // before y's continuation
			return gap(append(out, 1), nil, y[1:])
		}
	default:
		lo, hi := x[0], y[0]
		switch d := hi - lo; {
		case d > 2 || d == 2 && lo&1 == 1:
			m := lo + d/2
			if m&1 == 1 {
				if m-1 > lo {
					m--
				} else {
					m++
				}
			}
			return append(out, m)
		case d == 2:
			return append(out, lo+1, freshOrdinal)
		case lo&1 == 1 && len(x) > 1: // after x's continuation below the caret lo
			return gap(append(out, lo), x[1:], nil)
		case hi&1 == 1 && len(y) > 1: // before y's continuation below the caret hi
			return gap(append(out, hi), nil, y[1:])
		}
	}
	panic("ordpath: Between: no node key fits the gap")
}

// AppendDotted appends the key's dotted rendering, e.g. "2.4.2", to dst and
// returns the extended slice. It allocates only when dst must grow, so a
// caller reusing its buffer renders keys allocation-free.
func (k Key) AppendDotted(dst []byte) []byte {
	for i := 0; i < len(k); {
		v, n := uint64(k[i]), 1
		if v >= 0x80 {
			if v, n = decode(k[i:]); n == 0 {
				panic("ordpath: corrupt key")
			}
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

// bias[n] is the smallest value an n-byte code holds: an n-byte code for
// n ≤ 8 carries 7n value bits, the 9-byte code all 64.
var bias = func() (b [10]uint64) {
	for n := 2; n <= 9; n++ {
		b[n] = b[n-1] + 1<<(7*(n-1))
	}
	return b
}()

// codeLen returns the length of the code whose first byte is c: one more
// than its leading one bits.
func codeLen(c byte) int { return bits.LeadingZeros8(^c) + 1 }

// codeSize returns the length of v's code.
func codeSize(v uint64) int {
	n := 1
	for n < 9 && v >= bias[n+1] {
		n++
	}
	return n
}

// appendCode appends v's code.
func appendCode(k Key, v uint64) Key {
	if v < 0x80 {
		return append(k, byte(v))
	}
	n := codeSize(v)
	p := v - bias[n]
	if n == 9 {
		k = append(k, 0xFF)
		n = 8
	} else {
		// n-1 leading ones, a zero, then the payload's top 8-n bits.
		k = append(k, byte(uint(0xFF00)>>(n-1))|byte(p>>(8*(n-1))))
		n--
	}
	for s := 8 * (n - 1); s >= 0; s -= 8 {
		k = append(k, byte(p>>s))
	}
	return k
}

// decode reads the code at the start of b, returning its value and byte
// length (0 if b is empty, truncated, or holds a 9-byte code past
// math.MaxUint64).
func decode(b []byte) (uint64, int) {
	if len(b) == 0 {
		return 0, 0
	}
	n := codeLen(b[0])
	if n > len(b) {
		return 0, 0
	}
	p := uint64(b[0] & (0xFF >> n))
	for _, c := range b[1:n] {
		p = p<<8 | uint64(c)
	}
	if p > math.MaxUint64-bias[n] {
		return 0, 0
	}
	return p + bias[n], n
}
