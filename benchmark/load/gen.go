// Package load holds the parts of the benchmark that do not touch the
// program under test: the seeded request generator, the percentile picker
// and the span recorder. Everything here is deterministic and unit-tested.
package load

import (
	"sort"
	"strings"
)

// Kind says what a request asks of the system.
type Kind uint8

const (
	// Read drains the full node stream of Path.
	Read Kind = iota
	// Count asks only for the cardinality of Path.
	Count
	// Write is one write transaction (the workload decides insert or
	// delete from the state the client holds).
	Write
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Count:
		return "count"
	default:
		return "write"
	}
}

// Request is one generated request. The program under test receives only
// Path, Sorted and (for writes) the parent that Target selects.
type Request struct {
	ID     int    `json:"id"`
	Kind   Kind   `json:"kind"`
	Path   string `json:"path,omitempty"`
	Sorted bool   `json:"sorted,omitempty"`
	// Target is a seeded non-negative number a write reduces modulo the
	// number of insert parents the volume offers.
	Target int `json:"target,omitempty"`
}

// Class is one weighted share of the read mix. The requests of a class are
// dealt to its Paths in turn, starting at a seeded one, so the paths' shares
// differ by at most one request from seed to seed; "%s" in a path is
// replaced by the words of Spec.Words in turn, starting at a seeded one.
type Class struct {
	Weight int
	Paths  []string
	// Sorted marks every request of the class Sorted (document order).
	Sorted bool
}

// Spec describes a request mix. The number of requests per class is fixed
// by the weights (largest remainder) and split evenly over the class's
// paths, and every path gets its share of the count-only and of the sorted
// requests, so every seed issues the same amount of work; the seed decides
// the order, where the turns through paths and words start, and the write
// targets.
type Spec struct {
	Classes []Class
	Words   []string
	// WriteFrac is the share of all requests that are write transactions.
	WriteFrac float64
	// CountFrac is the share of reads issued count-only.
	CountFrac float64
	// SortAlternate marks every second read Sorted, beside the classes
	// that always are.
	SortAlternate bool
}

// HeavyTail returns k weights that halve from one class to the next, the
// last two equal, so that they sum to a power of two: 8 4 2 1 1 for k=5.
func HeavyTail(k int) []int {
	w := make([]int, k)
	for i := range w {
		shift := k - 2 - i
		if shift < 0 {
			shift = 0
		}
		w[i] = 1 << shift
	}
	return w
}

// Quotas splits n into len(weights) whole parts proportional to weights
// (largest remainder; ties go to the earlier class).
func Quotas(weights []int, n int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	out := make([]int, len(weights))
	if total == 0 {
		return out
	}
	type rem struct{ i, r int }
	rems := make([]rem, len(weights))
	given := 0
	for i, w := range weights {
		out[i] = n * w / total
		rems[i] = rem{i, n * w % total}
		given += out[i]
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; k < n-given; k++ {
		out[rems[k].i]++
	}
	return out
}

// Generate returns the n requests of spec for seed.
func Generate(spec Spec, seed uint64, n int) []Request {
	r := NewRNG(seed)
	writes := int(float64(n)*spec.WriteFrac + 0.5)
	reads := n - writes
	counts := int(float64(reads)*spec.CountFrac + 0.5)

	weights := make([]int, len(spec.Classes))
	for i, c := range spec.Classes {
		weights[i] = c.Weight
	}
	// Count-only and sorted reads are marked here, before the shuffle, at
	// evenly spaced positions of a list in which the requests of one path
	// lie together: every path gets its share of both, for every seed.
	reqs := make([]Request, 0, n)
	nthRead := 0
	for ci, q := range Quotas(weights, reads) {
		c := spec.Classes[ci]
		first := r.Intn(len(c.Paths))
		for pi := range c.Paths {
			p := c.Paths[(first+pi)%len(c.Paths)]
			literal := strings.Contains(p, "%s")
			word := 0
			if literal {
				word = r.Intn(len(spec.Words))
			}
			// The paths dealt first take the requests that do not divide.
			for k := 0; k < (q+len(c.Paths)-1-pi)/len(c.Paths); k++ {
				req := Request{Kind: Read, Path: p, Sorted: c.Sorted}
				if literal {
					req.Path = strings.ReplaceAll(p, "%s", spec.Words[(word+k)%len(spec.Words)])
				}
				if counts > 0 && nthRead*counts/reads != (nthRead+1)*counts/reads {
					req.Kind = Count
				} else if spec.SortAlternate && nthRead%2 == 1 {
					req.Sorted = true
				}
				nthRead++
				reqs = append(reqs, req)
			}
		}
	}
	for j := 0; j < writes; j++ {
		reqs = append(reqs, Request{Kind: Write, Target: int(r.next() >> 33)})
	}
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for i := range reqs {
		reqs[i].ID = i
	}
	return reqs
}

// Distinct returns the first occurrence of every different non-write
// request (kind, path and order flag), in list order — one warm-up cycle.
func Distinct(reqs []Request) []Request {
	type key struct {
		kind   Kind
		path   string
		sorted bool
	}
	seen := map[key]bool{}
	var out []Request
	for _, q := range reqs {
		k := key{q.Kind, q.Path, q.Sorted}
		if q.Kind == Write || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, q)
	}
	return out
}

// RNG is splitmix64: the request lists must not change when the program
// under test (or its own generator package) does.
type RNG struct{ s uint64 }

// NewRNG returns a generator whose sequence is fixed by seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

func (r *RNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a number in [0, n).
func (r *RNG) Intn(n int) int { return int(r.next() % uint64(n)) }

// Shuffle permutes n elements through swap (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
