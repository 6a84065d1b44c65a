package load

import (
	"reflect"
	"testing"
)

var testSpec = Spec{
	Classes: []Class{
		{Weight: 8, Paths: []string{"/a"}},
		{Weight: 4, Paths: []string{"/b1", "/b2", "/b3"}},
		{Weight: 2, Paths: []string{`/c[k="%s"]`}},
		{Weight: 1, Paths: []string{"/d"}},
		{Weight: 1, Paths: []string{"/e"}},
	},
	Words: []string{"w0", "w1", "w2", "w3"},
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testSpec, 7, 1600)
	b := Generate(testSpec, 7, 1600)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request lists")
	}
	c := Generate(testSpec, 8, 1600)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave identical request lists")
	}
	for i, q := range a {
		if q.ID != i {
			t.Fatalf("request %d has ID %d", i, q.ID)
		}
	}
}

func TestHeavyTailWeights(t *testing.T) {
	if got, want := HeavyTail(5), []int{8, 4, 2, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("HeavyTail(5) = %v, want %v", got, want)
	}
	if got, want := HeavyTail(2), []int{1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("HeavyTail(2) = %v, want %v", got, want)
	}
	// The share of each class is exact for every seed: half, a quarter, ...
	for _, seed := range []uint64{1, 2, 3} {
		n := map[byte]int{}
		for _, q := range Generate(testSpec, seed, 1600) {
			n[q.Path[1]]++
		}
		want := map[byte]int{'a': 800, 'b': 400, 'c': 200, 'd': 100, 'e': 100}
		if !reflect.DeepEqual(n, want) {
			t.Fatalf("seed %d: class counts %v, want %v", seed, n, want)
		}
	}
}

func TestPathsOfAClassShareEvenly(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		n := map[string]int{}
		for _, q := range Generate(testSpec, seed, 1600) {
			n[q.Path]++
		}
		for _, p := range []string{"/b1", "/b2", "/b3"} {
			if n[p] < 133 || n[p] > 134 {
				t.Fatalf("seed %d: %s issued %d times of 400, want a third", seed, p, n[p])
			}
		}
	}
}

// Count-only and sorted requests are shared out per path, so that the work
// of a list does not depend on which paths the seed happened to mark.
func TestKindsShareEvenlyOverPaths(t *testing.T) {
	spec := testSpec
	spec.CountFrac = 0.2
	spec.SortAlternate = true
	for _, seed := range []uint64{1, 2, 3, 4} {
		all, counts, sorted := map[string]int{}, map[string]int{}, map[string]int{}
		for _, q := range Generate(spec, seed, 1600) {
			p := q.Path[:2]
			all[p]++
			if q.Kind == Count {
				counts[p]++
			} else if q.Sorted {
				sorted[p]++
			}
		}
		for p, n := range all {
			if d := counts[p]*5 - n; d < -5 || d > 5 {
				t.Errorf("seed %d: %s: %d count-only of %d, want a fifth", seed, p, counts[p], n)
			}
			if d := sorted[p]*5 - n*2; d < -5 || d > 5 {
				t.Errorf("seed %d: %s: %d sorted of %d, want two fifths", seed, p, sorted[p], n)
			}
		}
	}
}

func TestLiteralWordsAreDealtInTurn(t *testing.T) {
	n := map[string]int{}
	for _, q := range Generate(testSpec, 5, 1600) {
		if q.Path[1] == 'c' {
			n[q.Path]++
		}
	}
	if len(n) != 4 {
		t.Fatalf("%d different literals, want the 4 words", len(n))
	}
	for p, k := range n {
		if k != 50 {
			t.Fatalf("%s issued %d times of 200, want 50", p, k)
		}
	}
}

func TestQuotasSumToN(t *testing.T) {
	for n := 0; n < 50; n++ {
		sum := 0
		for _, q := range Quotas([]int{5, 2, 1}, n) {
			sum += q
		}
		if sum != n {
			t.Fatalf("Quotas(.., %d) sums to %d", n, sum)
		}
	}
}

func TestGenerateKinds(t *testing.T) {
	spec := testSpec
	spec.WriteFrac = 0.25
	spec.CountFrac = 0.2
	spec.SortAlternate = true
	reqs := Generate(spec, 3, 1000)
	kinds := map[Kind]int{}
	sorted := 0
	for _, q := range reqs {
		kinds[q.Kind]++
		if q.Sorted {
			sorted++
		}
		if q.Kind == Write && q.Path != "" {
			t.Fatal("write carries a path")
		}
	}
	if kinds[Write] != 250 || kinds[Count] != 150 || kinds[Read] != 600 {
		t.Fatalf("kinds = %v, want 250 writes, 150 counts, 600 reads", kinds)
	}
	if sorted < 250 || sorted > 375 {
		t.Fatalf("%d sorted reads of 750, want about half of the streamed ones", sorted)
	}
	d := Distinct(reqs)
	seen := map[Request]bool{}
	for _, q := range d {
		k := Request{Kind: q.Kind, Path: q.Path, Sorted: q.Sorted}
		if q.Kind == Write || seen[k] {
			t.Fatalf("Distinct returned %+v twice or a write", q)
		}
		seen[k] = true
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := Percentile(xs, 90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := Percentile(xs, 99); ok {
		t.Fatal("p99 of 100 samples reported with one sample beyond it")
	}
	if _, ok := Percentile(xs[:19], 50); ok {
		t.Fatal("p50 of 19 samples reported with nine samples beyond it")
	}
	if v, ok := Percentile(xs[:20], 50); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	for n := 0; n <= 300; n++ {
		for _, p := range []float64{50, 90, 99} {
			v, ok := Percentile(xs[:min(n, 100)], p)
			if !ok {
				continue
			}
			beyond := 0
			for _, x := range xs[:min(n, 100)] {
				if x > v {
					beyond++
				}
			}
			if beyond < MinBeyond {
				t.Fatalf("n=%d p%v reported with %d samples beyond", n, p, beyond)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("Quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = Quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("Quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("Median of three = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median of four = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		// Nested: child 1 holds grandchild 2.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "a.inner", Start: 15, End: 25},
		// Overlapping siblings 3 and 4 cover [50,80) together.
		{ID: 3, Parent: 0, Name: "b", Start: 50, End: 70},
		{ID: 4, Parent: 0, Name: "c", Start: 60, End: 80},
		// A child that sticks out of its parent counts only inside it.
		{ID: 5, Parent: 0, Name: "d", Start: 95, End: 120},
		// A child wholly inside a sibling adds nothing to the cover.
		{ID: 6, Parent: 0, Name: "e", Start: 62, End: 66},
	}
	self := SelfTimes(spans)
	want := map[int]int64{0: 100 - 30 - 30 - 5, 1: 20, 2: 10, 3: 20, 4: 20, 5: 25, 6: 4}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("SelfTimes = %v, want %v", self, want)
	}
	if got := SelfByName(spans)["request"]; got != 35 {
		t.Fatalf("SelfByName[request] = %d, want 35", got)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("request", -1, 4)
	kid := r.Begin("k", root, 4)
	r.End(kid)
	r.End(root)
	if len(r.Spans) != 2 || r.Spans[1].Parent != root || r.Spans[1].Req != 4 {
		t.Fatalf("spans = %+v", r.Spans)
	}
	if r.Spans[0].End < r.Spans[1].End || r.Spans[1].Start < r.Spans[0].Start {
		t.Fatalf("child not inside parent: %+v", r.Spans)
	}
}
