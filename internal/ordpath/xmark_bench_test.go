package ordpath_test

import (
	"testing"

	"pathdb/internal/ordpath"
	"pathdb/internal/xmark"
	"pathdb/internal/xmltree"
)

// xmarkKeys returns the keys the bulk loader gives the nodes of an XMark
// document (factor 1, entity scale 0.02, the core package's fixture), in
// document order.
func xmarkKeys(b *testing.B) []ordpath.Key {
	dict := xmltree.NewDictionary()
	doc := xmark.Generate(dict, xmark.Config{ScaleFactor: 1, Seed: 17, EntityScale: 0.02})
	var keys []ordpath.Key
	var walk func(n *xmltree.Node, k ordpath.Key)
	walk = func(n *xmltree.Node, k ordpath.Key) {
		for i, ch := range n.Children {
			c := k.BulkChild(i)
			keys = append(keys, c)
			walk(ch, c)
		}
	}
	walk(doc, ordpath.Root())
	if len(keys) < 2 {
		b.Fatalf("%d keys", len(keys))
	}
	return keys
}

var sinkInt int

// BenchmarkCompare compares each key with the next in document order, as a
// structural merge and the sort barrier do.
func BenchmarkCompare(b *testing.B) {
	keys := xmarkKeys(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % (len(keys) - 1)
		sinkInt += ordpath.Compare(keys[j], keys[j+1])
	}
}

// BenchmarkAncestorOrSelf asks whether each key is an ancestor-or-self of
// the next in document order — a parent of its first child, or a sibling
// or subtree end of what follows — the test the structural merge's stack
// makes per entry.
func BenchmarkAncestorOrSelf(b *testing.B) {
	keys := xmarkKeys(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % (len(keys) - 1)
		if ordpath.Compare(keys[j], keys[j+1]) == 0 || keys[j].IsAncestorOf(keys[j+1]) {
			sinkInt++
		}
	}
}
