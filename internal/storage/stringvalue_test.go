package storage

import (
	"testing"

	"pathdb/internal/xpath"
)

// stringValueOracle is the value the append-walk replaced: the text content
// of the subtree rebuilt as an xmltree. It is also the charge oracle — it
// swizzles an element or document twice and every proxy target once.
func stringValueOracle(s *Store, id NodeID) string {
	switch c := s.Swizzle(id); c.RecKind() {
	case RecDoc:
		return s.Export().TextContent()
	case RecElem:
		return s.ExportSubtree(id).TextContent()
	default:
		return c.Text() // text, comment, processing instruction
	}
}

// TestStringValueMatchesExport compares the append-walk with the export
// oracle, value and virtual charge, on every element and text node of an
// XMark volume (8 KB pages), of the update-stressed volume (dedicated
// proxies, collapsed anchors, out-of-order slots) and of a volume whose
// subtrees chain across dozens of 512-byte clusters — and on its document
// node, the longest chain there is.
func TestStringValueMatchesExport(t *testing.T) {
	people, _, _, _ := peopleVolume(t)
	for name, st := range map[string]*Store{
		"xmark": xmarkVolume(t, 8192), "stressed": stressedVolume(t), "chained": people,
	} {
		nodes := evalStepFull(st, st.Swizzle(st.Root()), xpath.DescendantOrSelf, xpath.AnyNode())
		if len(nodes) < 500 {
			t.Fatalf("%s: only %d nodes", name, len(nodes))
		}
		var buf []byte
		for _, c := range nodes {
			id := c.ID()
			v0 := st.Ledger().Total()
			want := stringValueOracle(st, id)
			v1 := st.Ledger().Total()
			buf = st.AppendStringValue(buf[:0], id)
			v2 := st.Ledger().Total()
			if string(buf) != want || st.StringValue(id) != want {
				t.Fatalf("%s: node %v: string value %q, export says %q", name, id, buf, want)
			}
			if v2-v1 != v1-v0 {
				t.Fatalf("%s: node %v: walk charged %v, export %v", name, id, v2-v1, v1-v0)
			}
		}
	}
}

// TestStringValueAllocatesNothing: with a buffer that has room, a leaf
// element's value is appended without an allocation.
func TestStringValueAllocatesNothing(t *testing.T) {
	st := xmarkVolume(t, 8192)
	var leaf NodeID
	for _, c := range evalStepFull(st, st.Swizzle(st.Root()), xpath.Descendant, xpath.Wildcard()) {
		if kids := childCursors(c); len(kids) == 1 && kids[0].RecKind() == RecText {
			leaf = c.ID()
			break
		}
	}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf = st.AppendStringValue(buf[:0], leaf) }); n != 0 || len(buf) == 0 {
		t.Fatalf("leaf value %q took %v allocations, want 0", buf, n)
	}
}

var stringValueSink []byte

// BenchmarkStringValue measures the string value of an XMark item (a
// subtree of a few dozen records) and of a leaf keyword.
func BenchmarkStringValue(b *testing.B) {
	st := xmarkVolume(b, 8192)
	for _, name := range []string{"item", "keyword"} {
		nodes := evalStepFull(st, st.Swizzle(st.Root()), xpath.Descendant, xpath.NameTest(st.Dict().Intern(name)))
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stringValueSink = st.AppendStringValue(stringValueSink[:0], nodes[i%len(nodes)].ID())
			}
		})
	}
}
