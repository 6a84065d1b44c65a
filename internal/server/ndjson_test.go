package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"pathdb"
	"pathdb/internal/ordpath"
	"pathdb/internal/rng"
)

// The hand-rolled node line must stay byte-identical to what encoding/json
// writes for NodeJSON, which is what the stream carried before and what
// every client parses.
func TestNodeLineMatchesEncodingJSON(t *testing.T) {
	names := []string{
		"", "item", "a<b", "a>b", "a&b", `say "hi"`, `back\slash`,
		"tab\there", "line\nfeed", "cr\rhere", "bell\x07", "bs\bff\f", "nul\x00", "del\x7f",
		"größe", "名前", "sep\u2028arator", "para\u2029graph", "replacement\ufffdchar",
		"bad\xffutf8", "\xc3", "trunc\xe2\x80", "\xed\xa0\x80surrogate", "mixed<\xfe>&\u2028\"",
	}
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(12))
		for j := range b {
			b[j] = byte(r.Intn(256))
		}
		names = append(names, string(b))
	}
	keys := []ordpath.Key{
		ordpath.FromComponents(2),
		ordpath.FromComponents(2, 4, 1<<20, 6, 2, 2, 8, 300, 2, 4, 6, 12),
	}
	ids := []uint64{0, 7, 1<<64 - 1}
	for _, name := range names {
		for _, key := range keys {
			for _, shard := range []int{0, 1, 13} {
				id := ids[(len(name)+shard)%len(ids)]
				want, err := json.Marshal(NodeJSON{ID: id, Name: name, Ord: key.String(), Shard: shard})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, '\n')
				got := appendNodeLine(nil, id, name, key, shard)
				if string(got) != string(want) {
					t.Fatalf("name %q shard %d key %s:\n got %s want %s", name, shard, key, got, want)
				}
			}
		}
	}
}

// discardResponse is a ResponseWriter that counts what it is given.
type discardResponse struct {
	header  http.Header
	bytes   int
	flushes int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.bytes += len(p); return len(p), nil }
func (d *discardResponse) Flush()                      { d.flushes++ }

// residentNodes returns the sorted result of itemQuery on a volume that
// fits its pool, so that reading a node's name never loads a page.
func residentNodes(tb testing.TB) []pathdb.Node {
	tb.Helper()
	db, err := pathdb.GenerateXMark(pathdb.XMarkConfig{ScaleFactor: 0.1, Seed: 42, EntityScale: 0.1}, pathdb.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := db.QueryCtx(context.Background(), itemQuery, pathdb.QueryOptions{Sorted: true})
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Nodes) < 2*streamChunk {
		tb.Fatalf("fixture too small: %d nodes", len(res.Nodes))
	}
	return res.Nodes
}

// Once its chunk buffer has grown, the writer puts a node on the wire —
// name lookup, key rendering, chunk write and flush included — without
// allocating; it flushes the first line at once, then every chunk.
func TestNDJSONNodeLineDoesNotAllocate(t *testing.T) {
	nodes := residentNodes(t)
	out := &discardResponse{header: http.Header{}}
	nw := newNDJSONWriter(out)
	i := 0
	line := func() {
		if !nw.writeNode(nodes[i%len(nodes)], 1) {
			t.Fatal("writer failed")
		}
		i++
	}
	for i < 2*streamChunk {
		line()
	}
	if n := testing.AllocsPerRun(10*streamChunk, line); n != 0 {
		t.Fatalf("steady-state node line: %v allocs, want 0", n)
	}
	if out.flushes != 1+i/streamChunk || out.bytes == 0 {
		t.Fatalf("%d lines: %d flushes, %d bytes; want one after the first line, then one every %d lines", i, out.flushes, out.bytes, streamChunk)
	}
}

// BenchmarkNDJSONNode is the server's share of a streamed node: one node
// line through ndjsonWriter into a response that discards it.
func BenchmarkNDJSONNode(b *testing.B) {
	nodes := residentNodes(b)
	out := &discardResponse{header: http.Header{}}
	nw := newNDJSONWriter(out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.writeNode(nodes[i%len(nodes)], 1)
	}
	b.StopTimer()
	nw.flush()
	b.ReportMetric(float64(out.bytes)/float64(b.N), "bytes/node")
}
