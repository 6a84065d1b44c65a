package pathdb

import (
	"bytes"
	"context"
	"testing"
)

// Every surface that yields nodes hands over the order key the operator
// captured: reading it back — OrdKey, OrdPath, CompareDocOrder — must not
// swizzle, and the kept key is the stored one.
func TestYieldedNodesKeepOrderKey(t *testing.T) {
	db := engineFixture(t)
	ctx := context.Background()
	const path = "/site/regions//item"
	const union = "/site/people/person/name | /site/regions//item/name"

	eng := db.NewEngine(EngineConfig{MaxInFlight: 4})
	ses := eng.NewSession()
	stream := func(path string, opts QueryOptions) []Node {
		cur, err := ses.Stream(ctx, path, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var nodes []Node
		for cur.Next() {
			nodes = append(nodes, cur.Node())
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		return nodes
	}
	do, err := ses.Do(ctx, union, QueryOptions{Sorted: true})
	if err != nil {
		t.Fatal(err)
	}
	type surface struct {
		name   string
		sorted bool
		nodes  []Node
	}
	surfaces := []surface{
		{"Session.Stream sorted", true, stream(path, QueryOptions{Sorted: true})},
		{"Session.Stream live", false, stream(path, QueryOptions{})},
		{"Session.Stream sorted union", true, stream(union, QueryOptions{Sorted: true})},
		{"Session.Do sorted union", true, do.Nodes},
	}
	eng.Close()

	res, err := db.QueryCtx(ctx, union, QueryOptions{Sorted: true})
	if err != nil {
		t.Fatal(err)
	}
	surfaces = append(surfaces, surface{"DB.QueryCtx sorted union", true, res.Nodes})
	cur, err := db.QueryStream(ctx, path, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var direct []Node
	for cur.Next() {
		direct = append(direct, cur.Node())
	}
	cur.Close()
	q, err := db.Query(path)
	if err != nil {
		t.Fatal(err)
	}
	surfaces = append(surfaces,
		surface{"DB.QueryStream direct", false, direct},
		surface{"Query.Nodes sorted", true, q.Sorted().Nodes()})

	for _, s := range surfaces {
		if len(s.nodes) < 2 {
			t.Fatalf("%s: %d nodes, fixture unusable", s.name, len(s.nodes))
		}
		before := db.store.Ledger().Snapshot().Swizzles
		for i, n := range s.nodes {
			if n.OrdPath() == "" || len(n.OrdKey()) == 0 {
				t.Fatalf("%s: node %d has no order key", s.name, i)
			}
			if s.sorted && i > 0 && CompareDocOrder(s.nodes[i-1], n) >= 0 {
				t.Fatalf("%s: nodes %d and %d not in document order", s.name, i-1, i)
			}
		}
		if d := db.store.Ledger().Snapshot().Swizzles - before; d != 0 {
			t.Errorf("%s: reading %d nodes' keys swizzled %d times, want 0", s.name, len(s.nodes), d)
		}
		for i, n := range s.nodes {
			if stored := db.store.Swizzle(n.id).OrdKey(); !bytes.Equal(n.OrdKey(), stored) {
				t.Fatalf("%s: node %d carries key %x, stored key is %x", s.name, i, n.OrdKey(), stored)
			}
		}
	}
}

// A handle returned by an insert never passed through an operator and has
// no captured key; it still reports the node's key, by swizzling.
func TestInsertedHandleOrderKey(t *testing.T) {
	db := engineFixture(t)
	site := mustOne(t, db, "/site")
	inserted, err := db.InsertXML(site, `<probe><sub/></probe>`)
	if err != nil {
		t.Fatal(err)
	}
	queried := mustOne(t, db, "/site/probe")
	if queried.ID() != inserted.ID() {
		t.Fatalf("query resolves node %d, insert returned %d", queried.ID(), inserted.ID())
	}
	if got, want := inserted.OrdPath(), queried.OrdPath(); got == "" || got != want {
		t.Fatalf("inserted handle OrdPath %q, queried handle %q", got, want)
	}
	if d := CompareDocOrder(inserted, queried); d != 0 {
		t.Fatalf("CompareDocOrder(inserted, queried) = %d, want 0", d)
	}
	if d := CompareDocOrder(site, inserted); d >= 0 {
		t.Fatalf("CompareDocOrder(parent, inserted) = %d, want < 0", d)
	}
	before := db.store.Ledger().Snapshot().Swizzles
	inserted.OrdPath()
	if d := db.store.Ledger().Snapshot().Swizzles - before; d != 1 {
		t.Fatalf("OrdPath of a handle without a captured key swizzled %d times, want 1", d)
	}
}
