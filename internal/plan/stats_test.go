package plan

import (
	"fmt"
	"testing"

	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmark"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// walkStats is the oracle of the chooser's statistics: one walk of every
// document over the store's navigation, crossing each border, that counts
// per tag the element records, the clusters holding one, and the clusters
// holding a non-proxy record below one, plus the volume's border records.
func walkStats(st *storage.Store) DocStats {
	n := st.NumDataPages()
	ds := DocStats{Pages: n, Tags: map[xmltree.TagID]TagStats{}}
	for i := 0; i < n; i++ {
		ds.Borders += len(st.BordersOf(st.DataPage(i)))
	}
	type tagPage struct {
		tag  xmltree.TagID
		page vdisk.PageID
	}
	own, sub := map[tagPage]bool{}, map[tagPage]bool{}
	var open []xmltree.TagID // tags of the elements the walk is inside
	var walk, children func(c storage.Cursor)
	walk = func(c storage.Cursor) {
		page := storage.ClusterOf(c.ID())
		for _, t := range open {
			sub[tagPage{t, page}] = true
		}
		if c.Kind() != xmltree.Element {
			children(c)
			return
		}
		t := c.Tag()
		ts := ds.Tags[t]
		ts.Count++
		ds.Tags[t] = ts
		own[tagPage{t, page}] = true
		open = append(open, t)
		children(c)
		open = open[:len(open)-1]
	}
	children = func(c storage.Cursor) {
		it := st.Step(c, xpath.Child, xpath.AnyNode())
		defer it.Release()
		for k, ok := it.Next(); ok; k, ok = it.Next() {
			if k.IsBorder() {
				children(st.Swizzle(k.Target())) // the ProxyParent anchor
			} else {
				walk(k)
			}
		}
	}
	for _, r := range st.Roots() {
		walk(st.Swizzle(r))
	}
	for tp := range own {
		ts := ds.Tags[tp.tag]
		ts.Pages++
		ds.Tags[tp.tag] = ts
	}
	for tp := range sub {
		ts := ds.Tags[tp.tag]
		ts.SubtreePages++
		ds.Tags[tp.tag] = ts
	}
	return ds
}

// statsDiff lists where got departs from want: the page and border totals
// and every tag's Count and Pages exactly, SubtreePages by more than slack.
// A tag one side lacks counts as zero there.
func statsDiff(dict *xmltree.Dictionary, got, want DocStats, slack int) []string {
	var out []string
	if got.Pages != want.Pages || got.Borders != want.Borders {
		out = append(out, fmt.Sprintf("pages %d, borders %d; want %d, %d", got.Pages, got.Borders, want.Pages, want.Borders))
	}
	tags := map[xmltree.TagID]bool{}
	for t := range got.Tags {
		tags[t] = true
	}
	for t := range want.Tags {
		tags[t] = true
	}
	for t := range tags {
		g, w := got.Tags[t], want.Tags[t]
		if d := g.SubtreePages - w.SubtreePages; g.Count != w.Count || g.Pages != w.Pages || d < -slack || d > slack {
			out = append(out, fmt.Sprintf("%s: %+v, want %+v", dict.Name(t), g, w))
		}
	}
	return out
}

// paperVolume stores the paper's running example (Fig. 3) with text added,
// clusters assigned by hand: R and C in d, the first A subtree in a, X in b,
// the second A subtree in c, and the text below B split between c and d.
func paperVolume(t testing.TB) (*xmltree.Dictionary, *storage.Store) {
	dict := xmltree.NewDictionary()
	el := func(name string, kids ...*xmltree.Node) *xmltree.Node {
		n := xmltree.NewElement(dict.Intern(name))
		for _, k := range kids {
			n.AppendChild(k)
		}
		return n
	}
	a2 := el("A", el("B"))
	x := el("X", xmltree.NewText("x"))
	textC, textD := xmltree.NewText("in c"), xmltree.NewText("in d")
	b4 := el("B", textC, textD)
	c2 := el("A", b4)
	doc := xmltree.NewDocument()
	doc.AppendChild(el("R", a2, el("C", x), c2))
	clusterOf := map[*xmltree.Node]int{a2: 0, a2.Children[0]: 0, x: 1, x.Children[0]: 1, c2: 2, b4: 2, textC: 2}
	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), 512)
	st, err := storage.ImportManual(disk, dict, doc, func(n *xmltree.Node) int {
		if c, ok := clusterOf[n]; ok {
			return c
		}
		return 3
	}, storage.ImportOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	return dict, st
}

// collectionVolume stores two small XMark documents in one volume.
func collectionVolume(t testing.TB) (*xmltree.Dictionary, *storage.Store) {
	dict := xmltree.NewDictionary()
	docs := []*xmltree.Node{
		xmark.Generate(dict, xmark.Config{ScaleFactor: 0.2, Seed: 3, EntityScale: 0.02}),
		xmark.Generate(dict, xmark.Config{ScaleFactor: 0.2, Seed: 4, EntityScale: 0.02}),
	}
	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), 8192)
	st, err := storage.ImportCollection(disk, dict, docs, storage.ImportOptions{PageSize: 8192, Layout: storage.LayoutShuffled, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return dict, st
}

// layoutVolume stores one XMark document under the given layout.
func layoutVolume(layout storage.Layout) func(testing.TB) (*xmltree.Dictionary, *storage.Store) {
	return func(t testing.TB) (*xmltree.Dictionary, *storage.Store) {
		dict := xmltree.NewDictionary()
		doc := xmark.Generate(dict, xmark.Config{ScaleFactor: 1, Seed: 17, EntityScale: 0.05})
		disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), 8192)
		st, err := storage.Import(disk, dict, doc, storage.ImportOptions{PageSize: 8192, Layout: layout, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return dict, st
	}
}

// reopenedVolume stores one XMark document, shuffled, and recovers it with
// storage.Open, which registers no synopsis.
func reopenedVolume(t testing.TB) (*xmltree.Dictionary, *storage.Store) {
	dict, st := layoutVolume(storage.LayoutShuffled)(t)
	st, err := storage.Open(st.Disk())
	if err != nil {
		t.Fatal(err)
	}
	return dict, st
}

// TestChooserStatsMatchWalk: on a fresh import the chooser's statistics,
// summed from the synopses the importer registered, equal the whole-document
// walk exactly, and building them reads no page. On a volume Open recovered
// the chooser counts every page it has to load, and the statistics are as
// exact.
func TestChooserStatsMatchWalk(t *testing.T) {
	for _, v := range []struct {
		name   string
		volume func(testing.TB) (*xmltree.Dictionary, *storage.Store)
		loads  bool // no synopsis is registered: NewChooser loads pages
	}{
		{"natural", layoutVolume(storage.LayoutNatural), false},
		{"shuffled", layoutVolume(storage.LayoutShuffled), false},
		{"contiguous", layoutVolume(storage.LayoutContiguous), false},
		{"collection", collectionVolume, false},
		{"paper", paperVolume, false},
		{"Open-recovered", reopenedVolume, true},
	} {
		t.Run(v.name, func(t *testing.T) {
			dict, st := v.volume(t)
			ch := NewChooser(st)
			if reads := st.Ledger().PageReads; (reads != 0) != v.loads {
				t.Fatalf("NewChooser read %d pages", reads)
			}
			got, want := ch.Stats(), walkStats(st)
			for _, d := range statsDiff(dict, got, want, 0) {
				t.Error(d)
			}
			if len(got.Tags) != len(want.Tags) || len(got.Tags) == 0 {
				t.Errorf("%d tags, want %d", len(got.Tags), len(want.Tags))
			}
		})
	}
}

// BenchmarkNewChooser: building the chooser over flat_cold's volume shape
// (XMark, entity scale 0.2, shuffled layout) — the statistics part of
// engine start.
func BenchmarkNewChooser(b *testing.B) {
	dict := xmltree.NewDictionary()
	doc := xmark.Generate(dict, xmark.Config{ScaleFactor: 1, Seed: 17, EntityScale: 0.2})
	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), 8192)
	st, err := storage.Import(disk, dict, doc, storage.ImportOptions{PageSize: 8192, Layout: storage.LayoutShuffled, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chooserSink = NewChooser(st)
	}
}

var chooserSink *Chooser
