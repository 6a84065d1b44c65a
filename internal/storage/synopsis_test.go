package storage

import (
	"slices"
	"testing"

	"pathdb/internal/xmltree"
)

// TestRewrittenSynopsisRule: a rewritten page's Below is the previous
// synopsis's plus the tags of its records' in-page parent elements.
// Counted again from the importer's exact synopsis, an unchanged page keeps
// it exactly; counted with no previous synopsis, it keeps the in-page
// parents alone, which leaves out the ancestors above the page's fragments.
func TestRewrittenSynopsisRule(t *testing.T) {
	st := xmarkVolume(t, 8192)
	outside := 0 // pages with an ancestor tag above their fragments alone
	for i := 0; i < st.NumDataPages(); i++ {
		p := st.DataPage(i)
		imported := st.syn.get(p)
		img := st.image(p)
		if got := rewrittenSynopsis(img, 1, imported).Below; !slices.Equal(got, imported.Below) {
			t.Fatalf("page %d: Below %v from the import's %v", p, got, imported.Below)
		}
		var want []xmltree.TagID
		for k := 0; k < img.n; k++ {
			if q := img.parent(k); q != noParent && !img.kind(k).IsProxy() && img.kind(q) == RecElem {
				want = append(want, img.tag(q))
			}
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if own := rewrittenSynopsis(img, 1, nil).Below; !slices.Equal(own, want) {
			t.Fatalf("page %d: Below %v with no previous synopsis, want the in-page parents %v", p, own, want)
		}
		if len(want) < len(imported.Below) {
			outside++
		}
	}
	if outside == 0 {
		t.Fatal("no page has an ancestor outside it: the volume does not test the previous synopsis's part")
	}
}
