package pathdb

import (
	"fmt"
	"strconv"

	"pathdb/internal/ordpath"
	"pathdb/internal/xmark"
	"pathdb/internal/xmlparse"
	"pathdb/internal/xmltree"
)

// SplitEntityFanout is the minimum number of same-tag element siblings a
// container must hold before those children are treated as a partitioned
// entity collection. Containers below the threshold stay on the spine (and
// are therefore replicated on every shard), so small structural elements
// never fragment while large homogeneous collections — XMark's items,
// persons, auctions — spread across shards.
const SplitEntityFanout = 8

// ShardSet is one corpus partitioned across independent volumes: the
// outcome of GenerateXMarkSharded / LoadXMLSharded. Each member of Shards
// is a fully independent DB — its own simulated disk (and virtual clock),
// buffer pool, cost ledger, transaction manager and plan chooser — holding
// the replicated container spine plus the entity subtrees the placement
// function assigned to it.
//
// Spine is a volume holding the spine alone (nil for single-shard sets and
// document-collection sets, which replicate nothing). Because every shard
// imports the identical spine tree with spine children placed before
// entities, a spine node has the same order key on every shard and on
// Spine itself; a scatter-gather coordinator uses that to count replicated
// matches exactly once (see internal/shard).
type ShardSet struct {
	Shards []*DB
	Spine  *DB

	// Keys are the placement keys of every entity (or collection member)
	// in document order; Placement[i] is the shard Keys[i] was assigned
	// to. Both are deterministic for a fixed corpus and placement
	// function, so tests can verify distribution skew and restart-stable
	// routing.
	Keys      []string
	Placement []int
}

// Documents returns per-shard entity counts (how many placement units each
// shard received) — the distribution the consistent-hash ring produced.
func (s *ShardSet) EntityCounts() []int {
	counts := make([]int, len(s.Shards))
	for _, p := range s.Placement {
		counts[p]++
	}
	return counts
}

// GenerateXMarkSharded builds the XMark corpus once and partitions it
// across n volumes. place maps a placement key (a stable
// container-path/tag#ordinal string) to a shard in [0, n); the
// consistent-hash ring in internal/shard is the intended implementation.
func GenerateXMarkSharded(cfg XMarkConfig, opts Options, n int, place func(key string) int) (*ShardSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("pathdb: sharded load needs n >= 1, got %d", n)
	}
	opts = opts.withDefaults()
	dict := xmltree.NewDictionary()
	doc := xmark.Generate(dict, xmark.Config{
		ScaleFactor: cfg.ScaleFactor,
		Seed:        cfg.Seed,
		EntityScale: cfg.EntityScale,
	})
	return splitAndLoad(dict, doc, opts, n, place)
}

// LoadXMLSharded parses one XML document and partitions it across n
// volumes, exactly as GenerateXMarkSharded does for the generated corpus.
func LoadXMLSharded(data []byte, opts Options, n int, place func(key string) int) (*ShardSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("pathdb: sharded load needs n >= 1, got %d", n)
	}
	opts = opts.withDefaults()
	dict := xmltree.NewDictionary()
	doc, err := xmlparse.Parse(dict, data)
	if err != nil {
		return nil, err
	}
	return splitAndLoad(dict, doc, opts, n, place)
}

// splitAndLoad partitions doc and imports each piece into its own volume.
// All volumes share one tag dictionary so a query string parses to the
// same tag tests everywhere.
func splitAndLoad(dict *xmltree.Dictionary, doc *xmltree.Node, opts Options, n int, place func(key string) int) (*ShardSet, error) {
	trees, spineTree, keys, placement := splitDoc(dict, doc, n, place)
	set := &ShardSet{Keys: keys, Placement: placement}
	for _, t := range trees {
		db, err := loadTree(dict, t, opts)
		if err != nil {
			return nil, err
		}
		set.Shards = append(set.Shards, db)
	}
	if n > 1 {
		spine, err := loadTree(dict, spineTree, opts)
		if err != nil {
			return nil, err
		}
		set.Spine = spine
	}
	return set, nil
}

// splitDoc partitions one document tree into n shard trees plus the spine
// tree. The spine — every node that is not part of a partitioned entity
// collection — is replicated on all shards; entity subtrees move (not
// copy) to the shard place assigns.
//
// Within each container the spine children are emitted first, in original
// relative order, and the shard's entities after them, also in original
// relative order. Spine children therefore occupy the same sibling
// positions on every shard, which makes a spine node's order key identical
// across shards and on the spine volume — the invariant the scatter-gather
// merge relies on. Entities keep document order within their shard.
func splitDoc(dict *xmltree.Dictionary, doc *xmltree.Node, n int, place func(key string) int) (shards []*xmltree.Node, spine *xmltree.Node, keys []string, placement []int) {
	shards = make([]*xmltree.Node, n)
	for i := range shards {
		shards[i] = xmltree.NewDocument()
	}
	spine = xmltree.NewDocument()

	var walk func(src *xmltree.Node, copies []*xmltree.Node, sp *xmltree.Node, key string)
	walk = func(src *xmltree.Node, copies []*xmltree.Node, sp *xmltree.Node, key string) {
		// A child is an entity when at least SplitEntityFanout element
		// siblings share its tag — a homogeneous collection worth
		// spreading. Everything else (including text and comments at
		// container level) is spine.
		tagCount := make(map[xmltree.TagID]int)
		for _, ch := range src.Children {
			if ch.Kind == xmltree.Element {
				tagCount[ch.Tag]++
			}
		}
		isEntity := func(ch *xmltree.Node) bool {
			return ch.Kind == xmltree.Element && tagCount[ch.Tag] >= SplitEntityFanout
		}

		// Spine children first (identical positions everywhere).
		spinePos := 0
		for _, ch := range src.Children {
			if isEntity(ch) {
				continue
			}
			clones := make([]*xmltree.Node, len(copies))
			for s := range copies {
				clones[s] = shallowClone(ch)
				copies[s].AppendChild(clones[s])
			}
			spClone := shallowClone(ch)
			sp.AppendChild(spClone)
			if ch.Kind == xmltree.Element {
				childKey := key + "/" + dict.Name(ch.Tag) + "[" + strconv.Itoa(spinePos) + "]"
				walk(ch, clones, spClone, childKey)
			}
			spinePos++
		}

		// Then the entities, moved wholesale to their placed shard.
		entIdx := make(map[xmltree.TagID]int)
		for _, ch := range src.Children {
			if !isEntity(ch) {
				continue
			}
			i := entIdx[ch.Tag]
			entIdx[ch.Tag]++
			k := key + "/" + dict.Name(ch.Tag) + "#" + strconv.Itoa(i)
			s := place(k)
			if s < 0 || s >= n {
				s = 0
			}
			copies[s].AppendChild(ch)
			keys = append(keys, k)
			placement = append(placement, s)
		}
	}
	walk(doc, shards, spine, "")
	return shards, spine, keys, placement
}

// shallowClone copies one node without its children (attributes included —
// they belong to the node, not the child sequence).
func shallowClone(n *xmltree.Node) *xmltree.Node {
	c := &xmltree.Node{Kind: n.Kind, Tag: n.Tag, Text: n.Text}
	for _, a := range n.Attrs {
		c.SetAttr(a.Tag, a.Text)
	}
	return c
}

// CompareDocOrder orders two nodes by their document-order keys. The nodes
// may come from different volumes of one ShardSet: splitting preserves
// per-volume document order and replicated spine nodes carry identical
// keys everywhere, so a cross-shard merge sorted by (CompareDocOrder,
// shard) is deterministic and spine-consistent.
func CompareDocOrder(a, b Node) int {
	return ordpath.Compare(a.OrdKey(), b.OrdKey())
}
