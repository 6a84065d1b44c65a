package pathdb

import (
	"strings"
	"testing"
)

func mustLoad(t testing.TB, src string) *DB {
	t.Helper()
	db, err := LoadXMLString(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := mustLoad(t, `<a><b x="1">one</b><c><b x="2">two</b></c></a>`)
	q, err := db.Query("/a//b")
	if err != nil {
		t.Fatal(err)
	}
	if n := q.Count(); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
}

func TestNodesAndAccessors(t *testing.T) {
	db := mustLoad(t, `<a><b x="1">one</b><b x="2">two</b></a>`)
	q, _ := db.Query("/a/b")
	nodes := q.Sorted().Nodes()
	if len(nodes) != 2 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	if nodes[0].Name() != "b" {
		t.Fatalf("name = %q", nodes[0].Name())
	}
	if nodes[0].Text() != "one" || nodes[1].Text() != "two" {
		t.Fatalf("texts = %q, %q", nodes[0].Text(), nodes[1].Text())
	}
	if nodes[0].XML() != `<b x="1">one</b>` {
		t.Fatalf("xml = %q", nodes[0].XML())
	}
	if nodes[0].OrdPath() == "" || nodes[0].OrdPath() == nodes[1].OrdPath() {
		t.Fatal("ord paths broken")
	}
	if nodes[0].ID() == nodes[1].ID() {
		t.Fatal("node ids not distinct")
	}
}

func TestAttributeQuery(t *testing.T) {
	db := mustLoad(t, `<a><b x="1"/><b x="2"/></a>`)
	q, _ := db.Query("/a/b/@x")
	nodes := q.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("attrs = %d", len(nodes))
	}
	vals := []string{nodes[0].Text(), nodes[1].Text()}
	if !(vals[0] == "1" && vals[1] == "2") && !(vals[0] == "2" && vals[1] == "1") {
		t.Fatalf("attr values = %v", vals)
	}
	if nodes[0].Name() != "x" {
		t.Fatalf("attr name = %q", nodes[0].Name())
	}
}

func TestStrategiesAgreeViaFacade(t *testing.T) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.5, Seed: 1, EntityScale: 0.01}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	for _, s := range []Strategy{Simple, Schedule, Scan, Auto} {
		db.ResetStats()
		q, err := db.Query("/site//item")
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, q.WithStrategy(s).Count())
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("counts diverge: %v", counts)
		}
	}
	if counts[0] == 0 {
		t.Fatal("no items found")
	}
}

func TestEachEarlyStop(t *testing.T) {
	db := mustLoad(t, `<a><b/><b/><b/></a>`)
	q, _ := db.Query("/a/b")
	seen := 0
	q.Each(func(Node) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Fatalf("Each visited %d, want 2", seen)
	}
}

func TestRelativeQueryFromNode(t *testing.T) {
	db := mustLoad(t, `<a><b><c/></b><b/></a>`)
	q, _ := db.Query("/a/b")
	nodes := q.Sorted().Nodes()
	sub, err := nodes[0].Query("c")
	if err != nil {
		t.Fatal(err)
	}
	if n := sub.Count(); n != 1 {
		t.Fatalf("relative count = %d", n)
	}
	if _, err := nodes[0].Query("/abs"); err == nil {
		t.Fatal("absolute path accepted as relative")
	}
}

func TestQueryErrors(t *testing.T) {
	db := mustLoad(t, `<a/>`)
	if _, err := db.Query("not-absolute"); err == nil {
		t.Fatal("relative path accepted by DB.Query")
	}
	if _, err := db.Query("/a/%%"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadXMLString("<broken", Options{}); err == nil {
		t.Fatal("broken XML accepted")
	}
}

func TestCostReportAndReset(t *testing.T) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.2, Seed: 2, EntityScale: 0.01}, Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	q, _ := db.Query("/site//keyword")
	q.WithStrategy(Scan).Count()
	r := db.CostReport()
	if r.Total == 0 || r.PageReads == 0 {
		t.Fatalf("empty report: %v", r)
	}
	if !strings.Contains(r.String(), "total=") {
		t.Fatal("report string")
	}
	db.ResetStats()
	if db.CostReport().Total != 0 {
		t.Fatal("reset did not clear report")
	}
}

func TestExplain(t *testing.T) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.5, Seed: 3, EntityScale: 0.01}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := db.Query("/site//description")
	if s := q.Explain(); !strings.Contains(s, "choose") {
		t.Fatalf("explain = %q", s)
	}
}

func TestExportRoundTrip(t *testing.T) {
	src := `<a><b x="1">one</b><c/></a>`
	db := mustLoad(t, src)
	var sb strings.Builder
	if err := db.ExportXML(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `<b x="1">one</b>`) {
		t.Fatalf("export = %q", sb.String())
	}
	if db.Pages() < 1 {
		t.Fatal("no pages")
	}
}

func TestSortedDocumentOrder(t *testing.T) {
	db := mustLoad(t, `<a><b i="1"/><c><b i="2"/></c><b i="3"/></a>`)
	q, _ := db.Query("/a//b")
	nodes := q.Sorted().Nodes()
	if len(nodes) != 3 {
		t.Fatalf("found %d", len(nodes))
	}
	var order []string
	for _, n := range nodes {
		c, _ := n.Query("@i")
		attrs := c.Nodes()
		order = append(order, attrs[0].Text())
	}
	if strings.Join(order, "") != "123" {
		t.Fatalf("order = %v", order)
	}
}

func TestMemoryLimitFallbackViaFacade(t *testing.T) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.3, Seed: 5, EntityScale: 0.01}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := db.Query("/site//keyword")
	limited := q.WithStrategy(Scan).WithMemoryLimit(2).Count()
	q2, _ := db.Query("/site//keyword")
	free := q2.WithStrategy(Scan).Count()
	if limited != free {
		t.Fatalf("fallback changed results: %d vs %d", limited, free)
	}
}

func TestStrategyNames(t *testing.T) {
	if Auto.String() != "auto" || Simple.String() != "simple" || Schedule.String() != "xschedule" || Scan.String() != "xscan" {
		t.Fatal("strategy names")
	}
}

func TestInsertAndDeleteViaFacade(t *testing.T) {
	db := mustLoad(t, `<inventory><item sku="a"/><item sku="c"/></inventory>`)
	q, _ := db.Query("/inventory/item")
	if q.Count() != 2 {
		t.Fatal("precondition")
	}

	// Append.
	root := firstNode(t, db, "/inventory")
	n, err := db.InsertXML(root, `<item sku="d"><note>appended</note></item>`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "item" {
		t.Fatalf("inserted name = %q", n.Name())
	}

	// Insert before the second original item.
	items, _ := db.Query("/inventory/item")
	sorted := items.Sorted().Nodes()
	if _, err := db.InsertXMLBefore(root, sorted[1], `<item sku="b"/>`); err != nil {
		t.Fatal(err)
	}

	items, _ = db.Query("/inventory/item")
	var skus []string
	for _, it := range items.Sorted().Nodes() {
		a, _ := it.Query("@sku")
		skus = append(skus, a.Nodes()[0].Text())
	}
	if strings.Join(skus, "") != "abcd" {
		t.Fatalf("sku order = %v", skus)
	}

	// Delete one and verify with every strategy.
	if err := db.Delete(sorted[1]); err != nil { // the original "c"
		t.Fatal(err)
	}
	for _, s := range []Strategy{Simple, Schedule, Scan} {
		q, _ := db.Query("/inventory/item")
		if got := q.WithStrategy(s).Count(); got != 3 {
			t.Fatalf("%v count after delete = %d, want 3", s, got)
		}
	}
}

func firstNode(t *testing.T, db *DB, path string) Node {
	t.Helper()
	q, err := db.Query(path)
	if err != nil {
		t.Fatal(err)
	}
	ns := q.Nodes()
	if len(ns) == 0 {
		t.Fatalf("no results for %s", path)
	}
	return ns[0]
}

func TestInsertErrorsViaFacade(t *testing.T) {
	db := mustLoad(t, `<a/>`)
	root := firstNode(t, db, "/a")
	if _, err := db.InsertXML(root, `<broken`); err == nil {
		t.Fatal("broken fragment accepted")
	}
	if _, err := db.InsertXML(root, `<x/><y/>`); err == nil {
		t.Fatal("multi-root fragment accepted")
	}
}

func TestQueryPlanExplainTree(t *testing.T) {
	db := mustLoad(t, `<a><b/></a>`)
	q, _ := db.Query("/a//b")
	plan := q.WithStrategy(Scan).Plan()
	if !strings.Contains(plan, "XScan") || !strings.Contains(plan, "XAssembly") {
		t.Fatalf("plan = %q", plan)
	}
	// A sorted union is drained, never pulled live; its plan is still its
	// first branch's.
	q, _ = db.Query("/a//b | /a/b")
	if plan := q.Sorted().Plan(); !strings.Contains(plan, "XScan") {
		t.Fatalf("sorted union plan = %q", plan)
	}
}

func TestCollectionViaFacade(t *testing.T) {
	docs := [][]byte{
		[]byte(`<lib><book>one</book></lib>`),
		[]byte(`<lib><book>two</book><book>three</book></lib>`),
	}
	db, err := LoadXMLCollection(docs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Documents() != 2 {
		t.Fatalf("documents = %d", db.Documents())
	}
	for _, s := range []Strategy{Simple, Schedule, Scan} {
		q, _ := db.Query("/lib/book")
		if got := q.WithStrategy(s).Count(); got != 3 {
			t.Fatalf("%v collection count = %d, want 3", s, got)
		}
	}
	// Sorted results respect collection order.
	q, _ := db.Query("/lib/book")
	var texts []string
	for _, n := range q.Sorted().Nodes() {
		texts = append(texts, n.Text())
	}
	if strings.Join(texts, ",") != "one,two,three" {
		t.Fatalf("collection order = %v", texts)
	}
	if _, err := LoadXMLCollection([][]byte{[]byte("<bad")}, Options{}); err == nil {
		t.Fatal("broken member accepted")
	}
}

func TestPredicatesViaFacade(t *testing.T) {
	db := mustLoad(t, `<shop>
		<item id="a"><price>10</price><tag>sale</tag></item>
		<item id="b"><price>20</price></item>
		<item id="c"><price>10</price><tag>new</tag></item>
	</shop>`)
	q, err := db.Query(`/shop/item[tag]`)
	if err != nil {
		t.Fatal(err)
	}
	if n := q.Count(); n != 2 {
		t.Fatalf("item[tag] = %d, want 2", n)
	}
	q, _ = db.Query(`/shop/item[tag="sale"]/@id`)
	nodes := q.Nodes()
	if len(nodes) != 1 || nodes[0].Text() != "a" {
		t.Fatalf("sale item = %v", nodes)
	}
	q, _ = db.Query(`//item[price="10"][tag]`)
	if n := q.Count(); n != 2 {
		t.Fatalf("double predicate = %d, want 2", n)
	}
	// All strategies agree.
	for _, s := range []Strategy{Simple, Schedule, Scan} {
		q, _ := db.Query(`//item[price="10"]`)
		if n := q.WithStrategy(s).Count(); n != 2 {
			t.Fatalf("%v predicate count = %d", s, n)
		}
	}
}

func TestUnionQueriesViaFacade(t *testing.T) {
	db := mustLoad(t, `<site>
		<desc>one</desc>
		<note><desc>two</desc></note>
		<mail>hi</mail>
	</site>`)
	for _, s := range []Strategy{Auto, Simple, Schedule, Scan} {
		q, err := db.Query(`//desc | //mail`)
		if err != nil {
			t.Fatal(err)
		}
		if n := q.WithStrategy(s).Count(); n != 3 {
			t.Fatalf("%v union count = %d, want 3", s, n)
		}
	}
	// Overlapping branches deduplicate (node-set semantics).
	q, _ := db.Query(`//desc | /site/desc`)
	if n := q.Count(); n != 2 {
		t.Fatalf("overlap union = %d, want 2", n)
	}
	// Sorted union respects document order across branches.
	q, _ = db.Query(`//mail | //desc`)
	nodes := q.Sorted().Nodes()
	var texts []string
	for _, n := range nodes {
		texts = append(texts, n.Text())
	}
	if strings.Join(texts, ",") != "one,two,hi" {
		t.Fatalf("union order = %v", texts)
	}
	// Each over a union.
	seen := 0
	q, _ = db.Query(`//desc | //mail`)
	q.Each(func(Node) bool { seen++; return true })
	if seen != 3 {
		t.Fatalf("Each over union = %d", seen)
	}
}

func TestVolumeStatsViaFacade(t *testing.T) {
	db := mustLoad(t, `<a><b>x</b><c/></a>`)
	vs := db.VolumeStats()
	if vs.Pages < 1 || vs.CoreNodes != 5 || vs.UsedBytes == 0 {
		t.Fatalf("stats = %+v", vs)
	}
	if vs.Records < vs.CoreNodes {
		t.Fatal("records < core nodes")
	}
}

func TestIOTraceViaFacade(t *testing.T) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.2, Seed: 4, EntityScale: 0.01}, Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	db.SetIOTrace(true)
	q, _ := db.Query("/site//keyword")
	q.WithStrategy(Scan).Count()
	tr := db.IOTrace()
	if len(tr) == 0 {
		t.Fatal("no trace events")
	}
	seq := 0
	for _, ev := range tr {
		if ev.Op == "read-seq" {
			seq++
		}
	}
	if seq < len(tr)/2 {
		t.Fatalf("scan trace not sequential: %d of %d", seq, len(tr))
	}
	db.SetIOTrace(false)
}
