package pathdb_test

import (
	"fmt"
	"log"

	"pathdb"
)

// The basic flow: load, query, read results.
func Example() {
	db, err := pathdb.LoadXMLString(
		`<library><book year="1993">Query Evaluation</book>`+
			`<book year="2004">ORDPATHs</book></library>`, pathdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	q, err := db.Query("/library/book")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("books:", q.Count())
	for _, b := range q.Sorted().Nodes() {
		fmt.Println(b.Text())
	}
	// Output:
	// books: 2
	// Query Evaluation
	// ORDPATHs
}

// Predicates filter by nested paths and string values.
func ExampleQuery_predicates() {
	db, _ := pathdb.LoadXMLString(
		`<shop><item><price>10</price></item><item><price>20</price></item></shop>`,
		pathdb.Options{})
	q, _ := db.Query(`/shop/item[price="10"]`)
	fmt.Println(q.Count())
	// Output: 1
}

// Unions merge node sets, deduplicated.
func ExampleQuery_union() {
	db, _ := pathdb.LoadXMLString(`<a><b/><c/><b/></a>`, pathdb.Options{})
	q, _ := db.Query(`/a/b | /a/c | //b`)
	fmt.Println(q.Count())
	// Output: 3
}

// Every query can be forced onto one of the paper's three physical
// strategies; results never change, only the physical cost does.
func ExampleQuery_withStrategy() {
	db, _ := pathdb.LoadXMLString(`<a><b/><b/></a>`, pathdb.Options{})
	for _, s := range []pathdb.Strategy{pathdb.Simple, pathdb.Schedule, pathdb.Scan} {
		q, _ := db.Query("/a/b")
		fmt.Println(s, q.WithStrategy(s).Count())
	}
	// Output:
	// simple 2
	// xschedule 2
	// xscan 2
}

// Plan prints the physical operator tree (EXPLAIN).
func ExampleQuery_plan() {
	db, _ := pathdb.LoadXMLString(`<a><b/></a>`, pathdb.Options{})
	q, _ := db.Query("/a/descendant::b")
	fmt.Print(q.WithStrategy(pathdb.Scan).Plan())
	// Output:
	// XAssembly(|π|=2, feedback→none (scan plan))
	//   XStep₂(descendant::b)
	//     XStep₁(child::a)
	//       XScan(1 clusters, sequential)
	//         Context(1 nodes)
	// order: none
}

// Relative queries start from a previously found node.
func ExampleNode_Query() {
	db, _ := pathdb.LoadXMLString(`<a><b><c>x</c></b><b/></a>`, pathdb.Options{})
	q, _ := db.Query("/a/b")
	first := q.Sorted().Nodes()[0]
	sub, _ := first.Query("c")
	fmt.Println(sub.Count())
	// Output: 1
}

// Updates insert parsed fragments without disturbing existing nodes.
func ExampleDB_InsertXML() {
	db, _ := pathdb.LoadXMLString(`<inv><item n="a"/></inv>`, pathdb.Options{})
	q, _ := db.Query("/inv")
	root := q.Nodes()[0]
	if _, err := db.InsertXML(root, `<item n="b"/>`); err != nil {
		log.Fatal(err)
	}
	q, _ = db.Query("/inv/item")
	fmt.Println(q.Count())
	// Output: 2
}
