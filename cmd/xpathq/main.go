// Command xpathq evaluates one location path against a document and
// reports the results together with the physical cost ledger, making the
// effect of the three plan strategies visible.
//
// Usage:
//
//	xpathq -xml doc.xml -q '/site//item' [-strategy auto|simple|xschedule|xscan]
//	xpathq -xmark 1 -q '/site//description' -strategy xscan -stats
//
// With -print the result nodes are serialized; otherwise the cardinality
// is reported (count(...) semantics, as in the paper's Q6' and Q7).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pathdb"
)

func main() {
	xmlFile := flag.String("xml", "", "XML document to load")
	xmarkSF := flag.Float64("xmark", 0, "generate an XMark document with this scale factor instead")
	seed := flag.Uint64("seed", 42, "seed for -xmark and fragmented layouts")
	scale := flag.Float64("scale", 0.1, "entity scale for -xmark")
	query := flag.String("q", "", "location path to evaluate (required)")
	strategy := flag.String("strategy", "auto", "plan strategy: auto, simple, xschedule, xscan")
	layoutName := flag.String("layout", "natural", "physical layout: natural, contiguous, shuffled")
	buffer := flag.Int("buffer", 0, "buffer pool pages (default 1000)")
	sorted := flag.Bool("sorted", false, "return results in document order")
	limit := flag.Int("limit", 0, "stop after N results (0 = all)")
	timeoutMS := flag.Int64("timeout", 0, "per-query budget in milliseconds (0 = none)")
	print := flag.Bool("print", false, "serialize result nodes instead of counting")
	explain := flag.Bool("explain", false, "show the cost-model decision")
	showPlan := flag.Bool("plan", false, "show the physical operator tree")
	stats := flag.Bool("stats", true, "show the physical cost report")
	trace := flag.Int("trace", 0, "print the first N I/O trace events")
	flag.Parse()

	if *query == "" {
		fail("missing -q")
	}
	strat, err := pathdb.ParseStrategy(*strategy)
	if err != nil {
		fail("%v", err)
	}
	layout, ok := map[string]pathdb.Layout{
		"natural": pathdb.Natural, "contiguous": pathdb.Contiguous, "shuffled": pathdb.Shuffled,
	}[*layoutName]
	if !ok {
		fail("unknown -layout %q", *layoutName)
	}

	opts := pathdb.Options{Layout: layout, LayoutSeed: *seed, BufferPages: *buffer}
	var db *pathdb.DB
	switch {
	case *xmlFile != "":
		data, rerr := os.ReadFile(*xmlFile)
		if rerr != nil {
			fail("%v", rerr)
		}
		db, err = pathdb.LoadXML(data, opts)
	case *xmarkSF > 0:
		db, err = pathdb.GenerateXMark(pathdb.XMarkConfig{ScaleFactor: *xmarkSF, Seed: *seed, EntityScale: *scale}, opts)
	default:
		fail("need -xml or -xmark")
	}
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("document: %d pages\n", db.Pages())

	// The whole query configuration travels in one QueryOptions — the same
	// struct Session.Do, Session.Stream, QueryCtx and the /v1 API take.
	qopts := pathdb.QueryOptions{
		Strategy: strat,
		Sorted:   *sorted,
		Limit:    *limit,
		Timeout:  time.Duration(*timeoutMS) * time.Millisecond,
	}

	if *explain || *showPlan {
		q, qerr := db.Query(*query)
		if qerr != nil {
			fail("%v", qerr)
		}
		if *sorted {
			q.Sorted()
		}
		// The decision depends on what the pool holds. Building the cost
		// model reads no page, so the decision and the plan printed are
		// the ones the run below gets on the pool the load left empty.
		if *explain {
			c := q.Choice()
			fmt.Println("cost model:", q.Explain())
			fmt.Printf("  chosen:   %s\n", c.Strategy)
			fmt.Printf("  coverage: %.1f%% (~%d of %d pages touched), resident %.0f %%\n",
				100*c.Coverage, c.PagesTouched, db.Pages(), 100*c.Residency)
			fmt.Printf("  estimate: xschedule=%v xscan=%v simple=%v\n",
				c.ScheduleCost, c.ScanCost, c.SimpleCost)
			// The plan's last line says whether it sorts, or delivers
			// document order by its shape.
			_, order, _ := strings.Cut(q.WithStrategy(strat).Plan(), "order: ")
			fmt.Printf("  order:    %s", order)
		}
		if *showPlan {
			fmt.Print(q.WithStrategy(strat).Plan())
		}
	}

	db.ResetStats()
	if *trace > 0 {
		db.SetIOTrace(true)
	}
	if *print {
		// Streamed delivery: nodes print as the cursor produces them, and
		// -limit stops evaluation instead of trimming a buffered result.
		cur, cerr := db.QueryStream(context.Background(), *query, qopts)
		if cerr != nil {
			fail("%v", cerr)
		}
		n := 0
		for cur.Next() {
			fmt.Println(cur.Node().XML())
			n++
		}
		cur.Close()
		if cerr := cur.Err(); cerr != nil {
			fail("%v", cerr)
		}
		fmt.Printf("-- %d results (%s)\n", n, strat)
	} else {
		res, qerr := db.QueryCtx(context.Background(), *query, qopts)
		if qerr != nil {
			fail("%v", qerr)
		}
		fmt.Printf("count(%s) = %d  [%s]\n", *query, res.Count(), strat)
	}
	if *stats {
		fmt.Println("cost:", db.CostReport())
	}
	if *trace > 0 {
		events := db.IOTrace()
		fmt.Printf("I/O trace (%d events, showing %d):\n", len(events), min(*trace, len(events)))
		for i, ev := range events {
			if i >= *trace {
				break
			}
			fmt.Printf("  %-10s page %-6d at %v\n", ev.Op, ev.Page, ev.At)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xpathq: "+format+"\n", args...)
	os.Exit(1)
}
