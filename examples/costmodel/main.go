// Cost-based plan choice (the paper's outlook, Sec. 7): the chooser
// estimates each query's physical coverage from per-cluster tag statistics,
// prices the three plans against what the buffer pool holds, and picks the
// cheapest. On an empty pool that is XScan for low-selectivity paths and
// XSchedule for selective ones — the paper's findings; once the volume is
// resident nothing is left to reorder and the plain Simple plan wins. The
// example prints both decisions and verifies each by measuring all three.
package main

import (
	"fmt"
	"log"

	"pathdb"
)

func main() {
	// The default 1000-page pool holds the whole volume.
	db, err := pathdb.GenerateXMark(
		pathdb.XMarkConfig{ScaleFactor: 1, Seed: 7, EntityScale: 0.05},
		pathdb.Options{},
	)
	if err != nil {
		log.Fatal(err)
	}

	queries := []string{
		"/site//description", // touches nearly everything -> scan
		"/site/closed_auctions/closed_auction/annotation/description" +
			"/parlist/listitem/parlist/listitem/text/emph/keyword", // selective -> schedule
		"/site/regions//item",              // near the crossover
		"/site/people/person/emailaddress", // selective child chain
	}
	strategies := []pathdb.Strategy{pathdb.Schedule, pathdb.Scan, pathdb.Simple}

	for _, src := range queries {
		q, err := db.Query(src)
		if err != nil {
			log.Fatal(err)
		}
		// measure runs the query under every strategy and names the
		// cheapest on the virtual clock; flush decides whether each run
		// starts on an empty pool or on whatever the last one left.
		measure := func(flush bool) {
			fmt.Print("  measured:")
			best, bestCost := pathdb.Auto, 0.0
			for _, s := range strategies {
				if flush {
					db.ResetStats()
				}
				before := db.CostReport().Total
				qq, _ := db.Query(src)
				qq.WithStrategy(s).Count()
				cost := (db.CostReport().Total - before).Seconds()
				fmt.Printf(" %s %.3fs", s, cost)
				if best == pathdb.Auto || cost < bestCost {
					best, bestCost = s, cost
				}
			}
			fmt.Printf(" -> %s wins\n", best)
		}

		fmt.Println(src)
		db.ResetStats() // the previous path's runs left pages in the pool
		fmt.Printf("  empty pool:    %s\n", q.Explain())
		measure(true)

		// The measurement's last run left its pages in the pool; a scan
		// brings in the rest.
		scan, _ := db.Query(src)
		scan.WithStrategy(pathdb.Scan).Count()
		fmt.Printf("  resident pool: %s\n", q.Explain())
		measure(false)
		fmt.Println()
	}
}
