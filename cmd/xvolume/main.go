// Command xvolume inspects a stored volume: physical layout, record
// population, per-tag footprints (the statistics the cost-based chooser
// runs on) and page-utilisation histogram.
//
// Usage:
//
//	xvolume -xml doc.xml [-layout shuffled] [-tags] [-util]
//	xvolume -xmark 1 -scale 0.05 -tags
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"pathdb/internal/plan"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmark"
	"pathdb/internal/xmlparse"
	"pathdb/internal/xmltree"
)

func main() {
	xmlFile := flag.String("xml", "", "XML document to load")
	xmarkSF := flag.Float64("xmark", 0, "generate an XMark document with this scale factor instead")
	seed := flag.Uint64("seed", 42, "seed")
	scale := flag.Float64("scale", 0.1, "entity scale for -xmark")
	layoutName := flag.String("layout", "natural", "physical layout: natural, contiguous, shuffled, reverse")
	pageSize := flag.Int("pagesize", 8192, "page size in bytes")
	tags := flag.Bool("tags", false, "print per-tag footprints")
	util := flag.Bool("util", false, "print the page-utilisation histogram")
	flag.Parse()

	layout, ok := map[string]storage.Layout{
		"natural": storage.LayoutNatural, "contiguous": storage.LayoutContiguous,
		"shuffled": storage.LayoutShuffled, "reverse": storage.LayoutReverse,
	}[*layoutName]
	if !ok {
		fail("unknown layout %q", *layoutName)
	}

	dict := xmltree.NewDictionary()
	var doc *xmltree.Node
	switch {
	case *xmlFile != "":
		data, err := os.ReadFile(*xmlFile)
		if err != nil {
			fail("%v", err)
		}
		doc, err = xmlparse.Parse(dict, data)
		if err != nil {
			fail("%v", err)
		}
	case *xmarkSF > 0:
		doc = xmark.Generate(dict, xmark.Config{ScaleFactor: *xmarkSF, Seed: *seed, EntityScale: *scale})
	default:
		fail("need -xml or -xmark")
	}

	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), *pageSize)
	st, err := storage.Import(disk, dict, doc, storage.ImportOptions{
		PageSize: *pageSize, Layout: layout, Seed: *seed,
	})
	if err != nil {
		fail("%v", err)
	}

	vs := st.Stats()
	fmt.Printf("volume: %d data pages (%s layout, %d B pages)\n", vs.DataPages, layout, *pageSize)
	fmt.Printf("records: %d total, %d core nodes, %d border nodes (%d proxy pairs)\n",
		vs.Records, vs.CoreNodes, vs.BorderNodes, vs.BorderNodes/2)
	fmt.Printf("payload: %d bytes used, %.1f%% average page utilisation\n",
		vs.UsedBytes, 100*float64(vs.UsedBytes)/float64(vs.DataPages**pageSize))
	fmt.Printf("dictionary: %d distinct tags\n", dict.Len())

	if *tags {
		ds := plan.NewChooser(st).Stats()
		type row struct {
			name string
			ts   plan.TagStats
		}
		var rows []row
		for tag, ts := range ds.Tags {
			rows = append(rows, row{dict.Name(tag), ts})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].ts.Count > rows[j].ts.Count })
		fmt.Printf("\n%-20s %10s %10s %14s\n", "tag", "count", "pages", "subtree-pages")
		for _, r := range rows {
			fmt.Printf("%-20s %10d %10d %14d\n", r.name, r.ts.Count, r.ts.Pages, r.ts.SubtreePages)
		}
	}

	if *util {
		hist := st.PageUtilization(10)
		fmt.Printf("\npage utilisation histogram (%d buckets):\n", len(hist))
		max := 1
		for _, c := range hist {
			if c > max {
				max = c
			}
		}
		for i, c := range hist {
			bar := ""
			for j := 0; j < 40*c/max; j++ {
				bar += "#"
			}
			fmt.Printf("%3d-%3d%% %6d %s\n", i*10, (i+1)*10, c, bar)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xvolume: "+format+"\n", args...)
	os.Exit(1)
}
