package server

import (
	"fmt"
	"strings"

	"pathdb/internal/storage"
)

func boolGauge(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func counter(b *strings.Builder, name, help string, v float64) { series(b, name, help, "counter", v) }
func gauge(b *strings.Builder, name, help string, v float64)   { series(b, name, help, "gauge", v) }

func series(b *strings.Builder, name, help, typ string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
	fmt.Fprintf(b, "%s %g\n", name, v)
}

// labeledSample is one sample of a labeled series; labels is the rendered
// label set without braces, e.g. `shard="2"`.
type labeledSample struct {
	labels string
	v      float64
}

func labeledCounter(b *strings.Builder, name, help string, samples []labeledSample) {
	labeledSeries(b, name, help, "counter", samples)
}

func labeledGauge(b *strings.Builder, name, help string, samples []labeledSample) {
	labeledSeries(b, name, help, "gauge", samples)
}

// labeledSeries emits one metric with HELP/TYPE stated once and one sample
// line per label set — the exposition-format shape for per-shard and
// per-tenant breakdowns.
func labeledSeries(b *strings.Builder, name, help, typ string, samples []labeledSample) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
	for _, s := range samples {
		fmt.Fprintf(b, "%s{%s} %g\n", name, s.labels, s.v)
	}
}

// labelEscaper quotes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func labelValue(key, value string) string {
	return key + `="` + labelEscaper.Replace(value) + `"`
}

// derivedSeries are the counters of a volume's derived cache — the
// structural join's levels — on /v1/metrics: one sample from Server, one per
// shard from Router.
var derivedSeries = []struct {
	name, help string
	v          func(storage.DerivedMetrics) uint64
}{
	{"pathdb_derived_hits_total", "Derived-cache lookups that found their entry.", func(m storage.DerivedMetrics) uint64 { return m.Hits }},
	{"pathdb_derived_misses_total", "Derived-cache lookups that did not.", func(m storage.DerivedMetrics) uint64 { return m.Misses }},
	{"pathdb_derived_level_builds_total", "Levels enumerated from the whole document and admitted.", func(m storage.DerivedMetrics) uint64 { return m.LevelBuilds }},
	{"pathdb_derived_level_advances_total", "Levels carried across commits by the pages written.", func(m storage.DerivedMetrics) uint64 { return m.LevelAdvances }},
	{"pathdb_derived_pages_advanced_total", "Written pages the advances read.", func(m storage.DerivedMetrics) uint64 { return m.PagesAdvanced }},
	{"pathdb_derived_generations_dropped_total", "Derived generations dropped: full at a commit, a failed advance, or a reset.", func(m storage.DerivedMetrics) uint64 { return m.GenerationsDropped }},
}
