package server

import (
	"fmt"
	"strings"
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
