package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated (go run . -manifest > ../BENCHMARK.json); the
// names, units and bounds live in registry.go and workloads.go.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Fatal("BENCHMARK.json differs from -manifest; regenerate it")
	}
}

func TestManifestWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", n, u)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer, %d workloads: outside the limits", len(endToEnd), len(perLayer), len(workloads))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why of %d characters", w.name, len(w.why))
		}
		seen[w.name] = true
	}
	if len(manifest()) > 64<<10 {
		t.Error("manifest larger than 64 KiB")
	}
}
