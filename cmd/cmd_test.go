// Package cmd_test runs the command-line tools end to end through `go
// run`, checking that every binary builds and produces sane output on a
// real document. These are integration tests; skip with -short.
package cmd_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// run executes a tool via `go run` from the repository root.
func run(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = ".." // repo root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	docPath := filepath.Join(dir, "doc.xml")

	// xmarkgen writes a document.
	out := run(t, "./cmd/xmarkgen", "-sf", "0.2", "-scale", "0.01", "-seed", "5", "-o", docPath)
	if out != "" {
		t.Fatalf("xmarkgen output: %q", out)
	}
	data, err := os.ReadFile(docPath)
	if err != nil || !strings.Contains(string(data), "<site>") {
		t.Fatalf("generated doc bad: %v", err)
	}

	// xpathq evaluates a query against it, for each strategy plus auto.
	var counts []string
	for _, strat := range []string{"simple", "xschedule", "xscan", "auto"} {
		out = run(t, "./cmd/xpathq", "-xml", docPath, "-q", "/site/regions//item",
			"-strategy", strat, "-explain", "-plan")
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "count(") {
				line = l
			}
		}
		if line == "" {
			t.Fatalf("xpathq (%s) printed no count:\n%s", strat, out)
		}
		counts = append(counts, strings.Fields(line)[2])
		if !strings.Contains(out, "cost:") {
			t.Fatalf("xpathq (%s) printed no cost report", strat)
		}
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("strategies disagree across CLI runs: %v", counts)
		}
	}

	// xpathq -print serializes results.
	out = run(t, "./cmd/xpathq", "-xml", docPath, "-q", "/site/regions/africa/item", "-print")
	if !strings.Contains(out, "<item") {
		t.Fatalf("xpathq -print produced no items:\n%.300s", out)
	}

	// xvolume inspects the volume.
	out = run(t, "./cmd/xvolume", "-xml", docPath, "-tags")
	for _, want := range []string{"volume:", "records:", "dictionary:", "item"} {
		if !strings.Contains(out, want) {
			t.Fatalf("xvolume missing %q:\n%s", want, out)
		}
	}

	// xbench runs a tiny figure.
	out = run(t, "./cmd/xbench", "-scale", "0.01", "-quick", "-fig", "11")
	if !strings.Contains(out, "xschedule") || !strings.Contains(out, "0.25") {
		t.Fatalf("xbench figure output:\n%s", out)
	}

	// xbench -strategy restricts the sweep through ParseStrategy.
	out = run(t, "./cmd/xbench", "-scale", "0.01", "-quick", "-fig", "11", "-strategy", "xscan")
	if !strings.Contains(out, "xscan") {
		t.Fatalf("xbench -strategy output:\n%s", out)
	}
}

// TestQueryServer drives xserved over real sockets: a short read/write
// request loop, then the protocol-level contracts one by one — an expired
// timeout_ms answers 504 and withdraws the query's prefetches, a full
// admission queue answers 503 with Retry-After, /metrics stays a valid
// Prometheus text exposition throughout, and SIGTERM drains cleanly.
func TestQueryServer(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := filepath.Join(t.TempDir(), "xserved")
	build := exec.Command("go", "build", "-o", bin, "./cmd/xserved")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build xserved: %v\n%s", err, out)
	}

	// Small buffer so heavy queries always reach the simulated device
	// (prefetches in flight to withdraw), tight engine limits so a burst
	// overflows admission.
	srv := exec.Command(bin, "-xmark", "0.5", "-buffer", "64",
		"-inflight", "2", "-queue", "2", "-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = srv.Stdout
	if err := srv.Start(); err != nil {
		t.Fatalf("start xserved: %v", err)
	}
	defer srv.Process.Kill()

	sc := bufio.NewScanner(stdout)
	base := ""
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			base = "http://" + addr
			break
		}
	}
	if base == "" {
		t.Fatalf("xserved never reported its address: %v", sc.Err())
	}
	var rest strings.Builder
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			rest.WriteString(sc.Text() + "\n")
		}
	}()

	post := func(endpoint, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/"+endpoint, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/%s: %v", endpoint, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}
	metrics := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(base + "/v1/metrics")
		if err != nil {
			t.Fatalf("GET /v1/metrics: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		vals := make(map[string]float64)
		seenType := make(map[string]bool)
		ms := bufio.NewScanner(resp.Body)
		for ms.Scan() {
			line := ms.Text()
			if line == "" {
				continue
			}
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				seenType[strings.Fields(rest)[0]] = true
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("/metrics sample not `name value`: %q", line)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("/metrics value of %s: %v", fields[0], err)
			}
			if !seenType[fields[0]] {
				t.Fatalf("/metrics sample %s has no preceding # TYPE", fields[0])
			}
			if _, dup := vals[fields[0]]; dup {
				t.Fatalf("/metrics duplicate series %s", fields[0])
			}
			vals[fields[0]] = v
		}
		return vals
	}

	// A short loop drives the server end to end — reads through POST
	// /v1/query, every fourth request a write transaction through POST
	// /v1/update — and /v1/metrics must account for all of it. The pads
	// written under /site are invisible to the query, so its count is stable.
	const requests = 16
	writes, count := 0, -1
	for i := 0; i < requests; i++ {
		if i%4 == 3 {
			resp, data := post("update", `{"op": "insert", "parent": "/site", "xml": "<pad/>"}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("update %d: status %d: %s", i, resp.StatusCode, data)
			}
			writes++
			continue
		}
		resp, data := post("query", `{"path": "/site/regions//item"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, data)
		}
		var qr struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal(data, &qr); err != nil || qr.Count == 0 {
			t.Fatalf("query %d: response %s (%v)", i, data, err)
		}
		if count >= 0 && qr.Count != count {
			t.Fatalf("query %d: count %d, earlier requests saw %d", i, qr.Count, count)
		}
		count = qr.Count
	}
	m := metrics()
	if m["pathdb_engine_submitted_total"] < 8 {
		t.Fatalf("engine submitted_total = %v after %d reads", m["pathdb_engine_submitted_total"], requests-writes)
	}
	if writes < 1 || m["pathdb_txn_commits_total"] < float64(writes) {
		t.Fatalf("writes %d, txn commits_total %v", writes, m["pathdb_txn_commits_total"])
	}

	// An expired timeout_ms is a 504 and the cancelled query's prefetches
	// are withdrawn from the device queue — both visible in /metrics.
	timedOut := false
	for i := 0; i < 10 && !timedOut; i++ {
		resp, data := post("query", `{"path": "/site//description", "timeout_ms": 1, "strategy": "xschedule"}`)
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			timedOut = true
		case http.StatusOK, http.StatusServiceUnavailable:
		default:
			t.Fatalf("timeout probe: status %d: %s", resp.StatusCode, data)
		}
	}
	if !timedOut {
		t.Fatal("no 504 despite a 1ms budget on a heavy query")
	}
	// The 504 is written when the client's deadline fires; the engine
	// registers the cancellation at the query's next operator poll point,
	// which can land just after the response. Poll briefly.
	m = metrics()
	for i := 0; i < 50 && m["pathdb_engine_cancelled_total"] == 0; i++ {
		time.Sleep(20 * time.Millisecond)
		m = metrics()
	}
	if m["pathdb_engine_cancelled_total"] == 0 {
		t.Fatal("504 served but engine cancelled_total is 0")
	}
	if m["pathdb_ledger_async_withdrawn_total"] == 0 {
		t.Fatal("cancelled query's prefetches were not withdrawn")
	}
	if m["pathdb_server_timeouts_total"] == 0 {
		t.Fatal("server timeouts_total is 0 after a 504")
	}

	// A burst past MaxInFlight+QueueDepth sheds with 503 + Retry-After.
	var mu sync.Mutex
	codes := make(map[int]int)
	retryAfter := ""
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/query", "application/json",
				strings.NewReader(`{"path": "/site//description"}`))
			if err != nil {
				t.Errorf("burst POST: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			codes[resp.StatusCode]++
			if resp.StatusCode == http.StatusServiceUnavailable {
				retryAfter = resp.Header.Get("Retry-After")
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if codes[http.StatusOK] == 0 || codes[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("burst of 16 on a depth-4 engine: status codes %v", codes)
	}
	if _, err := strconv.Atoi(retryAfter); err != nil {
		t.Fatalf("503 Retry-After %q is not an integer", retryAfter)
	}
	m = metrics()
	if m["pathdb_engine_rejected_total"] == 0 {
		t.Fatal("503s served but engine rejected_total is 0")
	}
	if m["pathdb_server_shed_total"] == 0 {
		t.Fatal("503s served but server shed_total is 0")
	}

	// SIGTERM drains: the process exits 0 and reports completion.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("xserved did not exit within 30s of SIGTERM")
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("xserved exit: %v\n%s", err, rest.String())
	}
	if !strings.Contains(rest.String(), "drained") {
		t.Fatalf("xserved shutdown output:\n%s", rest.String())
	}
}

func TestShellSession(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cmd := exec.Command("go", "run", "./cmd/xshell", "-xmark", "0.2", "-scale", "0.01")
	cmd.Dir = ".."
	cmd.Stdin = strings.NewReader(
		"/site/regions//item\n" +
			"\\strategy xscan\n" +
			"\\plan /site\n" +
			"\\insert /site <extra/>\n" +
			"/site/extra\n" +
			"\\quit\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("xshell: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"pathdb shell", "count = ", "XScan(", "inserted", "count = 1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("shell output missing %q:\n%s", want, s)
		}
	}
}
