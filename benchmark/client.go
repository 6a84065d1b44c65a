package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"pathdb"
	"pathdb/internal/stats"
	"pathdb/internal/storage"

	"pathdb/benchmark/load"
)

// padFragment is what a write transaction inserts: ten nodes under tags no
// read path matches, so the read oracle holds while writes run. mark is an
// empty element that names the fragment, so its owner can find it again by
// path should its handle go stale.
func padFragment(mark string) string {
	return "<benchpad><" + mark + "/><note>cost sensitive</note><note>reordering</note><pad><k>one</k><k>two</k></pad></benchpad>"
}

// heldMax is how many fragments a client keeps before each further write
// deletes its oldest one: the volume stops growing after warm-up.
const heldMax = 8

// sample is the outcome of one request.
type sample struct {
	req   load.Request
	start time.Time
	total time.Duration // submit to last node drained, or commit call to return
	ttfr  time.Duration // submit to first node available to the caller
	open  time.Duration // submit to cursor returned (streamed reads)
	count int
	bytes int // response body bytes (HTTP)

	costV    stats.Ticks
	gang     int // size of the gang the request (a union's first branch) ran in
	queue    time.Duration
	exec     time.Duration
	shardSum time.Duration // sum of the shards' execution times (cluster)
	cached   int           // shards that answered a count from their cache

	insert      bool // a write that inserted (false: it deleted)
	afterCommit bool // first read of this client after one of its commits
	inflight    int64
	pinned      int
	fail        string // why the request counts as failed; empty if it passed
}

// client is one closed-loop caller: it sends its next request only after
// the previous one completed.
type client struct {
	f   *fixture
	id  int // unique among the fixture's clients
	ses *pathdb.Session
	hc  *http.Client

	oracle     map[string]int
	checkOrder bool
	rec        *load.Recorder // spans, traced pass only
	probe      *ladder        // xpath.parse / plan.choose probes, traced pass only

	inproc    bool          // sharded fixture: call Cluster.Stream directly, not HTTP
	held      []heldPad     // fragments this client inserted and not yet deleted
	inserts   int           // fragments inserted so far (names the next one)
	draining  bool          // every further write deletes (drainHeld)
	committed bool          // a commit of this client has not been followed by a read yet
	nodes     []pathdb.Node // reused buffer for the order check
	busy      time.Duration // time inside calls into the system
}

// heldPad is one inserted fragment: its handle, and the mark element that
// finds it by path.
type heldPad struct {
	node pathdb.Node
	mark string
}

func newClient(f *fixture, oracle map[string]int) *client {
	c := &client{f: f, oracle: oracle, id: int(f.clients.Add(1))}
	if f.cl != nil {
		// One keep-alive connection per client.
		c.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	} else {
		c.ses = f.eng.NewSession()
	}
	return c
}

func (c *client) close() {
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
}

// run replays reqs in order and returns one sample per request.
func (c *client) run(reqs []load.Request) []sample {
	out := make([]sample, 0, len(reqs))
	for _, q := range reqs {
		out = append(out, c.do(q))
	}
	return out
}

func (c *client) do(q load.Request) sample {
	s := sample{req: q, start: time.Now()}
	root := -1
	if c.rec != nil {
		root = c.rec.Begin("request", -1, q.ID)
		if q.Kind != load.Write {
			c.probe.traceParseChoose(c.rec, root, q)
		}
	}
	switch {
	case q.Kind == load.Write && c.hc != nil:
		c.writeHTTP(&s, root)
	case q.Kind == load.Write:
		c.writeEngine(&s, root)
	case c.inproc:
		c.streamCluster(&s, root)
	case c.hc != nil && q.Kind == load.Count:
		c.countHTTP(&s, root)
	case c.hc != nil:
		c.streamHTTP(&s, root)
	case c.f.w.api == apiDo:
		c.readDo(&s, root)
	default:
		c.readStream(&s, root)
	}
	c.busy += s.total
	if c.rec != nil {
		c.rec.End(root)
	}
	if q.Kind == load.Write {
		c.committed = s.fail == ""
		return s
	}
	s.afterCommit, c.committed = c.committed, false
	if s.fail == "" {
		if want, ok := c.oracle[q.Path]; ok && s.count != want {
			s.fail = fmt.Sprintf("count %d, oracle %d", s.count, want)
		}
	}
	return s
}

func queryOptions(q load.Request) pathdb.QueryOptions {
	return pathdb.QueryOptions{Sorted: q.Sorted}
}

// readStream opens a cursor and drains it.
func (c *client) readStream(s *sample, root int) {
	t0 := time.Now()
	cur, err := c.ses.Stream(context.Background(), s.req.Path, queryOptions(s.req))
	s.open = time.Since(t0)
	if err != nil {
		s.total, s.fail = s.open, err.Error()
		return
	}
	keep := c.checkOrder && s.req.Sorted
	c.nodes = c.nodes[:0]
	for cur.Next() {
		if s.count == 0 {
			s.ttfr = time.Since(t0)
		}
		s.count++
		if keep {
			c.nodes = append(c.nodes, cur.Node())
		}
	}
	s.total = time.Since(t0)
	if s.count == 0 {
		s.ttfr = s.total
	}
	err = cur.Err()
	sum, ok := cur.Summary()
	cur.Close()
	if err != nil || !ok {
		s.fail = fmt.Sprintf("stream ended without a summary: %v", err)
		return
	}
	s.costV, s.gang, s.queue, s.exec = sum.CostV, sum.Gang, sum.WallQueue, sum.WallExec
	if keep {
		for i := 1; i < len(c.nodes); i++ {
			if pathdb.CompareDocOrder(c.nodes[i-1], c.nodes[i]) >= 0 {
				s.fail = fmt.Sprintf("sorted result not strictly increasing at node %d", i)
				break
			}
		}
	}
	if c.rec != nil {
		c.rec.Add("pathdb.submit", root, s.req.ID, t0, s.open)
		c.rec.Add("engine.queue", root, s.req.ID, t0, s.queue)
		c.rec.Add("engine.exec", root, s.req.ID, t0.Add(s.queue), s.exec)
		c.rec.Add("pathdb.first_node", root, s.req.ID, t0.Add(s.open), s.ttfr-s.open)
		c.rec.Add("pathdb.drain", root, s.req.ID, t0.Add(s.ttfr), s.total-s.ttfr)
	}
}

// readDo is the buffered call: the first node is available when it returns.
func (c *client) readDo(s *sample, root int) {
	t0 := time.Now()
	res, err := c.ses.Do(context.Background(), s.req.Path, queryOptions(s.req))
	s.total = time.Since(t0)
	s.ttfr = s.total
	if err != nil {
		s.fail = err.Error()
		return
	}
	s.count = res.Count()
	s.costV, s.gang, s.queue, s.exec = res.CostV, res.Gang, res.WallQueue, res.WallExec
	if c.rec != nil {
		c.rec.Add("engine.queue", root, s.req.ID, t0, s.queue)
		c.rec.Add("engine.exec", root, s.req.ID, t0.Add(s.queue), s.exec)
	}
}

// writeEngine runs one write transaction: delete this client's oldest
// fragment once it holds heldMax, otherwise insert one under a seeded
// person. Node handles can go stale when an insert elsewhere in the page
// relocates records (the library documents this and asks callers to resolve
// again): the client then resolves the target by path and repeats the
// transaction once. Only the transaction that commits is timed.
func (c *client) writeEngine(s *sample, root int) {
	s.insert = len(c.held) < heldMax && !c.draining
	var (
		inserted pathdb.Node
		mark     = fmt.Sprintf("c%ds%d", c.id, c.inserts%heldMax)
		err      error
		t0       time.Time
	)
	for attempt := 0; attempt < 2; attempt++ {
		var target pathdb.Node
		if s.insert {
			target, err = c.f.insertParent(s.req.Target, attempt > 0)
		} else if target = c.held[0].node; attempt > 0 {
			target, err = c.resolvePad(c.held[0].mark)
		}
		if err != nil {
			break
		}
		t0 = time.Now()
		err = c.f.eng.Update(func(tx *pathdb.Tx) error {
			if !s.insert {
				return tx.Delete(target)
			}
			n, ierr := tx.InsertXML(target, padFragment(mark))
			inserted = n
			return ierr
		})
		s.total = time.Since(t0)
		if !staleHandle(err) {
			break
		}
		c.f.staleRetries.Add(1)
	}
	if c.rec != nil {
		c.rec.Add("txn.commit", root, s.req.ID, t0, s.total)
	}
	s.pinned = c.f.eng.TxnMetrics().Pinned
	if err != nil {
		s.fail = err.Error()
		return
	}
	if s.insert {
		c.held = append(c.held, heldPad{inserted, mark})
		c.inserts++
	} else {
		c.held = c.held[1:]
	}
}

// staleHandle reports whether a write failed because its node handle no
// longer names the node: the slot now holds the proxy left by a relocation,
// or nothing.
func staleHandle(err error) bool {
	return errors.Is(err, storage.ErrNotElement) || errors.Is(err, storage.ErrIsRoot) || errors.Is(err, storage.ErrGone)
}

// resolvePad finds this client's fragment that carries mark.
func (c *client) resolvePad(mark string) (pathdb.Node, error) {
	path := "/site/people/person/benchpad[" + mark + "]"
	res, err := c.ses.Do(context.Background(), path, pathdb.QueryOptions{})
	if err == nil && res.Count() != 1 {
		err = fmt.Errorf("%s matches %d nodes, want 1", path, res.Count())
	}
	if err != nil {
		return pathdb.Node{}, err
	}
	return res.Nodes[0], nil
}

// streamCluster drains the cluster's merge cursor in-process: the same
// request as streamHTTP without the server around it. Stream returns once
// every shard's first node is on the merge heap, so its return is the
// scatter and the loop is the merge.
func (c *client) streamCluster(s *sample, root int) {
	t0 := time.Now()
	sc, err := c.f.cl.Stream(context.Background(), s.req.Path, pathdb.QueryOptions{})
	s.open = time.Since(t0)
	s.ttfr = s.open
	if err != nil {
		s.total, s.fail = s.open, err.Error()
		return
	}
	for sc.Next() {
		s.count++
	}
	s.total = time.Since(t0)
	err = sc.Err()
	sc.Close()
	sum, ok := sc.Summary()
	if err != nil || !ok || sum.Partial {
		s.fail = fmt.Sprintf("cluster stream: err=%v summary=%v", err, ok)
		return
	}
	for _, ps := range sum.PerShard {
		s.costV += ps.CostV
		d := time.Duration(ps.WallExec)
		s.shardSum += d
		s.exec = max(s.exec, d)
	}
	if c.rec != nil {
		c.rec.Add("shard.scatter", root, s.req.ID, t0, s.open)
		c.rec.Add("shard.merge", root, s.req.ID, t0.Add(s.open), s.total-s.open)
	}
}

// drainHeld deletes the fragments the client still holds, one commit each.
func (c *client) drainHeld() []sample {
	c.draining = true
	var out []sample
	for len(c.held) > 0 {
		s := c.do(load.Request{ID: -1, Kind: load.Write})
		out = append(out, s)
		if s.fail != "" {
			break
		}
	}
	return out
}

// post sends one JSON body and returns the response. A shed request (503,
// 429) is a failure: the workloads are sized so that none is.
func (c *client) post(endpoint string, body any, ndjson bool) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.f.base+endpoint, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

var summaryPrefix = []byte(`{"summary":true`)

// streamHTTP reads one NDJSON node stream. Node lines are counted, not
// decoded, so the client's own cost stays small beside the server's.
func (c *client) streamHTTP(s *sample, root int) {
	t0 := time.Now()
	resp, err := c.post("/v1/query", map[string]any{"path": s.req.Path}, true)
	if err != nil {
		s.total, s.fail = time.Since(t0), err.Error()
		return
	}
	defer resp.Body.Close()
	var sum struct {
		Count   int    `json:"count"`
		CostVNs int64  `json:"cost_v_ns"`
		Partial bool   `json:"partial"`
		Error   string `json:"error"`
	}
	sawSummary := false
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		s.bytes += len(line)
		if len(line) > 1 {
			if bytes.HasPrefix(line, summaryPrefix) {
				sawSummary = json.Unmarshal(line, &sum) == nil
			} else {
				if s.count == 0 {
					s.ttfr = time.Since(t0)
					s.inflight = c.f.rt.InFlight()
				}
				s.count++
			}
		}
		if err != nil {
			break
		}
	}
	s.total = time.Since(t0)
	if s.count == 0 {
		s.ttfr = s.total
	}
	if c.rec != nil {
		id := c.rec.Add("server.http", root, s.req.ID, t0, s.total)
		c.rec.Add("server.first_line", id, s.req.ID, t0, s.ttfr)
		c.rec.Add("server.body", id, s.req.ID, t0.Add(s.ttfr), s.total-s.ttfr)
	}
	switch {
	case !sawSummary:
		s.fail = "stream ended without a summary line"
	case sum.Error != "" || sum.Partial:
		s.fail = fmt.Sprintf("stream failed: error=%q partial=%v", sum.Error, sum.Partial)
	case sum.Count != s.count:
		s.fail = fmt.Sprintf("summary count %d, %d node lines received", sum.Count, s.count)
	}
	s.costV = stats.Ticks(sum.CostVNs)
}

// countHTTP asks for the cardinality only (a JSON response).
func (c *client) countHTTP(s *sample, root int) {
	t0 := time.Now()
	resp, err := c.post("/v1/query", map[string]any{"path": s.req.Path}, false)
	if err != nil {
		s.total, s.fail = time.Since(t0), err.Error()
		return
	}
	defer resp.Body.Close()
	var qr struct {
		Count    int   `json:"count"`
		CostVNs  int64 `json:"cost_v_ns"`
		Partial  bool  `json:"partial"`
		PerShard []struct {
			Cached bool `json:"cached"`
		} `json:"per_shard"`
	}
	data, err := io.ReadAll(resp.Body)
	s.total = time.Since(t0)
	s.ttfr = s.total
	s.bytes = len(data)
	if c.rec != nil {
		c.rec.Add("server.http", root, s.req.ID, t0, s.total)
	}
	if err == nil {
		err = json.Unmarshal(data, &qr)
	}
	if err != nil || qr.Partial {
		s.fail = fmt.Sprintf("count response: err=%v partial=%v", err, qr.Partial)
		return
	}
	s.count, s.costV = qr.Count, stats.Ticks(qr.CostVNs)
	for _, ps := range qr.PerShard {
		if ps.Cached {
			s.cached++
		}
	}
}

// writeHTTP alternates an insert under the replicated /site/people spine
// node with a delete of every such fragment, so the cluster ends as it began.
func (c *client) writeHTTP(s *sample, root int) {
	s.insert = s.req.Target%2 == 0
	body := map[string]any{"op": "delete", "path": "/site/people/benchpad"}
	if s.insert {
		body = map[string]any{"op": "insert", "parent": "/site/people", "xml": padFragment("mark")}
	}
	t0 := time.Now()
	resp, err := c.post("/v1/update", body, false)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	s.total = time.Since(t0)
	if c.rec != nil {
		c.rec.Add("txn.commit", root, s.req.ID, t0, s.total)
	}
	if err != nil {
		s.fail = err.Error()
	}
}
