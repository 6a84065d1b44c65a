// Package server is the networked front end of the query engine: an
// HTTP/JSON service wrapping pathdb.Engine, giving the reproduction the
// operational shape of the standalone XML servers the paper's Sec. 7
// outlook points at — one I/O-performing operator serving many concurrent
// location paths, now across real sockets.
//
// Endpoints, all under /v1/:
//
//	POST /v1/query    evaluate {path, strategy, limit, timeout_ms, sorted};
//	                  with Accept: application/x-ndjson the response is a
//	                  stream — one node record per line plus a trailing
//	                  summary record
//	POST /v1/update   mutate {op, parent, xml, path, timeout_ms}
//	GET  /v1/metrics  Prometheus text exposition: engine counters + cost ledger
//	GET  /v1/healthz  200 while serving, 503 once draining
//
// The three operational properties the engine already provides in-process
// are surfaced as HTTP semantics:
//
//   - Deadline propagation. Each request's context (the client connection)
//     is the query's context, optionally bounded by timeout_ms. A client
//     that disconnects or times out cancels the in-flight query at its
//     next operator poll point, and its outstanding cluster prefetches are
//     withdrawn from the simulated device (visible as async_withdrawn in
//     /metrics). Deadline expiry maps to 504 Gateway Timeout.
//
//   - Load shedding. Queries are admitted with non-blocking admission
//     (Session.TryDo): when the engine's queue is at QueueDepth the
//     request fails fast with 503 Service Unavailable and a Retry-After
//     header instead of stacking up — admission control made visible.
//
//   - Graceful drain. Shutdown flips the drain flag (healthz turns 503 so
//     load balancers stop routing, new queries are refused with 503),
//     waits for every in-flight request to complete, then drains and
//     closes the engine.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathdb"
)

// Options tunes the HTTP front end.
type Options struct {
	// MaxNodes caps how many result nodes one response may carry,
	// whatever the request's limit asks for (default 1000).
	MaxNodes int
	// MaxTimeout caps the per-request timeout_ms (default 30s). Requests
	// without a timeout run under it too, so a stuck client cannot hold a
	// query slot forever.
	MaxTimeout time.Duration
	// RetryAfter is the value of the Retry-After header on shed requests,
	// in seconds (default 1).
	RetryAfter int
	// MaxBody bounds the request body in bytes (default 1 MiB).
	MaxBody int64
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 1000
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 30 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 1
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 1 << 20
	}
	return o
}

// Server is the HTTP front end over one engine. Create with New, mount it
// as an http.Handler, and call Shutdown to drain.
type Server struct {
	db   *pathdb.DB
	eng  *pathdb.Engine
	ses  *pathdb.Session
	opts Options
	mux  *http.ServeMux

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	// Server-level counters for /metrics (the engine keeps its own).
	inflightN atomic.Int64
	requests  atomic.Int64 // /query requests accepted into a handler
	served    atomic.Int64 // 200s
	shed      atomic.Int64 // 503s from admission control or drain
	timeouts  atomic.Int64 // 504s
	badReqs   atomic.Int64 // 400s
	gone      atomic.Int64 // client disconnected mid-query
	ioErrors  atomic.Int64 // 500s from storage faults (KindIO/KindCorrupt)

	// Update counters (the transaction subsystem keeps the commit-side
	// ones; these count HTTP outcomes).
	updates    atomic.Int64 // /update requests accepted into a handler
	updated    atomic.Int64 // update requests answered 200
	updateErrs atomic.Int64 // update requests answered 4xx/5xx
}

// New builds a server over db's engine. The engine must outlive the
// server; Shutdown closes it.
func New(db *pathdb.DB, eng *pathdb.Engine, opts Options) *Server {
	s := &Server{
		db:   db,
		eng:  eng,
		ses:  eng.NewSession(),
		opts: opts.withDefaults(),
		mux:  http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/update", s.handleUpdate)
	s.mux.HandleFunc("/v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// InFlight returns the number of /query requests currently executing.
func (s *Server) InFlight() int64 { return s.inflightN.Load() }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: new queries are refused with 503 (and
// healthz flips to 503 so load balancers stop routing), every request
// already in a handler runs to completion, then the engine itself is
// drained and closed. If ctx expires first the engine hard-closes and
// Shutdown returns the context's error. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.eng.Close()
		return ctx.Err()
	}
	return s.eng.Shutdown(ctx)
}

// enter registers a request against the drain gate. It fails once
// Shutdown has begun; on success the caller must leave().
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	s.inflightN.Add(1)
	return true
}

func (s *Server) leave() {
	s.inflightN.Add(-1)
	s.inflight.Done()
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Path is an absolute location path, or a '|' union of them.
	Path string `json:"path"`
	// Strategy forces a physical strategy ("auto", "simple", "xschedule",
	// "xscan"); empty means auto.
	Strategy string `json:"strategy,omitempty"`
	// Limit caps the nodes echoed back in the response; 0 returns the
	// count only.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS bounds the query's execution; 0 means the server cap.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Sorted requests document-order results.
	Sorted bool `json:"sorted,omitempty"`
	// Preds forces the predicate evaluator ("auto", "nested", "join");
	// empty means auto (the cost model decides per query).
	Preds string `json:"preds,omitempty"`
}

// NodeJSON is one result node in a QueryResponse.
type NodeJSON struct {
	ID   uint64 `json:"id"`
	Name string `json:"name,omitempty"`
	Ord  string `json:"ord"`
	// Shard is the source shard in router mode (omitted by the
	// single-volume server, whose only volume is shard 0 anyway).
	Shard int `json:"shard,omitempty"`
}

// QueryResponse is the POST /query result body.
type QueryResponse struct {
	Path      string     `json:"path"`
	Count     int        `json:"count"`
	Strategy  string     `json:"strategy"`
	Shared    bool       `json:"shared"`
	Gang      int        `json:"gang"`
	Nodes     []NodeJSON `json:"nodes,omitempty"`
	Truncated bool       `json:"truncated,omitempty"`

	// Choice surfaces the cost model's decision when the query ran under
	// the auto strategy: the strategy it picked, the estimated cluster
	// coverage that drove the pick, and the virtual cost estimated for
	// each candidate operator. Absent when a strategy was forced.
	Choice *ChoiceJSON `json:"choice,omitempty"`

	// Virtual costs (calibrated cost model, machine independent) and the
	// wall-clock split, all in nanoseconds.
	CostVNs          int64 `json:"cost_v_ns"`
	CPUVNs           int64 `json:"cpu_v_ns"`
	IOWaitVNs        int64 `json:"iowait_v_ns"`
	SharedVNs        int64 `json:"shared_v_ns,omitempty"`
	VirtualLatencyNs int64 `json:"virtual_latency_ns"`
	WallQueueNs      int64 `json:"wall_queue_ns"`
	WallExecNs       int64 `json:"wall_exec_ns"`
}

// ChoiceJSON is the cost-model decision echoed in a QueryResponse.
type ChoiceJSON struct {
	ChosenStrategy string  `json:"chosen_strategy"`
	Coverage       float64 `json:"coverage"`
	Residency      float64 `json:"residency"`
	PagesTouched   int     `json:"pages_touched"`
	ScheduleCostNs int64   `json:"schedule_cost_ns"`
	ScanCostNs     int64   `json:"scan_cost_ns"`
	SimpleCostNs   int64   `json:"simple_cost_ns"`
	// PredEval is the chosen predicate evaluator ("nested" or "join");
	// omitted when the path carries no predicates.
	PredEval string `json:"pred_eval,omitempty"`
}

// ErrorResponse is the JSON body of every non-200 response. Kind
// round-trips the pathdb error taxonomy (pathdb.ParseErrorKind), so
// clients classify failures structurally instead of matching messages.
type ErrorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// errKind extracts the taxonomy kind of err for the response body; errors
// from outside the taxonomy report no kind.
func errKind(err error) string {
	var pe *pathdb.Error
	if errors.As(err, &pe) {
		return pe.Kind.String()
	}
	return ""
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	if !s.enter() {
		s.shed.Add(1)
		s.unavailable(w, "draining", pathdb.KindClosed.String())
		return
	}
	defer s.leave()
	s.requests.Add(1)

	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.badRequest(w, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Path == "" {
		s.badRequest(w, "missing \"path\"")
		return
	}
	if req.Limit < 0 || req.TimeoutMS < 0 {
		s.badRequest(w, "\"limit\" and \"timeout_ms\" must be non-negative")
		return
	}
	opts := pathdb.QueryOptions{Sorted: req.Sorted}
	if req.Strategy != "" {
		strat, err := pathdb.ParseStrategy(req.Strategy)
		if err != nil {
			s.badRequest(w, err.Error())
			return
		}
		opts.Strategy = strat
	}
	if req.Preds != "" {
		pe, err := pathdb.ParsePredEval(req.Preds)
		if err != nil {
			s.badRequest(w, err.Error())
			return
		}
		opts.PredEval = pe
	}
	// Compile first so a malformed path is a 400, not a failed engine
	// submission (the engine re-parses on submit; parsing is cheap).
	if _, err := s.db.Query(req.Path); err != nil {
		s.badRequest(w, err.Error())
		return
	}

	// Deadline propagation: the request context (cancelled when the client
	// disconnects) bounded by the request's timeout, capped by the server.
	timeout := s.opts.MaxTimeout
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Content negotiation: Accept: application/x-ndjson selects streamed
	// delivery — one node record per line as the cursor produces them, a
	// trailing summary record, bounded chunked flushes in between.
	if wantsStream(r) {
		s.streamQuery(ctx, w, r, req, opts)
		return
	}

	res, err := s.ses.TryDo(ctx, req.Path, opts)
	if err != nil {
		s.queryError(w, r, err)
		return
	}
	s.served.Add(1)
	writeJSON(w, http.StatusOK, s.response(req, &res))
}

// UpdateRequest is the POST /update body.
type UpdateRequest struct {
	// Op is the mutation: "insert" puts XML under the node Parent
	// matches; "delete" removes every node Path matches.
	Op string `json:"op"`
	// Parent is the location path selecting the insert target. It must
	// match exactly one node (anything else is a 400: an ambiguous
	// insert target is a client error, not a fan-out).
	Parent string `json:"parent,omitempty"`
	// XML is the fragment to insert — exactly one root element.
	XML string `json:"xml,omitempty"`
	// Path selects the nodes to delete; all matches are removed in one
	// transaction.
	Path string `json:"path,omitempty"`
	// TimeoutMS bounds the target lookup; 0 means the server cap. The
	// commit itself is not abandoned mid-flight (it is atomic).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// UpdateResponse is the POST /update result body.
type UpdateResponse struct {
	Op       string    `json:"op"`
	Inserted *NodeJSON `json:"inserted,omitempty"` // the fragment root (insert)
	Deleted  int       `json:"deleted"`            // nodes removed (delete)
	// Epoch is the volume version current after the commit.
	Epoch uint64 `json:"epoch"`
	// CommitWallNs is the wall-clock time of the whole transaction —
	// staging plus the group-commit acknowledgement (under concurrent
	// writers, dominated by the shared WAL flush window).
	CommitWallNs int64 `json:"commit_wall_ns"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	if !s.enter() {
		s.shed.Add(1)
		s.unavailable(w, "draining", pathdb.KindClosed.String())
		return
	}
	defer s.leave()
	s.updates.Add(1)

	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.updateBadRequest(w, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.TimeoutMS < 0 {
		s.updateBadRequest(w, "\"timeout_ms\" must be non-negative")
		return
	}
	timeout := s.opts.MaxTimeout
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	switch req.Op {
	case "insert":
		s.handleInsert(ctx, w, r, req)
	case "delete":
		s.handleDelete(ctx, w, r, req)
	default:
		s.updateBadRequest(w, fmt.Sprintf("unknown op %q (want \"insert\" or \"delete\")", req.Op))
	}
}

// handleInsert resolves the parent path (it must match exactly one node)
// and commits the fragment under it.
func (s *Server) handleInsert(ctx context.Context, w http.ResponseWriter, r *http.Request, req UpdateRequest) {
	if req.Parent == "" || req.XML == "" {
		s.updateBadRequest(w, "insert needs \"parent\" and \"xml\"")
		return
	}
	if err := s.db.CheckFragment(req.XML); err != nil {
		s.updateBadRequest(w, err.Error())
		return
	}
	res, err := s.ses.Do(ctx, req.Parent, pathdb.QueryOptions{})
	if err != nil {
		s.updateError(w, r, err)
		return
	}
	if res.Count() != 1 {
		s.updateBadRequest(w, fmt.Sprintf("parent path %q matches %d nodes; need exactly 1", req.Parent, res.Count()))
		return
	}

	start := time.Now()
	var node pathdb.Node
	err = s.eng.Update(func(tx *pathdb.Tx) error {
		n, err := tx.InsertXML(res.Nodes[0], req.XML)
		node = n
		return err
	})
	if err != nil {
		s.updateError(w, r, err)
		return
	}
	s.updated.Add(1)
	writeJSON(w, http.StatusOK, UpdateResponse{
		Op:           "insert",
		Inserted:     &NodeJSON{ID: node.ID(), Name: node.Name(), Ord: node.OrdPath()},
		Epoch:        s.db.TxnMetrics().Epoch,
		CommitWallNs: time.Since(start).Nanoseconds(),
	})
}

// handleDelete resolves the path and removes every match in one
// transaction (zero matches commit nothing and answer deleted: 0).
func (s *Server) handleDelete(ctx context.Context, w http.ResponseWriter, r *http.Request, req UpdateRequest) {
	if req.Path == "" {
		s.updateBadRequest(w, "delete needs \"path\"")
		return
	}
	res, err := s.ses.Do(ctx, req.Path, pathdb.QueryOptions{})
	if err != nil {
		s.updateError(w, r, err)
		return
	}

	start := time.Now()
	if res.Count() > 0 {
		err = s.eng.Update(func(tx *pathdb.Tx) error {
			for _, n := range res.Nodes {
				if derr := tx.Delete(n); derr != nil {
					return derr
				}
			}
			return nil
		})
		if err != nil {
			s.updateError(w, r, err)
			return
		}
	}
	s.updated.Add(1)
	writeJSON(w, http.StatusOK, UpdateResponse{
		Op:           "delete",
		Deleted:      res.Count(),
		Epoch:        s.db.TxnMetrics().Epoch,
		CommitWallNs: time.Since(start).Nanoseconds(),
	})
}

// updateBadRequest answers 400 and counts it against both the bad-request
// and update-error series.
func (s *Server) updateBadRequest(w http.ResponseWriter, msg string) {
	s.updateErrs.Add(1)
	s.badRequest(w, msg)
}

// updateError maps update failures onto HTTP statuses: drain/overload are
// 503, a vanished target (already deleted by a racing transaction) is 409,
// storage faults are 500, lookup deadline expiry is 504.
func (s *Server) updateError(w http.ResponseWriter, r *http.Request, err error) {
	s.updateErrs.Add(1)
	switch {
	case errors.Is(err, pathdb.ErrOverloaded):
		s.shed.Add(1)
		s.unavailable(w, "overloaded: admission queue full", pathdb.KindOverloaded.String())
	case errors.Is(err, pathdb.ErrClosed):
		s.shed.Add(1)
		s.unavailable(w, "draining", pathdb.KindClosed.String())
	case errors.Is(err, pathdb.ErrGone):
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error(), Kind: errKind(err)})
	case errors.Is(err, pathdb.ErrIO) || errors.Is(err, pathdb.ErrCorrupt):
		s.ioErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Kind: errKind(err)})
	case errors.Is(err, pathdb.ErrTimeout) && r.Context().Err() == nil:
		s.timeouts.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "update timed out", Kind: errKind(err)})
	case r.Context().Err() != nil:
		s.gone.Add(1)
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Kind: errKind(err)})
	}
}

// queryError maps the typed error taxonomy onto HTTP statuses: overload
// and drain are 503 (with Retry-After), deadline expiry is 504, storage
// faults (I/O exhaustion, checksum corruption) are 500 with the kind in
// the structured body, a vanished client is logged but unanswerable.
func (s *Server) queryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, pathdb.ErrOverloaded):
		s.shed.Add(1)
		s.unavailable(w, "overloaded: admission queue full", pathdb.KindOverloaded.String())
	case errors.Is(err, pathdb.ErrClosed):
		s.shed.Add(1)
		s.unavailable(w, "draining", pathdb.KindClosed.String())
	case errors.Is(err, pathdb.ErrIO) || errors.Is(err, pathdb.ErrCorrupt):
		// The fault plane exhausted the storage retry budget; the query
		// failed alone (its gang completed). Surface the typed kind so
		// clients can distinguish transient I/O from medium damage.
		s.ioErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Kind: errKind(err)})
	case errors.Is(err, pathdb.ErrTimeout) && r.Context().Err() == nil:
		// The per-request timeout fired while the client is still there.
		s.timeouts.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "query timed out", Kind: errKind(err)})
	case r.Context().Err() != nil:
		// Client disconnected; the response is written into the void, but
		// net/http wants the handler to return normally.
		s.gone.Add(1)
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Kind: errKind(err)})
	}
}

func (s *Server) unavailable(w http.ResponseWriter, msg, kind string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfter))
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: msg, Kind: kind})
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.badReqs.Add(1)
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: msg})
}

// response shapes an ExecResult, echoing at most min(limit, MaxNodes)
// nodes.
func (s *Server) response(req QueryRequest, res *pathdb.ExecResult) QueryResponse {
	out := QueryResponse{
		Path:             req.Path,
		Count:            res.Count(),
		Strategy:         res.Strategy.String(),
		Shared:           res.Shared,
		Gang:             res.Gang,
		CostVNs:          int64(res.CostV),
		CPUVNs:           int64(res.CPUV),
		IOWaitVNs:        int64(res.IOWaitV),
		SharedVNs:        int64(res.SharedV),
		VirtualLatencyNs: int64(res.VirtualLatency),
		WallQueueNs:      res.WallQueue.Nanoseconds(),
		WallExecNs:       res.WallExec.Nanoseconds(),
	}
	if c := res.Choice; c != nil {
		out.Choice = &ChoiceJSON{
			ChosenStrategy: c.Strategy.String(),
			Coverage:       c.Coverage,
			Residency:      c.Residency,
			PagesTouched:   c.PagesTouched,
			ScheduleCostNs: int64(c.ScheduleCost),
			ScanCostNs:     int64(c.ScanCost),
			SimpleCostNs:   int64(c.SimpleCost),
		}
		if len(c.Preds) > 0 {
			out.Choice.PredEval = c.PredEval.String()
		}
	}
	limit := req.Limit
	if limit > s.opts.MaxNodes {
		limit = s.opts.MaxNodes
	}
	if limit > len(res.Nodes) {
		limit = len(res.Nodes)
	}
	if limit > 0 {
		out.Nodes = make([]NodeJSON, limit)
		for i := range out.Nodes {
			n := res.Nodes[i]
			out.Nodes[i] = NodeJSON{ID: n.ID(), Name: n.Name(), Ord: n.OrdPath()}
		}
		out.Truncated = limit < len(res.Nodes)
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client may be gone; nothing useful to do
}
