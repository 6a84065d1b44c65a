// Package server is the networked front end of the query engine: one
// HTTP/JSON surface over two backends — Server, one pathdb.Engine over one
// volume, and Router, a shard.Cluster scattering over N volumes — giving
// the reproduction the operational shape of the standalone XML servers the
// paper's Sec. 7 outlook points at: one I/O-performing operator serving
// many concurrent location paths, across real sockets.
//
// Endpoints, all under /v1/:
//
//	POST /v1/query    evaluate {path, strategy, limit, timeout_ms, sorted};
//	                  with Accept: application/x-ndjson the response is a
//	                  stream — one node record per line plus a trailing
//	                  summary record
//	POST /v1/update   mutate {op, parent, xml, path, timeout_ms}
//	GET  /v1/metrics  Prometheus text exposition: the backend's engine
//	                  counters and cost ledgers, then the front end's own
//	                  pathdb_server_* request counters
//	GET  /v1/healthz  200 while serving, 503 once draining
//
// The front end owns everything the two backends share: the drain gate,
// request decoding and validation, deadlines, the one table mapping the
// pathdb error taxonomy onto HTTP statuses, the NDJSON loop, healthz and
// the request counters. A backend supplies only path and fragment checks,
// the buffered JSON body, opening a node cursor, insert and delete, its own
// metrics series and healthz line, and shutdown. The engine's in-process
// properties surface as HTTP semantics on both:
//
//   - Deadline propagation. Each request's context (the client connection)
//     is the query's context, bounded by timeout_ms and MaxTimeout. A
//     client that disconnects or times out cancels the in-flight query at
//     its next operator poll point, and its outstanding cluster prefetches
//     are withdrawn from the simulated device (async_withdrawn in
//     /v1/metrics). Deadline expiry maps to 504 Gateway Timeout.
//
//   - Load shedding. Queries and update target lookups are admitted with
//     non-blocking admission (TryDo/TryStream): when an engine's queue is
//     at QueueDepth the request fails fast with 503 Service Unavailable and
//     a Retry-After header instead of stacking up.
//
//   - Graceful drain. Shutdown flips the drain flag (healthz turns 503 so
//     load balancers stop routing, new requests are refused with 503),
//     waits for every in-flight request to complete, then drains and
//     closes the backend's engines.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathdb"
	"pathdb/internal/xpath"
)

// Options tunes the HTTP front end.
type Options struct {
	// MaxNodes caps how many result nodes one buffered response may carry,
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

// backend is what differs between serving one volume and serving a
// cluster; the front end calls nothing else.
type backend interface {
	// checkFragment validates an insert's XML without committing it; its
	// errors are the client's (400). A malformed path needs no check of its
	// own: the backend compiles it before it runs or scatters anything and
	// fails with an *xpath.ParseError, which outcome answers 400.
	checkFragment(xml string) error
	// admit is the backend's own admission step for a query, after the
	// drain gate. On false it has answered the request; on true the front
	// end calls release when the request ends.
	admit(w http.ResponseWriter, r *http.Request) bool
	release(r *http.Request)
	// query answers a buffered (JSON) query: the response body, and whether
	// the result excludes a degraded shard.
	query(ctx context.Context, req QueryRequest, opts pathdb.QueryOptions) (body any, partial bool, err error)
	// open opens the node cursor an NDJSON query streams.
	open(ctx context.Context, path string, opts pathdb.QueryOptions) (nodeCursor, error)
	// insert and delete run one update; the result is the response body.
	insert(ctx context.Context, parent, xml string) (any, error)
	delete(ctx context.Context, path string) (any, error)
	// metrics appends the backend's series to the /v1/metrics exposition;
	// health is the healthz line while serving.
	metrics(b *strings.Builder)
	health() string
	// shutdown drains the backend's engines; close hard-stops them.
	shutdown(ctx context.Context) error
	close()
}

// front is the one HTTP front end: Server and Router embed it, so its
// exported methods are theirs.
type front struct {
	b    backend
	opts Options
	mux  *http.ServeMux

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	inflightN atomic.Int64
	requests  atomic.Int64 // /v1/query requests accepted into a handler
	served    atomic.Int64 // query 200s (partials included)
	partials  atomic.Int64 // query 200s that excluded a degraded shard (Router exports it)
	shed      atomic.Int64 // 503s from engine admission or drain
	timeouts  atomic.Int64 // 504s
	badReqs   atomic.Int64 // 400s
	gone      atomic.Int64 // client disconnected mid-request
	ioErrors  atomic.Int64 // 500s from storage faults (KindIO/KindCorrupt)

	// Update counters (the transaction subsystem keeps the commit-side
	// ones; these count HTTP outcomes).
	updates    atomic.Int64 // /v1/update requests accepted into a handler
	updated    atomic.Int64 // update requests answered 200
	updateErrs atomic.Int64 // update requests answered 4xx/5xx
}

func newFront(b backend, opts Options) *front {
	f := &front{b: b, opts: opts.withDefaults(), mux: http.NewServeMux()}
	f.mux.HandleFunc("/v1/query", f.handleQuery)
	f.mux.HandleFunc("/v1/update", f.handleUpdate)
	f.mux.HandleFunc("/v1/metrics", f.handleMetrics)
	f.mux.HandleFunc("/v1/healthz", f.handleHealthz)
	return f
}

// ServeHTTP implements http.Handler.
func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// InFlight returns the number of requests currently executing.
func (f *front) InFlight() int64 { return f.inflightN.Load() }

// Draining reports whether Shutdown has begun.
func (f *front) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

// Shutdown drains the front end: new requests are refused with 503 (and
// healthz flips to 503 so load balancers stop routing), every request
// already in a handler runs to completion, then the backend's engines are
// drained and closed. If ctx expires first the engines hard-close and
// Shutdown returns the context's error. Shutdown is idempotent.
func (f *front) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.draining = true
	f.mu.Unlock()

	done := make(chan struct{})
	go func() {
		f.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		f.b.close()
		return ctx.Err()
	}
	return f.b.shutdown(ctx)
}

// enter is every request's way in: POST only, refused with 503 once
// draining, otherwise registered against the drain gate and counted in
// accepted. On true the caller must leave().
func (f *front) enter(w http.ResponseWriter, r *http.Request, accepted *atomic.Int64) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return false
	}
	f.mu.Lock()
	open := !f.draining
	if open {
		f.inflight.Add(1)
		f.inflightN.Add(1)
	}
	f.mu.Unlock()
	if !open {
		f.fail(w, r, "", pathdb.ErrClosed)
		return false
	}
	accepted.Add(1)
	return true
}

func (f *front) leave() {
	f.inflightN.Add(-1)
	f.inflight.Done()
}

// QueryRequest is the POST /v1/query body.
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
}

// UpdateRequest is the POST /v1/update body.
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

// NodeJSON is one result node in a response.
type NodeJSON struct {
	ID   uint64 `json:"id"`
	Name string `json:"name,omitempty"`
	Ord  string `json:"ord"`
	// Shard is the source shard in router mode (omitted by the
	// single-volume server, whose only volume is shard 0 anyway).
	Shard int `json:"shard,omitempty"`
}

func nodeJSON(n pathdb.Node, shard int) NodeJSON {
	return NodeJSON{ID: n.ID(), Name: n.Name(), Ord: n.OrdPath(), Shard: shard}
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

// requestError is a request the client got wrong: answered 400.
type requestError string

func (e requestError) Error() string { return string(e) }

func (f *front) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !f.enter(w, r, &f.requests) {
		return
	}
	defer f.leave()
	if !f.b.admit(w, r) {
		return
	}
	defer f.b.release(r)

	req, opts, err := f.queryRequest(w, r)
	if err != nil {
		f.fail(w, r, "query", err)
		return
	}
	ctx, cancel := f.deadline(r, req.TimeoutMS)
	defer cancel()

	// Content negotiation: Accept: application/x-ndjson selects streamed
	// delivery — one node record per line as the cursor produces them, a
	// trailing summary record, bounded chunked flushes in between.
	if wantsStream(r) {
		f.stream(ctx, w, r, req, opts)
		return
	}
	body, partial, err := f.b.query(ctx, req, opts)
	if err != nil {
		f.fail(w, r, "query", err)
		return
	}
	f.served.Add(1)
	if partial {
		f.partials.Add(1)
	}
	writeJSON(w, http.StatusOK, body)
}

// queryRequest decodes and validates a /v1/query body.
func (f *front) queryRequest(w http.ResponseWriter, r *http.Request) (QueryRequest, pathdb.QueryOptions, error) {
	var req QueryRequest
	var opts pathdb.QueryOptions
	if err := f.decode(w, r, &req); err != nil {
		return req, opts, err
	}
	if req.Path == "" {
		return req, opts, requestError(`missing "path"`)
	}
	if req.Limit < 0 || req.TimeoutMS < 0 {
		return req, opts, requestError(`"limit" and "timeout_ms" must be non-negative`)
	}
	opts.Sorted = req.Sorted
	var err error
	if req.Strategy != "" {
		if opts.Strategy, err = pathdb.ParseStrategy(req.Strategy); err != nil {
			return req, opts, requestError(err.Error())
		}
	}
	return req, opts, nil
}

func (f *front) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !f.enter(w, r, &f.updates) {
		return
	}
	defer f.leave()
	body, err := f.update(w, r)
	if err != nil {
		f.updateErrs.Add(1)
		f.fail(w, r, "update", err)
		return
	}
	f.updated.Add(1)
	writeJSON(w, http.StatusOK, body)
}

// update decodes and validates a /v1/update body and runs it.
func (f *front) update(w http.ResponseWriter, r *http.Request) (any, error) {
	var req UpdateRequest
	if err := f.decode(w, r, &req); err != nil {
		return nil, err
	}
	if req.TimeoutMS < 0 {
		return nil, requestError(`"timeout_ms" must be non-negative`)
	}
	ctx, cancel := f.deadline(r, req.TimeoutMS)
	defer cancel()

	switch req.Op {
	case "insert":
		if req.Parent == "" || req.XML == "" {
			return nil, requestError(`insert needs "parent" and "xml"`)
		}
		if err := f.b.checkFragment(req.XML); err != nil {
			return nil, requestError(err.Error())
		}
		return f.b.insert(ctx, req.Parent, req.XML)
	case "delete":
		if req.Path == "" {
			return nil, requestError(`delete needs "path"`)
		}
		return f.b.delete(ctx, req.Path)
	}
	return nil, requestError(fmt.Sprintf("unknown op %q (want \"insert\" or \"delete\")", req.Op))
}

// decode reads a JSON body into v, rejecting unknown fields (client typos
// like "patj") and bodies over MaxBody.
func (f *front) decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, f.opts.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return requestError(fmt.Sprintf("bad request body: %v", err))
	}
	return nil
}

// deadline derives a request's execution context: the request context
// (cancelled when the client disconnects) bounded by its timeout_ms,
// capped by MaxTimeout.
func (f *front) deadline(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := f.opts.MaxTimeout
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	return context.WithTimeout(r.Context(), timeout)
}

// outcome is the one table from a failure to its answer, for queries,
// updates and mid-stream failures alike: the HTTP status (0 when the
// client is gone and nothing can be answered), the body, and the counter
// the failure moves (nil for none). Client errors — malformed paths
// included — are 400, overload and
// drain 503, a vanished update target (a racing delete) 409, storage
// faults 500 with the typed kind, deadline expiry 504. what names the
// request in the timeout message.
func (f *front) outcome(r *http.Request, what string, err error) (int, ErrorResponse, *atomic.Int64) {
	switch {
	case errors.As(err, new(requestError)) || errors.As(err, new(*xpath.ParseError)):
		return http.StatusBadRequest, ErrorResponse{Error: err.Error()}, &f.badReqs
	case errors.Is(err, pathdb.ErrOverloaded):
		return http.StatusServiceUnavailable,
			ErrorResponse{Error: "overloaded: admission queue full", Kind: pathdb.KindOverloaded.String()}, &f.shed
	case errors.Is(err, pathdb.ErrClosed):
		return http.StatusServiceUnavailable, ErrorResponse{Error: "draining", Kind: pathdb.KindClosed.String()}, &f.shed
	case errors.Is(err, pathdb.ErrGone):
		return http.StatusConflict, ErrorResponse{Error: err.Error(), Kind: errKind(err)}, nil
	case errors.Is(err, pathdb.ErrIO) || errors.Is(err, pathdb.ErrCorrupt):
		// The fault plane exhausted the storage retry budget; the query
		// failed alone (its gang completed). The typed kind distinguishes
		// transient I/O from medium damage.
		return http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Kind: errKind(err)}, &f.ioErrors
	case errors.Is(err, pathdb.ErrTimeout) && r.Context().Err() == nil:
		// The per-request timeout fired while the client is still there.
		return http.StatusGatewayTimeout, ErrorResponse{Error: what + " timed out", Kind: errKind(err)}, &f.timeouts
	case r.Context().Err() != nil:
		return 0, ErrorResponse{}, &f.gone
	}
	return http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Kind: errKind(err)}, nil
}

// fail answers a request that failed before any of its response was
// written.
func (f *front) fail(w http.ResponseWriter, r *http.Request, what string, err error) {
	status, body, n := f.outcome(r, what, err)
	if n != nil {
		n.Add(1)
	}
	switch status {
	case 0:
		// The client is gone; net/http wants the handler to return normally.
	case http.StatusServiceUnavailable:
		f.retryLater(w, status, body)
	default:
		writeJSON(w, status, body)
	}
}

// retryLater answers a shed request with a Retry-After hint.
func (f *front) retryLater(w http.ResponseWriter, status int, body ErrorResponse) {
	w.Header().Set("Retry-After", strconv.Itoa(f.opts.RetryAfter))
	writeJSON(w, status, body)
}

func (f *front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if f.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, f.b.health())
}

// handleMetrics renders GET /v1/metrics in the Prometheus text exposition
// format (version 0.0.4): the backend's series, then the front end's
// request counters. Everything is emitted from atomic snapshots; no locks
// are held while writing.
func (f *front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	f.b.metrics(&b)
	gauge(&b, "pathdb_server_inflight", "Requests currently executing.", float64(f.inflightN.Load()))
	gauge(&b, "pathdb_server_draining", "1 once Shutdown has begun.", boolGauge(f.Draining()))
	counter(&b, "pathdb_server_requests_total", "Query requests accepted into a handler.", float64(f.requests.Load()))
	counter(&b, "pathdb_server_served_total", "Query requests answered 200.", float64(f.served.Load()))
	counter(&b, "pathdb_server_shed_total", "Requests answered 503 (overload or drain).", float64(f.shed.Load()))
	counter(&b, "pathdb_server_timeouts_total", "Requests answered 504 (deadline expired).", float64(f.timeouts.Load()))
	counter(&b, "pathdb_server_bad_requests_total", "Requests answered 400.", float64(f.badReqs.Load()))
	counter(&b, "pathdb_server_client_gone_total", "Requests whose client disconnected mid-flight.", float64(f.gone.Load()))
	counter(&b, "pathdb_server_io_errors_total", "Requests answered 500 for a storage fault (io or corrupt kind).", float64(f.ioErrors.Load()))
	counter(&b, "pathdb_server_updates_total", "Update requests accepted into a handler.", float64(f.updates.Load()))
	counter(&b, "pathdb_server_updated_total", "Update requests answered 200.", float64(f.updated.Load()))
	counter(&b, "pathdb_server_update_errors_total", "Update requests answered 4xx/5xx.", float64(f.updateErrs.Load()))
	_, _ = w.Write([]byte(b.String()))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client may be gone; nothing useful to do
}
