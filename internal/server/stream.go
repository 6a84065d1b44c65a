package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"pathdb"
	"pathdb/internal/ordpath"
	"pathdb/internal/shard"
)

// ndjsonType is the media type selecting streamed delivery on /v1/query.
const ndjsonType = "application/x-ndjson"

// streamChunk is how many NDJSON lines are written between flushes: the
// response path holds at most one chunk of encoded records plus the
// cursor's bounded read-ahead, never the full result. The first node line
// is flushed on its own, so a client sees it without waiting for a chunk.
const streamChunk = 64

// wantsStream reports whether the request negotiated NDJSON streaming.
func wantsStream(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mt) == ndjsonType {
			return true
		}
	}
	return false
}

// StreamSummaryJSON is the trailing record of an NDJSON query stream: after
// one NodeJSON line per result node, exactly one summary line closes the
// stream. A query that fails mid-stream (the HTTP status is long since
// written) reports the failure here, in Error and Kind; clients must treat
// a stream that ends without a summary line as aborted.
type StreamSummaryJSON struct {
	// Summary is always true — the discriminator against NodeJSON lines,
	// which never carry the field.
	Summary bool   `json:"summary"`
	Path    string `json:"path"`
	// Count is how many node lines the stream carried.
	Count int `json:"count"`
	// Strategy is the resolved physical strategy ("xschedule", "xscan",
	// "simple"); in router mode it is omitted (each shard chooses its own —
	// see PerShard in the buffered response for the breakdown).
	Strategy string `json:"strategy,omitempty"`
	Shared   bool   `json:"shared,omitempty"`
	// Truncated is set when the request's limit cut off at least one node.
	Truncated bool `json:"truncated,omitempty"`

	CostVNs          int64 `json:"cost_v_ns,omitempty"`
	VirtualLatencyNs int64 `json:"virtual_latency_ns,omitempty"`

	// Partial and Degraded mirror the buffered router response: shards
	// lost to tolerable storage faults mid-merge. Single-volume streams
	// never set them.
	Partial  bool           `json:"partial,omitempty"`
	Degraded []DegradedJSON `json:"degraded,omitempty"`

	// Error and Kind report a mid-stream failure (taxonomy kind included);
	// both empty on success.
	Error string `json:"error,omitempty"`
	Kind  string `json:"kind,omitempty"`
}

// ndjsonWriter emits NDJSON records with chunked flushing. Lines are
// assembled in buf, which is handed to the response and reused every
// streamChunk lines, so a node line in steady state costs no allocation.
type ndjsonWriter struct {
	w       io.Writer
	flusher http.Flusher
	buf     []byte
	lines   int
	failed  bool
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	w.Header().Set("Content-Type", ndjsonType)
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	return &ndjsonWriter{w: w, flusher: f}
}

// writeNode appends one node line — byte for byte what
// json.Encoder.Encode(NodeJSON{…}) writes — flushing after the first line
// and then every streamChunk lines. After a transport failure (the client
// hung up) it reports false and goes inert — the caller stops pulling the
// cursor.
func (nw *ndjsonWriter) writeNode(n pathdb.Node, shard int) bool {
	if nw.failed {
		return false
	}
	nw.buf = appendNodeLine(nw.buf, n.ID(), n.Name(), n.OrdKey(), shard)
	return nw.endLine()
}

// writeSummary appends the trailing summary line and flushes.
func (nw *ndjsonWriter) writeSummary(sum *StreamSummaryJSON) {
	if nw.failed {
		return
	}
	line, err := json.Marshal(sum)
	if err != nil {
		nw.failed = true
		return
	}
	nw.buf = append(append(nw.buf, line...), '\n')
	nw.flush()
}

func (nw *ndjsonWriter) endLine() bool {
	nw.lines++
	if nw.lines == 1 || nw.lines%streamChunk == 0 {
		nw.flush()
	}
	return !nw.failed
}

func (nw *ndjsonWriter) flush() {
	if nw.failed {
		return
	}
	if len(nw.buf) > 0 {
		_, err := nw.w.Write(nw.buf)
		nw.buf = nw.buf[:0]
		if err != nil {
			nw.failed = true
			return
		}
	}
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
}

// appendNodeLine appends the NodeJSON object for one node and a newline to
// dst. ord is the node's raw order key, rendered dotted in place.
func appendNodeLine(dst []byte, id uint64, name string, ord []byte, shard int) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, id, 10)
	if name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendJSONString(dst, name)
	}
	dst = append(dst, `,"ord":"`...)
	dst = ordpath.Key(ord).AppendDotted(dst) // digits and dots: nothing to escape
	dst = append(dst, '"')
	if shard != 0 {
		dst = append(dst, `,"shard":`...)
		dst = strconv.AppendInt(dst, int64(shard), 10)
	}
	return append(dst, '}', '\n')
}

// appendJSONString appends s as a JSON string literal with the escaping of
// encoding/json's default encoder: '"', '\\' and control characters, the
// HTML-sensitive '<', '>' and '&', U+2028 and U+2029 are escaped, and
// invalid UTF-8 becomes U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// nodeCursor is the result stream the NDJSON loop drains: a pathdb.Cursor
// on one volume, a shard.StreamCursor over a cluster.
type nodeCursor interface {
	Next() bool
	Err() error
	Close() error
	// node returns the node Next positioned the cursor on and its shard.
	node() (pathdb.Node, int)
	// summarize fills the backend's fields of the trailing record once the
	// stream has ended.
	summarize(sum *StreamSummaryJSON)
}

// stream is the NDJSON delivery mode of /v1/query: one NodeJSON line per
// node as the cursor yields it, a trailing StreamSummaryJSON line, chunked
// flushes in between. The request's limit truncates production (the cursor
// stops pulling), not just the echo: the cursor is opened for limit+1
// nodes, limit lines are written, and the summary says truncated only when
// the extra node exists. MaxNodes does not apply — a streamed response is
// bounded by back-pressure, not by a response buffer.
func (f *front) stream(ctx context.Context, w http.ResponseWriter, r *http.Request, req QueryRequest, opts pathdb.QueryOptions) {
	if req.Limit > 0 {
		opts.Limit = req.Limit + 1
	}
	cur, err := f.b.open(ctx, req.Path, opts)
	if err != nil {
		// Nothing streamed yet: fail like a buffered query.
		f.fail(w, r, "query", err)
		return
	}
	defer cur.Close()

	nw := newNDJSONWriter(w)
	sum := StreamSummaryJSON{Summary: true, Path: req.Path}
	for cur.Next() {
		if sum.Count == req.Limit && req.Limit > 0 {
			sum.Truncated = true
			break
		}
		n, shard := cur.node()
		if !nw.writeNode(n, shard) {
			// Client hung up; cancel the query (Close withdraws prefetches).
			f.gone.Add(1)
			return
		}
		sum.Count++
	}
	if err := cur.Err(); err != nil {
		// The status line is already on the wire: report the failure
		// in-band and count it as the error table would.
		sum.Error, sum.Kind = err.Error(), errKind(err)
		if _, _, n := f.outcome(r, "query", err); n != nil {
			n.Add(1)
		}
	} else {
		f.served.Add(1)
	}
	cur.Close() // settle so the summary below is complete
	cur.summarize(&sum)
	if sum.Partial {
		f.partials.Add(1)
	}
	nw.writeSummary(&sum)
}

// volumeCursor is the single-volume server's node stream: every node is
// shard 0.
type volumeCursor struct{ *pathdb.Cursor }

func (c volumeCursor) node() (pathdb.Node, int) { return c.Node(), 0 }

func (c volumeCursor) summarize(sum *StreamSummaryJSON) {
	if res, ok := c.Summary(); ok {
		sum.Strategy = res.Strategy.String()
		sum.Shared = res.Shared
		sum.CostVNs = int64(res.CostV)
		sum.VirtualLatencyNs = int64(res.VirtualLatency)
	}
}

// clusterCursor is the router's node stream: the cluster's k-way merge.
type clusterCursor struct{ *shard.StreamCursor }

func (c clusterCursor) node() (pathdb.Node, int) {
	sn := c.Node()
	return sn.Node, sn.Shard
}

func (c clusterCursor) summarize(sum *StreamSummaryJSON) {
	s, ok := c.Summary()
	if !ok {
		return
	}
	sum.Partial = s.Partial
	sum.Degraded = degradedJSON(s.Degraded)
	for _, ps := range s.PerShard {
		if !ps.Failed {
			sum.CostVNs += int64(ps.CostV)
		}
	}
}
