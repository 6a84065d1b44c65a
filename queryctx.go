package pathdb

import (
	"context"

	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
)

// QueryCtx evaluates an absolute location path (or a '|' union of paths)
// directly on the DB — the one-shot, engine-free counterpart of
// Session.Do, sharing its QueryOptions. The context cancels or deadlines
// the evaluation at the next operator poll point; page faults raised by the
// fault plane surface as the typed *Error (KindIO or KindCorrupt) instead
// of a panic.
//
// The query runs on the caller's goroutine as Session.Do's runs on the
// dispatcher (engine.Exec): a union's batchable branches as one shared
// group, then the rest solo, in branch order, on one pinned snapshot and
// private ledgers, at Session.Do's costs — an unsorted union under a Limit
// runs every branch up to it (QueryStream starts no branch past it).
// QueryCtx may run beside engine sessions and Updates on the same DB. Its
// virtual costs are deterministic only while no other query runs on the DB:
// concurrent queries share the simulated device. Use an Engine for
// concurrent execution under admission control.
func (db *DB) QueryCtx(ctx context.Context, path string, opts QueryOptions) (res ExecResult, err error) {
	c, err := db.direct(ctx, path, opts, false)
	if err != nil {
		return ExecResult{}, err
	}
	defer c.Close()
	return c.Drain()
}

// FaultConfig arms the DB's deterministic fault plane — the facade over
// the simulated disk's seeded per-operation fault schedule. Probabilities
// are per page read; the zero value disarms all faults. Identical seeds
// reproduce identical fault sequences, so failing runs replay exactly.
type FaultConfig struct {
	// Seed drives the fault plane's private RNG.
	Seed uint64
	// ReadError is the probability a read fails with a transient I/O
	// error (storage retries with backoff before escalating to KindIO).
	ReadError float64
	// Corrupt is the probability a read returns a torn page image
	// (caught by checksum verification; persistent damage escalates to
	// KindCorrupt).
	Corrupt float64
	// Latency is the probability a read is delayed by Spike.
	Latency float64
	// Spike is the added virtual latency per spike (default 5ms).
	Spike stats.Ticks
}

// SetFaults arms (or, with the zero FaultConfig, disarms) fault injection
// on the DB's simulated disk. Call between queries, not concurrently with
// them.
func (db *DB) SetFaults(f FaultConfig) {
	db.store.Disk().SetFaults(vdisk.Faults{
		Seed:      f.Seed,
		ReadError: f.ReadError,
		Corrupt:   f.Corrupt,
		Latency:   f.Latency,
		Spike:     f.Spike,
	})
}
