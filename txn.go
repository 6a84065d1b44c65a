package pathdb

import (
	"fmt"

	"pathdb/internal/storage"
	"pathdb/internal/txn"
	"pathdb/internal/xmlparse"
	"pathdb/internal/xmltree"
)

// ErrGone is returned by Tx mutations whose target node no longer exists —
// an earlier transaction (or statement of the same transaction) deleted it.
// The HTTP front end maps it to 409 Conflict.
var ErrGone = storage.ErrGone

// CheckFragment reports whether fragment parses as exactly one root
// element — the shape Tx.InsertXML accepts. The HTTP front end uses it to
// reject malformed update bodies with a 400 before admitting the write.
func (db *DB) CheckFragment(fragment string) error {
	_, err := parseFragment(db.dict, fragment)
	return err
}

// volumeAPI is the write/transaction surface of one volume, embedded by
// both DB and Engine so the two facades share a single implementation of
// Update/UpdateEpoch/TxnMetrics and cannot drift. The engine
// parameterizes it with an admission hook (engine.AdmitWrite) so writes
// respect the engine lifecycle — that gating is the only difference between
// the two facades.
type volumeAPI struct {
	vol *DB
	// admit, when set, gates each write against a lifecycle (the engine's
	// drain/close state) and registers it so shutdown waits for it. Errors
	// from an admission-gated path are wrapped into the typed taxonomy.
	admit func() (release func(), err error)
}

// Update runs fn inside a write transaction with snapshot isolation: fn
// stages mutations through the Tx, and when it returns nil the whole batch
// commits atomically — copy-on-write page images are published as one new
// volume version, and the call returns once the commit's group has been
// logged durably (group commit: concurrent Updates share one WAL flush).
// Any error from fn aborts the transaction with the volume untouched.
//
// Readers — blocking Query calls and engine sessions alike — never see a
// partial transaction: queries in flight keep reading the version they
// started on, and queries submitted after Update returns see everything it
// staged. Through an Engine the write is additionally admitted against the
// engine's lifecycle: once Close or Shutdown has begun it fails with
// ErrClosed, and the engine waits for admitted writers before its storage
// goes away.
func (v volumeAPI) Update(fn func(*Tx) error) error {
	_, err := v.UpdateEpoch(fn)
	return err
}

// UpdateEpoch is Update, but additionally returns the publish epoch of the
// committed version — the exact epoch at which this transaction's mutations
// became visible. Under group commit, concurrent writers each learn their
// own epoch, so callers can attribute epoch transitions to transactions
// unambiguously. A transaction that staged nothing returns the epoch it
// read (no new version was published).
func (v volumeAPI) UpdateEpoch(fn func(*Tx) error) (uint64, error) {
	if v.admit == nil {
		return v.vol.updateEpoch(fn)
	}
	release, err := v.admit()
	if err != nil {
		return 0, wrapErr("update", "", err)
	}
	defer release()
	epoch, uerr := v.vol.updateEpoch(fn)
	return epoch, wrapErr("update", "", uerr)
}

// TxnMetrics returns a snapshot of the transaction subsystem's counters.
func (v volumeAPI) TxnMetrics() TxnMetrics {
	tm := v.vol.mgr.Metrics()
	return TxnMetrics{
		Commits:          tm.Commits,
		Aborts:           tm.Aborts,
		Groups:           tm.Groups,
		Flushes:          tm.Flushes,
		MaxGroup:         tm.MaxGroup,
		Epoch:            tm.Epoch,
		Pinned:           tm.Pinned,
		FreePage:         tm.FreePage,
		FlushesPerCommit: tm.FlushesPerCommit(),
	}
}

// Tx is one open write transaction, valid only inside the DB.Update
// callback that created it. Mutations stage against a private copy-on-write
// overlay; nothing is visible to readers until Update returns nil and the
// commit publishes a new volume version.
type Tx struct {
	db *DB
	tx *txn.Tx
}

// InsertXML parses an XML fragment (one element) and stages it as a new
// child of parent, appended after the last child. The returned Node handle
// is valid after the transaction commits.
func (t *Tx) InsertXML(parent Node, fragment string) (Node, error) {
	return t.insertXML(parent, storage.InvalidNodeID, fragment)
}

// InsertXMLBefore stages the fragment as a child of parent immediately
// before the given sibling.
func (t *Tx) InsertXMLBefore(parent, before Node, fragment string) (Node, error) {
	return t.insertXML(parent, before.id, fragment)
}

func (t *Tx) insertXML(parent Node, before storage.NodeID, fragment string) (Node, error) {
	frag, err := parseFragment(t.db.dict, fragment)
	if err != nil {
		return Node{}, err
	}
	id, err := t.tx.InsertSubtree(parent.id, before, frag)
	if err != nil {
		return Node{}, err
	}
	return Node{db: t.db, id: id}, nil
}

// Delete stages removal of the node and its whole subtree.
func (t *Tx) Delete(n Node) error {
	return t.tx.DeleteSubtree(n.id)
}

// parseFragment parses an XML fragment and checks it has exactly one root
// element.
func parseFragment(dict *xmltree.Dictionary, fragment string) (*xmltree.Node, error) {
	frag, err := xmlparse.Parse(dict, []byte(fragment))
	if err != nil {
		return nil, err
	}
	if len(frag.Children) != 1 {
		return nil, fmt.Errorf("pathdb: fragment must have exactly one root element")
	}
	return frag.Children[0], nil
}

// updateEpoch is the single write-transaction implementation behind both
// facades (volumeAPI.Update / volumeAPI.UpdateEpoch).
func (db *DB) updateEpoch(fn func(*Tx) error) (uint64, error) {
	// No chooser invalidation: the next Choose folds the commit's rewritten
	// clusters into the statistics incrementally.
	return db.mgr.UpdateEpoch(func(t *txn.Tx) error {
		return fn(&Tx{db: db, tx: t})
	})
}

// TxnMetrics is a snapshot of the transaction subsystem's counters. A
// volume is transactional from the moment it is loaded: Pinned counts the
// readers of its initial version too.
type TxnMetrics struct {
	Commits  uint64 // transactions committed
	Aborts   uint64 // transactions rolled back
	Groups   uint64 // commit groups flushed to the WAL
	Flushes  uint64 // WAL page writes across all groups
	MaxGroup uint64 // largest commit group observed
	Epoch    uint64 // current published version epoch
	Pinned   int    // snapshots currently pinned by readers
	FreePage int    // reclaimed pages awaiting reuse

	// FlushesPerCommit is Flushes/Commits — group commit drives it below
	// 1.0 once concurrent writers batch.
	FlushesPerCommit float64
}
