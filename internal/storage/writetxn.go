package storage

import (
	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
)

// WriteTxn stages one transaction's updates against a pinned snapshot.
// All reads — validation, ord-key derivation, placement — go through a
// snapshot view of the base version, augmented with an overlay of the
// transaction's own staged page images so later operations observe earlier
// ones (read-your-writes). Nothing is written to the device until the txn
// manager relocates the write set to copy-on-write targets and logs the
// commit group; an abandoned WriteTxn leaves the volume untouched.
//
// A WriteTxn is single-goroutine; the txn manager serializes writers.
type WriteTxn struct {
	base    *Store
	view    *Store
	u       *updater
	overlay map[vdisk.PageID]*pageImage
}

// BeginWrite starts staging a transaction against base version vm,
// charging reads to led. The txn manager calls this under its staging
// lock with vm = the current version.
func (s *Store) BeginWrite(vm *VersionMap, led *stats.Ledger) *WriteTxn {
	view := s.WithSnapshot(vm, led)
	t := &WriteTxn{base: s, view: view, overlay: map[vdisk.PageID]*pageImage{}}
	view.overlay = t.overlay
	t.u = newUpdater(view)
	return t
}

// catchFault converts a transported page fault into the returned error —
// staging reads the snapshot through the error-free navigation interfaces,
// so a bad page surfaces here, not at a query boundary.
func catchFault(err *error) {
	if r := recover(); r != nil {
		if pe, ok := AsPageFault(r); ok {
			*err = pe
			return
		}
		panic(r)
	}
}

// InsertSubtree stages the insert of frag as a child of parent — before
// `before`, or appended when before == InvalidNodeID — and returns the new
// node's id. Nothing is visible until the manager commits the transaction.
func (t *WriteTxn) InsertSubtree(parent NodeID, before NodeID, frag *xmltree.Node) (id NodeID, err error) {
	defer catchFault(&err)
	id, err = t.view.insertSubtreeWith(t.u, parent, before, frag)
	if err != nil {
		return InvalidNodeID, err
	}
	return id, t.refreshOverlay()
}

// DeleteSubtree stages the removal of the node and its whole subtree; the
// document node and the root element are refused.
func (t *WriteTxn) DeleteSubtree(id NodeID) (err error) {
	defer catchFault(&err)
	if err := t.view.deleteSubtreeWith(t.u, id); err != nil {
		return err
	}
	return t.refreshOverlay()
}

// refreshOverlay republishes every staged dirty page into the overlay, so
// the next operation's reads see this one's mutations. Encode + validate
// round-trips through the page format, which keeps the overlay images
// structurally identical to what a committed read would produce.
func (t *WriteTxn) refreshOverlay() error {
	ps := t.base.disk.PageSize()
	for p, lp := range t.u.pages {
		if !lp.dirty {
			continue
		}
		raw, err := encodePage(lp.img, ps)
		if err != nil {
			return err
		}
		img := new(pageImage)
		if err := decodePage(img, p, finalizePage(raw, ps), ps); err != nil {
			return err
		}
		t.overlay[p] = img
	}
	return nil
}

// WriteSet is the staged outcome of a transaction: the after-image of
// every touched logical page plus the fresh (identity-mapped) extension
// pages the staging allocated.
type WriteSet struct {
	Images map[vdisk.PageID][]byte
	Fresh  []vdisk.PageID
}

// WriteSet encodes the staged pages. Called once, at commit.
func (t *WriteTxn) WriteSet() (WriteSet, error) {
	images, err := t.u.stage()
	if err != nil {
		return WriteSet{}, err
	}
	return WriteSet{Images: images, Fresh: append([]vdisk.PageID(nil), t.u.fresh...)}, nil
}

// FreshPages returns the pages allocated by staging so far — on abort the
// manager recycles them as copy targets instead of leaking them.
func (t *WriteTxn) FreshPages() []vdisk.PageID {
	return append([]vdisk.PageID(nil), t.u.fresh...)
}

// View returns the staging view: the base snapshot with the transaction's
// staged images laid over it.
func (t *WriteTxn) View() *Store { return t.view }

// Ledger returns the staging view's cost ledger.
func (t *WriteTxn) Ledger() *stats.Ledger { return t.view.led }
