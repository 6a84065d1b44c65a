package storage

import "pathdb/internal/vdisk"

// Multi-version storage. NodeIDs embed *logical* page ids, so a node's
// identity survives relocation: a VersionMap is the sparse indirection from
// logical page to the physical page holding its current bytes. Pages that
// were never rewritten stay identity-mapped and carry no entry, which keeps
// the map proportional to the volume's update churn, not its size.
//
// A VersionMap is immutable once published. Writers build the successor
// with Apply (copy-on-write of the map itself), publish it atomically, and
// readers pin whichever version was current when their query was admitted —
// the snapshot-read half of the transaction design (see internal/txn). The
// map is injective by construction: fresh logical pages come from the
// device allocator (never reused), and physical copy targets come from the
// allocator or from the reclaimed-page free list, whose members no version
// references.

// VersionMap is one immutable volume version: an epoch number, the sparse
// logical→physical relocation table, and the full update-extension page
// directory as of that epoch.
type VersionMap struct {
	epoch  uint64
	m      map[vdisk.PageID]vdisk.PageID
	extras []vdisk.PageID
	// wrote records, per logical page, the epoch of the last commit that
	// rewrote it. Pages no commit has rewritten carry no entry and report
	// epoch 0. This is what makes decoded-cluster caching
	// epoch-precise: (logical page, wrote[page]) names one immutable byte
	// image across every version that shares it.
	wrote map[vdisk.PageID]uint64
}

// NewVersionMap builds a version from recovered or initial state. The map
// and extras slices are kept, not copied; callers hand over ownership.
// Every relocated and extension page is conservatively stamped with the
// recovered epoch: recovery starts with an empty decoded-cluster cache, so
// over-stamping only forgoes cross-version sharing, never correctness.
func NewVersionMap(epoch uint64, m map[vdisk.PageID]vdisk.PageID, extras []vdisk.PageID) *VersionMap {
	if m == nil {
		m = map[vdisk.PageID]vdisk.PageID{}
	}
	wrote := make(map[vdisk.PageID]uint64, len(m)+len(extras))
	for l := range m {
		wrote[l] = epoch
	}
	for _, p := range extras {
		wrote[p] = epoch
	}
	return &VersionMap{epoch: epoch, m: m, extras: extras, wrote: wrote}
}

// Epoch returns the version's commit epoch (0 for the initial version).
func (vm *VersionMap) Epoch() uint64 { return vm.epoch }

// Resolve maps a logical page to the physical page holding its bytes in
// this version. Identity for pages that were never rewritten.
func (vm *VersionMap) Resolve(p vdisk.PageID) vdisk.PageID {
	if phys, ok := vm.m[p]; ok {
		return phys
	}
	return p
}

// Extras returns the update-extension pages of this version, in scan
// order. Callers must not mutate the slice.
func (vm *VersionMap) Extras() []vdisk.PageID { return vm.extras }

// Relocated returns the number of non-identity entries (for stats).
func (vm *VersionMap) Relocated() int { return len(vm.m) }

// Entries copies the non-identity relocation table (for checkpointing).
func (vm *VersionMap) Entries() map[vdisk.PageID]vdisk.PageID {
	out := make(map[vdisk.PageID]vdisk.PageID, len(vm.m))
	for l, p := range vm.m {
		out[l] = p
	}
	return out
}

// PageEpoch returns the epoch of the last commit that rewrote logical page
// p, or 0 if no commit has rewritten p. (logical, PageEpoch)
// uniquely names a page's byte image across versions.
func (vm *VersionMap) PageEpoch(p vdisk.PageID) uint64 { return vm.wrote[p] }

// WrittenSince calls fn for every logical page whose last-write epoch is
// strictly greater than since (i.e. pages rewritten or created by commits
// after epoch `since`). Iteration order is unspecified.
func (vm *VersionMap) WrittenSince(since uint64, fn func(p vdisk.PageID, epoch uint64)) {
	for p, e := range vm.wrote {
		if e > since {
			fn(p, e)
		}
	}
}

// Apply builds the successor version: deltas relocate logical pages to new
// physical homes, fresh appends identity-mapped extension pages to the
// directory. Both delta and fresh pages are stamped with the new epoch in
// the per-page write-epoch table. The receiver is not modified.
func (vm *VersionMap) Apply(epoch uint64, deltas map[vdisk.PageID]vdisk.PageID, fresh []vdisk.PageID) *VersionMap {
	nm := make(map[vdisk.PageID]vdisk.PageID, len(vm.m)+len(deltas))
	for l, p := range vm.m {
		nm[l] = p
	}
	for l, p := range deltas {
		nm[l] = p
	}
	extras := vm.extras
	if len(fresh) > 0 {
		extras = append(append([]vdisk.PageID(nil), vm.extras...), fresh...)
	}
	wrote := make(map[vdisk.PageID]uint64, len(vm.wrote)+len(deltas)+len(fresh))
	for p, e := range vm.wrote {
		wrote[p] = e
	}
	for l := range deltas {
		wrote[l] = epoch
	}
	for _, p := range fresh {
		wrote[p] = epoch
	}
	return &VersionMap{epoch: epoch, m: nm, extras: extras, wrote: wrote}
}
