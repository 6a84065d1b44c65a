package storage

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pathdb/internal/vdisk"
)

// Durable state for the transaction subsystem (internal/txn): a chained
// checkpoint record plus a forward-linked redo log of commit groups.
//
// Layout. The meta page gains one trailing field, the checkpoint head. A
// checkpoint is the folded transaction state (epoch, relocation table,
// extension directory, free list) serialized across a chain of pages; the
// last chain page's next pointer is the *log head* — a page preallocated
// for the first commit group after the checkpoint. Each commit group is
// serialized across its own chain, whose final next pointer is again a
// preallocated page for the following group. The log is therefore a single
// forward-linked list rooted at the meta page:
//
//	meta → checkpoint chain → group₁ chain → group₂ chain → … → (zeroed page)
//
// Commit point. Chain pages are written in order and the simulated crash
// drops a strict suffix of writes, so a chain is durable exactly when its
// last page (the only one with the last flag) verifies. Writing that page
// is the group's single fsync-equivalent — one page write commits every
// transaction in the group, which is what makes mean flushes per commit
// drop below one under concurrent writers.
//
// Recovery (ARIES-lite, redo only). Open reads the checkpoint, then walks
// the group chains forward, applying each complete group's relocations to
// the folded state. The scan stops at the first chain that fails to verify:
// a zeroed preallocated page (allocation zero-fills), a torn write (page
// trailer mismatch), or a foreign magic. A verified group whose epoch is
// not newer than the folded state is skipped but the walk continues — a
// checkpoint may fold commits that were published but whose group had not
// yet flushed when the checkpoint was cut, so the first chains after it
// can lag the checkpoint epoch while later ones carry new commits. Cycles
// are impossible: every chain head is a fresh allocation, so heads occur
// in strictly increasing page order. Undo is never needed: copy-on-write
// staging writes only to unreferenced pages, so an unlogged transaction
// simply never becomes visible.

const (
	ckptMagic  = "PATHCKP1"
	groupMagic = "PATHGRP1"

	// chainHeaderSize is the per-page header of a chained record:
	// magic 8, epoch 8, seq 4, flags 4, next 4, payload length 4.
	chainHeaderSize = 32

	chainFlagLast = 1
)

// chainPayloadCapacity is the payload room of one chain page.
func chainPayloadCapacity(pageSize int) int {
	return usable(pageSize) - chainHeaderSize
}

// A PageAlloc hands out unreferenced pages for log chains. The allocator
// must guarantee that a returned page reads back as *invalid* until the
// chain write lands on it: either a fresh allocation (zero-filled) or a
// recycled page zeroed before return. Recovery depends on this — a stale
// but well-formed record on a preallocated head would send the redo walk
// into garbage.
type PageAlloc func() vdisk.PageID

// writeChain serializes payload across a chain of pages starting at first
// (which must be preallocated and unreferenced), drawing continuation
// pages from alloc as needed. It returns the pages written and the
// preallocated head for the next chain (stored in the last page's next
// field). The last page's write is the chain's commit point.
func writeChain(disk *vdisk.Disk, first vdisk.PageID, magic string, epoch uint64, payload []byte, alloc PageAlloc) (used []vdisk.PageID, next vdisk.PageID) {
	cap := chainPayloadCapacity(disk.PageSize())
	nPages := (len(payload) + cap - 1) / cap
	if nPages == 0 {
		nPages = 1
	}
	pages := make([]vdisk.PageID, nPages)
	pages[0] = first
	for i := 1; i < nPages; i++ {
		pages[i] = alloc()
	}
	next = alloc()
	for i := 0; i < nPages; i++ {
		lo := i * cap
		hi := lo + cap
		if hi > len(payload) {
			hi = len(payload)
		}
		chunk := payload[lo:hi]
		buf := make([]byte, chainHeaderSize+len(chunk))
		copy(buf, magic)
		binary.LittleEndian.PutUint64(buf[8:], epoch)
		binary.LittleEndian.PutUint32(buf[16:], uint32(i))
		flags := uint32(0)
		link := next
		if i < nPages-1 {
			link = pages[i+1]
		} else {
			flags |= chainFlagLast
		}
		binary.LittleEndian.PutUint32(buf[20:], flags)
		binary.LittleEndian.PutUint32(buf[24:], uint32(link))
		binary.LittleEndian.PutUint32(buf[28:], uint32(len(chunk)))
		copy(buf[chainHeaderSize:], chunk)
		writePage(disk, pages[i], buf)
	}
	return pages, next
}

// readChain reads one chained record rooted at first. ok is false when the
// chain is absent or incomplete (the normal end-of-log condition); the
// other values are meaningful only when ok.
func readChain(disk *vdisk.Disk, first vdisk.PageID, magic string) (payload []byte, epoch uint64, used []vdisk.PageID, next vdisk.PageID, ok bool) {
	buf := make([]byte, disk.PageSize())
	page := first
	for seq := uint32(0); ; seq++ {
		if page == 0 || int(page) >= disk.NumPages() {
			return nil, 0, nil, 0, false
		}
		if err := readPageVerified(disk, page, buf); err != nil {
			return nil, 0, nil, 0, false
		}
		if string(buf[:8]) != magic {
			return nil, 0, nil, 0, false
		}
		e := binary.LittleEndian.Uint64(buf[8:])
		if seq == 0 {
			epoch = e
		} else if e != epoch {
			return nil, 0, nil, 0, false
		}
		if binary.LittleEndian.Uint32(buf[16:]) != seq {
			return nil, 0, nil, 0, false
		}
		flags := binary.LittleEndian.Uint32(buf[20:])
		link := vdisk.PageID(binary.LittleEndian.Uint32(buf[24:]))
		n := int(binary.LittleEndian.Uint32(buf[28:]))
		if n < 0 || chainHeaderSize+n > usable(disk.PageSize()) {
			return nil, 0, nil, 0, false
		}
		payload = append(payload, buf[chainHeaderSize:chainHeaderSize+n]...)
		used = append(used, page)
		if flags&chainFlagLast != 0 {
			return payload, epoch, used, link, true
		}
		page = link
	}
}

// TxnState is the folded durable transaction state of a volume: what a
// checkpoint stores and what recovery reconstructs.
type TxnState struct {
	Epoch   uint64                        // last committed epoch
	Map     map[vdisk.PageID]vdisk.PageID // logical → physical relocations
	Extras  []vdisk.PageID                // extension directory (logical ids)
	Free    []vdisk.PageID                // reclaimable physical pages
	LogHead vdisk.PageID                  // preallocated head of the next group chain
}

// Version builds the VersionMap this state describes.
func (st *TxnState) Version() *VersionMap {
	m := make(map[vdisk.PageID]vdisk.PageID, len(st.Map))
	for l, p := range st.Map {
		m[l] = p
	}
	return NewVersionMap(st.Epoch, m, append([]vdisk.PageID(nil), st.Extras...))
}

func encodeTxnState(st *TxnState) []byte {
	logicals := make([]vdisk.PageID, 0, len(st.Map))
	for l := range st.Map {
		logicals = append(logicals, l)
	}
	sort.Slice(logicals, func(i, j int) bool { return logicals[i] < logicals[j] })

	buf := make([]byte, 0, 16+8*len(st.Map)+4*(len(st.Extras)+len(st.Free)))
	var tmp [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	u32(uint32(len(logicals)))
	for _, l := range logicals {
		u32(uint32(l))
		u32(uint32(st.Map[l]))
	}
	u32(uint32(len(st.Extras)))
	for _, p := range st.Extras {
		u32(uint32(p))
	}
	u32(uint32(len(st.Free)))
	for _, p := range st.Free {
		u32(uint32(p))
	}
	return buf
}

func decodeTxnState(raw []byte) (*TxnState, error) {
	d := struct {
		b   []byte
		off int
	}{b: raw}
	u32 := func() (uint32, error) {
		if d.off+4 > len(d.b) {
			return 0, fmt.Errorf("storage: truncated checkpoint payload")
		}
		v := binary.LittleEndian.Uint32(d.b[d.off:])
		d.off += 4
		return v, nil
	}
	st := &TxnState{Map: map[vdisk.PageID]vdisk.PageID{}}
	n, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		l, err := u32()
		if err != nil {
			return nil, err
		}
		p, err := u32()
		if err != nil {
			return nil, err
		}
		st.Map[vdisk.PageID(l)] = vdisk.PageID(p)
	}
	n, err = u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		p, err := u32()
		if err != nil {
			return nil, err
		}
		st.Extras = append(st.Extras, vdisk.PageID(p))
	}
	n, err = u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		p, err := u32()
		if err != nil {
			return nil, err
		}
		st.Free = append(st.Free, vdisk.PageID(p))
	}
	return st, nil
}

// MapDelta is one logical-page relocation carried by a commit group.
type MapDelta struct {
	Logical, Physical vdisk.PageID
}

// GroupRecord is one durable commit group: the folded effects of every
// transaction flushed together. Within a group all commits become durable
// or none do; acking after the chain's last write preserves exactly that.
type GroupRecord struct {
	Epoch   uint64 // epoch of the newest commit in the group
	Commits uint32
	Deltas  []MapDelta     // relocations, newest commit wins (pre-folded)
	Fresh   []vdisk.PageID // identity-mapped extension pages appended
	Freed   []vdisk.PageID // physical pages superseded by the group
}

func encodeGroupRecord(g GroupRecord) []byte {
	buf := make([]byte, 0, 16+8*len(g.Deltas)+4*(len(g.Fresh)+len(g.Freed)))
	var tmp [4]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	u32(g.Commits)
	u32(uint32(len(g.Deltas)))
	for _, d := range g.Deltas {
		u32(uint32(d.Logical))
		u32(uint32(d.Physical))
	}
	u32(uint32(len(g.Fresh)))
	for _, p := range g.Fresh {
		u32(uint32(p))
	}
	u32(uint32(len(g.Freed)))
	for _, p := range g.Freed {
		u32(uint32(p))
	}
	return buf
}

func decodeGroupRecord(epoch uint64, raw []byte) (GroupRecord, bool) {
	g := GroupRecord{Epoch: epoch}
	off := 0
	u32 := func() (uint32, bool) {
		if off+4 > len(raw) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(raw[off:])
		off += 4
		return v, true
	}
	var ok bool
	if g.Commits, ok = u32(); !ok {
		return g, false
	}
	n, ok := u32()
	if !ok {
		return g, false
	}
	for i := uint32(0); i < n; i++ {
		l, ok1 := u32()
		p, ok2 := u32()
		if !ok1 || !ok2 {
			return g, false
		}
		g.Deltas = append(g.Deltas, MapDelta{Logical: vdisk.PageID(l), Physical: vdisk.PageID(p)})
	}
	if n, ok = u32(); !ok {
		return g, false
	}
	for i := uint32(0); i < n; i++ {
		p, ok := u32()
		if !ok {
			return g, false
		}
		g.Fresh = append(g.Fresh, vdisk.PageID(p))
	}
	if n, ok = u32(); !ok {
		return g, false
	}
	for i := uint32(0); i < n; i++ {
		p, ok := u32()
		if !ok {
			return g, false
		}
		g.Freed = append(g.Freed, vdisk.PageID(p))
	}
	return g, true
}

// AppendGroup writes one commit group's chain at head (the preallocated
// log head) and returns the pages consumed plus the next log head. The
// final page write is the group's commit point and single fsync-equivalent.
func (s *Store) AppendGroup(head vdisk.PageID, g GroupRecord, alloc PageAlloc) (used []vdisk.PageID, next vdisk.PageID) {
	return writeChain(s.disk, head, groupMagic, g.Epoch, encodeGroupRecord(g), alloc)
}

// WriteCheckpoint folds st into a fresh checkpoint chain, points the meta
// page at it, and returns the previous checkpoint's pages (now garbage,
// reclaimable by the caller) plus the new log head. Crash-safe: the old
// chain stays intact until the meta write lands, and any post-crash reuse
// of the returned pages is itself dropped by the same crash.
func (s *Store) WriteCheckpoint(st TxnState, alloc PageAlloc) (freed []vdisk.PageID, next vdisk.PageID, err error) {
	m, err := readMeta(s.disk)
	if err != nil {
		return nil, 0, err
	}
	first := alloc()
	used, next := writeChain(s.disk, first, ckptMagic, st.Epoch, encodeTxnState(&st), alloc)
	m.ckptPage = first
	writeMeta(s.disk, 0, m)
	freed = s.ckptPages
	s.ckptPages = used
	return freed, next, nil
}

// InitTxn returns the volume's durable transaction state, first persisting
// the initial checkpoint (epoch 0, identity map, no extension pages) if the
// volume has none — neither recovered by Open nor written by an earlier
// call. The txn manager calls it at the start of its first commit.
func (s *Store) InitTxn() (*TxnState, error) {
	if s.txnState == nil {
		st := &TxnState{Map: map[vdisk.PageID]vdisk.PageID{}}
		_, next, err := s.WriteCheckpoint(*st, s.disk.Alloc)
		if err != nil {
			return nil, err
		}
		st.LogHead = next
		s.txnState = st
	}
	return s.txnState, nil
}

// recoverTxn reconstructs the transaction state from the checkpoint and a
// forward redo scan over the group chains. Returns nil when the volume has
// no transaction state. The scan's stopping conditions are documented at
// the top of this file; LogHead ends up at the first chain that is not
// durable, which is exactly where the next commit group must go.
func recoverTxn(disk *vdisk.Disk, m *metaInfo) (*TxnState, error) {
	if m.ckptPage == 0 {
		return nil, nil
	}
	payload, epoch, used, next, ok := readChain(disk, m.ckptPage, ckptMagic)
	if !ok {
		return nil, fmt.Errorf("storage: checkpoint chain at page %d unreadable", m.ckptPage)
	}
	st, err := decodeTxnState(payload)
	if err != nil {
		return nil, err
	}
	st.Epoch = epoch
	ckptPages := used

	head := next
	visited := make(map[vdisk.PageID]bool, len(used))
	for _, p := range used {
		visited[p] = true
	}
	for {
		if visited[head] {
			break // defensive: never walk a page twice
		}
		payload, gEpoch, gUsed, gNext, ok := readChain(disk, head, groupMagic)
		if !ok {
			break // end of durable log
		}
		for _, p := range gUsed {
			visited[p] = true
		}
		g, ok := decodeGroupRecord(gEpoch, payload)
		if !ok {
			break
		}
		if gEpoch > st.Epoch {
			for _, d := range g.Deltas {
				st.Map[d.Logical] = d.Physical
			}
			st.Extras = append(st.Extras, g.Fresh...)
			st.Free = append(st.Free, g.Freed...)
			st.Epoch = gEpoch
		}
		// Whether applied or already folded into the checkpoint, the
		// chain's pages are consumed; the fresh checkpoint written after
		// recovery folds them into the free list.
		st.Free = append(st.Free, gUsed...)
		head = gNext
	}
	st.LogHead = head
	// Old checkpoint pages become free once the post-recovery checkpoint's
	// meta write is issued; the caller rewrites the checkpoint, so hand
	// them over through the free list only after that happens. Stash them
	// in the state for the caller.
	st.Free = append(st.Free, ckptPages...)

	// Commits that landed after the checkpoint was cut may have reused
	// pages from the very free list the checkpoint captured (the manager
	// pops copy targets from it concurrently with the checkpoint write).
	// A page the recovered version map references must not resurface as
	// free; drop those, and duplicates, from the list.
	ref := make(map[vdisk.PageID]bool, len(st.Map))
	for _, p := range st.Map {
		ref[p] = true
	}
	seen := make(map[vdisk.PageID]bool, len(st.Free))
	free := st.Free[:0]
	for _, p := range st.Free {
		if ref[p] || seen[p] {
			continue
		}
		seen[p] = true
		free = append(free, p)
	}
	st.Free = free
	return st, nil
}
