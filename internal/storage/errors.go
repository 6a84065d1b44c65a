package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"pathdb/internal/buffer"
	"pathdb/internal/stats"
	"pathdb/internal/vdisk"
)

// PageErrorKind classifies a failed page access.
type PageErrorKind uint8

// Page error kinds.
const (
	// PageIO: the device kept failing the read within the retry policy
	// (transient faults that never yielded a good transfer).
	PageIO PageErrorKind = iota
	// PageCorrupt: the page was transferred but its content is bad — the
	// checksum trailer kept failing, or the record structure is malformed.
	PageCorrupt
)

func (k PageErrorKind) String() string {
	switch k {
	case PageIO:
		return "io"
	case PageCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("page-error(%d)", uint8(k))
	}
}

// PageError is the typed failure of a page access, after the verified-read
// retry path has been exhausted. It is the storage layer's contribution to
// the pathdb error taxonomy: the facade maps PageIO to KindIO and
// PageCorrupt to KindCorrupt.
type PageError struct {
	Page vdisk.PageID
	Kind PageErrorKind
	Err  error // last underlying failure (device error or checksum detail)
}

func (e *PageError) Error() string {
	return fmt.Sprintf("storage: page %d %s error: %v", e.Page, e.Kind, e.Err)
}

func (e *PageError) Unwrap() error { return e.Err }

// pageFault transports a *PageError across the error-free navigation
// interfaces (Cursor methods, operator Next loops) as a typed panic; the
// query boundaries (engine dispatcher, QueryCtx, exports) recover it via
// AsPageFault. Keeping the fault typed means an unrelated panic — a real
// bug — still crashes loudly instead of masquerading as an I/O error.
type pageFault struct {
	err *PageError
}

// AsPageFault reports whether a recovered panic value is a transported
// page fault and returns the underlying typed error.
func AsPageFault(r any) (*PageError, bool) {
	if f, ok := r.(pageFault); ok {
		return f.err, true
	}
	return nil, false
}

// throwPageError escalates err as a page fault panic (see pageFault).
func throwPageError(p vdisk.PageID, err error) {
	panic(pageFault{pageErrorFrom(p, err)})
}

// pageErrorFrom wraps err into a *PageError for page p, classifying device
// read errors as PageIO and everything else (checksum trailer mismatches,
// malformed records) as PageCorrupt. An err that already is a *PageError
// passes through unchanged.
func pageErrorFrom(p vdisk.PageID, err error) *PageError {
	var pe *PageError
	if errors.As(err, &pe) {
		return pe
	}
	var re *vdisk.ReadError
	if errors.As(err, &re) {
		return &PageError{Page: p, Kind: PageIO, Err: err}
	}
	return &PageError{Page: p, Kind: PageCorrupt, Err: err}
}

// --- page checksum trailer -------------------------------------------------
//
// Every page written by the storage layer ends in an 8-byte little-endian
// trailer: the payload length before padding in the low word, and in the
// high word the CRC-32C (hardware-accelerated, allocation-free) of everything
// before it, length included. It is verified on every read (the buffer pool
// runs verifyPageTrailer against each image it loads). The trailer
// shrinks the usable page capacity by pageTrailerSize bytes; all layout
// computations (page builder, live-page fit checks, log chain capacity,
// meta and dictionary chunking) work against usable(pageSize).

// pageTrailerSize is the size of the per-page checksum trailer.
const pageTrailerSize = 8

// usable returns the page capacity available to payload bytes.
func usable(pageSize int) int { return pageSize - pageTrailerSize }

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// pageChecksum computes the CRC word of a full page image.
func pageChecksum(page []byte) uint32 {
	return crc32.Checksum(page[:len(page)-4], castagnoliTable)
}

// finalizePage pads payload to a full page and stamps the checksum trailer.
func finalizePage(payload []byte, pageSize int) []byte {
	if len(payload) > usable(pageSize) {
		panic(fmt.Sprintf("storage: page payload of %d bytes exceeds usable size %d",
			len(payload), usable(pageSize)))
	}
	out := make([]byte, pageSize)
	copy(out, payload)
	binary.LittleEndian.PutUint32(out[pageSize-pageTrailerSize:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[pageSize-4:], pageChecksum(out))
	return out
}

// writePage writes payload to page p with the checksum trailer stamped.
func writePage(disk *vdisk.Disk, p vdisk.PageID, payload []byte) {
	disk.Write(p, finalizePage(payload, disk.PageSize()))
}

// verifyPageTrailer checks a full page image against its checksum trailer.
// Its signature matches the buffer pool's verifier hook.
func verifyPageTrailer(p vdisk.PageID, data []byte) error {
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := pageChecksum(data); got != want {
		return &PageError{Page: p, Kind: PageCorrupt,
			Err: fmt.Errorf("checksum trailer mismatch (got %#x, want %#x)", got, want)}
	}
	return nil
}

// readPageVerified reads page p directly from the device (bypassing the
// buffer pool — for the meta page, dictionary and log chain pages) under the
// default retry policy, verifying the checksum trailer on every attempt.
func readPageVerified(disk *vdisk.Disk, p vdisk.PageID, buf []byte) error {
	led := disk.Ledger()
	pol := buffer.DefaultRetryPolicy()
	backoff := pol.Backoff
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			stats.Inc(&led.ReadRetries)
			led.BlockUntil(led.Total() + backoff)
			backoff *= 2
		}
		if err := disk.ReadSync(p, buf); err != nil {
			lastErr = err
			continue
		}
		if err := verifyPageTrailer(p, buf); err != nil {
			stats.Inc(&led.ChecksumFails)
			lastErr = err
			continue
		}
		return nil
	}
	return pageErrorFrom(p, lastErr)
}
