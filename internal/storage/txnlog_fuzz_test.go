package storage

import (
	"bytes"
	"testing"

	"pathdb/internal/vdisk"
)

// The two decoders below run on the recovery path (storage.Open → recoverTxn)
// over chain payloads whose page trailers verified but whose content nothing
// else vouches for. Properties checked for every input: never panic, never
// materialize more entries than the input has bytes for, and anything
// accepted re-encodes to the bytes it was parsed from.

func FuzzDecodeGroupRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeGroupRecord(GroupRecord{}))
	f.Add(encodeGroupRecord(GroupRecord{Commits: 1, Deltas: []MapDelta{{Logical: 3, Physical: 9}}}))
	f.Add(encodeGroupRecord(GroupRecord{
		Commits: 4,
		Deltas:  []MapDelta{{Logical: 3, Physical: 9}, {Logical: 4, Physical: 10}},
		Fresh:   []vdisk.PageID{11, 12},
		Freed:   []vdisk.PageID{3},
	}))
	// A delta count far beyond the buffer.
	f.Add([]byte{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, raw []byte) {
		g, ok := decodeGroupRecord(7, raw)
		if !ok {
			return
		}
		if n := 16 + 8*len(g.Deltas) + 4*(len(g.Fresh)+len(g.Freed)); n > len(raw) {
			t.Fatalf("accepted %d deltas, %d fresh, %d freed from %d bytes",
				len(g.Deltas), len(g.Fresh), len(g.Freed), len(raw))
		}
		if g.Epoch != 7 {
			t.Fatalf("epoch = %d, want the chain's 7", g.Epoch)
		}
		if enc := encodeGroupRecord(g); !bytes.Equal(enc, raw[:len(enc)]) {
			t.Fatalf("round-trip mismatch:\n got % x\nwant % x", enc, raw[:len(enc)])
		}
	})
}

func FuzzDecodeTxnState(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeTxnState(&TxnState{}))
	f.Add(encodeTxnState(&TxnState{
		Map:    map[vdisk.PageID]vdisk.PageID{3: 9, 4: 10},
		Extras: []vdisk.PageID{11, 12},
		Free:   []vdisk.PageID{3, 5},
	}))
	// A relocation count far beyond the buffer.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := decodeTxnState(raw)
		if err != nil {
			return
		}
		if n := 12 + 8*len(st.Map) + 4*(len(st.Extras)+len(st.Free)); n > len(raw) {
			t.Fatalf("accepted %d relocations, %d extras, %d free from %d bytes",
				len(st.Map), len(st.Extras), len(st.Free), len(raw))
		}
		// The encoder writes relocations sorted and once each, so only an
		// input already in that form can round-trip to the byte; any other
		// accepted input must still round-trip to the same state.
		enc := encodeTxnState(st)
		again, err := decodeTxnState(enc)
		if err != nil {
			t.Fatalf("re-decode of encoder output: %v", err)
		}
		if len(again.Map) != len(st.Map) || !bytes.Equal(encodeTxnState(again), enc) {
			t.Fatal("state does not round-trip through the encoder")
		}
	})
}
