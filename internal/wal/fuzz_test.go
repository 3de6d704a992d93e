package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzWALReplay hammers the frame replay path with truncation,
// bit-flips, and garbage. Invariants: replay never panics, never
// returns a record whose re-encoding (and therefore CRC) disagrees with
// the bytes it was decoded from, keeps sequence numbers strictly
// consecutive, and consumes exactly the clean prefix.
func FuzzWALReplay(f *testing.F) {
	// Seed corpus: a clean three-record log of journal state frames
	// (type 3), plus mutants.
	clean := encodeFramesForTest(f, []Record{
		{Seq: 1, Type: 3, Data: []byte(`{"schema":2,"state":{"epoch":1}}`)},
		{Seq: 2, Type: 3, Data: []byte(`{"schema":2,"state":{"epoch":2},"data":{}}`)},
		{Seq: 3, Type: 3, Data: []byte(`{"schema":2,"state":{"epoch":3}}`)},
	})
	f.Add(clean)
	f.Add(clean[:len(clean)-3])                 // torn tail
	f.Add(append([]byte{0xff, 0xff}, clean...)) // garbage prefix
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00}, 64))

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, consumed, dmg := decodeFrames(b)
		if consumed < 0 || consumed > len(b) {
			t.Fatalf("consumed %d outside [0,%d]", consumed, len(b))
		}
		if dmg == nil && consumed != len(b) {
			t.Fatalf("no damage reported but only %d/%d bytes consumed", consumed, len(b))
		}
		if dmg != nil && dmg.Offset != consumed {
			t.Fatalf("damage offset %d != consumed %d", dmg.Offset, consumed)
		}
		// Every returned record must re-encode to exactly the bytes it
		// came from — which also re-proves its CRC — and the whole
		// clean prefix must round-trip.
		var re []byte
		var err error
		for i, r := range recs {
			if i > 0 && r.Seq != recs[i-1].Seq+1 {
				t.Fatalf("records %d..%d break sequence continuity: %d then %d", i-1, i, recs[i-1].Seq, r.Seq)
			}
			re, err = appendFrame(re, r)
			if err != nil {
				t.Fatalf("re-encode record %d: %v", i, err)
			}
		}
		if !bytes.Equal(re, b[:consumed]) {
			t.Fatalf("re-encoded prefix (%d bytes) != consumed input (%d bytes)", len(re), consumed)
		}
		// Paranoia: recompute each record's CRC from the consumed bytes
		// directly; a record must never survive replay with a bad CRC.
		off := 0
		for i := range recs {
			n := int(binary.LittleEndian.Uint32(b[off : off+4]))
			payload := b[off+frameHeaderLen : off+frameHeaderLen+n]
			if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[off+4:off+8]) {
				t.Fatalf("record %d passed replay with a failing CRC", i)
			}
			off += frameHeaderLen + n
		}
	})
}

func encodeFramesForTest(f *testing.F, recs []Record) []byte {
	f.Helper()
	var b []byte
	var err error
	for _, r := range recs {
		b, err = appendFrame(b, r)
		if err != nil {
			f.Fatalf("encode: %v", err)
		}
	}
	return b
}
