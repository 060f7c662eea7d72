package wal

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeFrames holds the record decoder to its recovery contract on
// arbitrary bytes: never panic, decode a clean prefix of whole records,
// report the exact truncation offset, and stop at the first corrupt frame.
// Run with `go test -fuzz=FuzzDecodeFrames ./internal/wal`; the checked-in
// corpus under testdata/ replays in normal `go test` runs (the CI
// recovery-gate job relies on that).
func FuzzDecodeFrames(f *testing.F) {
	// Seed the interesting shapes: empty, a valid single record, a valid
	// pair, a truncated tail, a corrupted checksum, an oversized length
	// prefix, and a non-JSON payload with a matching CRC.
	f.Add([]byte{})
	one, err := AppendFrame(nil, &Record{Seq: 1, Ops: []Op{{Kind: ReleaseDone, Remove: "d-000001", Tenant: "t"}}})
	if err != nil {
		f.Fatal(err)
	}
	two, err := AppendFrame(one, &Record{Seq: 2, Scope: "s1"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), one...))
	f.Add(append([]byte(nil), two...))
	f.Add(append([]byte(nil), two[:len(two)-3]...))
	corrupt := append([]byte(nil), one...)
	corrupt[frameHeader] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0x0e, 0x3d, 0x91, 0x26, 'h', 'i'}) // valid CRC, invalid JSON

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, err := DecodeFrames(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean offset %d outside [0, %d]", clean, len(data))
		}
		if err == nil && clean != len(data) {
			t.Fatalf("nil error but clean=%d of %d bytes", clean, len(data))
		}
		if err != nil && clean == len(data) {
			t.Fatalf("error %v but the whole input was consumed", err)
		}
		// The clean prefix must re-decode to the same records: recovery
		// truncates at clean and trusts everything before it.
		again, cleanAgain, errAgain := DecodeFrames(data[:clean])
		if errAgain != nil || cleanAgain != clean || len(again) != len(recs) {
			t.Fatalf("clean prefix does not re-decode: %d/%d records, clean %d/%d, err %v",
				len(again), len(recs), cleanAgain, clean, errAgain)
		}
		// And re-encoding each decoded record must produce a decodable frame
		// (round-trip sanity; Seq is preserved by AppendFrame).
		var buf []byte
		for i := range recs {
			buf, err = AppendFrame(buf, &recs[i])
			if err != nil {
				t.Fatalf("re-encode record %d: %v", i, err)
			}
		}
		back, _, err := DecodeFrames(buf)
		if err != nil || len(back) != len(recs) {
			t.Fatalf("re-encoded stream decodes to %d records, err %v", len(back), err)
		}
		for i := range back {
			if back[i].Seq != recs[i].Seq || !bytes.Equal(opsJSON(t, back[i].Ops), opsJSON(t, recs[i].Ops)) {
				t.Fatalf("record %d round-trip mismatch: %+v vs %+v", i, back[i], recs[i])
			}
		}
	})
}

// opsJSON renders a record's ops in their encoded form, so the round-trip
// check compares what the log stores (an empty list and a nil one encode
// alike).
func opsJSON(t *testing.T, ops []Op) []byte {
	t.Helper()
	b, err := json.Marshal(Record{Ops: ops})
	if err != nil {
		t.Fatalf("encode ops: %v", err)
	}
	return b
}
