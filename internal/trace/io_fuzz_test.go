package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// encodeTrace is a test helper that encodes t and fails the test on error.
func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeRecords decodes data record by record through Decoder.Next
// (chunk == 0) or through Decoder.DecodeChunk at the given chunk size. It
// returns the records decoded before the first error, and that error.
func decodeRecords(r io.Reader, chunk int) ([]Record, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	var out []Record
	if chunk == 0 {
		for {
			rec, err := d.Next()
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return out, err
			}
			out = append(out, rec)
		}
	}
	c := NewChunk(chunk)
	for {
		c.Reset()
		n, err := d.DecodeChunk(c, chunk)
		if n != c.Len() {
			return out, fmt.Errorf("DecodeChunk returned %d but the chunk holds %d", n, c.Len())
		}
		for i := 0; i < n; i++ {
			out = append(out, c.At(i))
		}
		if err != nil || n < chunk {
			return out, err
		}
	}
}

// sameDecode fails the test unless the two decodes produced the same
// records and the same error (or both none).
func sameDecode(t *testing.T, label string, got []Record, gotErr error, want []Record, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", label, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// FuzzRoundTrip feeds arbitrary bytes to the decoder: anything that
// decodes must re-encode and decode again to the identical trace, and
// nothing — however corrupt — may crash or over-allocate (the decoder caps
// name lengths, record counts and the records pre-allocation). The chunk
// path (DecodeChunk, what file-streamed runs use) must agree with Read on
// every input: the same records, and the same success or failure.
//
// Run with: go test -fuzz=FuzzRoundTrip ./internal/trace
func FuzzRoundTrip(f *testing.F) {
	// Seeds: a healthy trace, an empty trace, tricky varint boundaries.
	healthy := &Trace{Name: "fuzz-1", Suite: "TEST", Records: []Record{
		{PC: 0x400000, Addr: 1 << 33, NonMem: 12},
		{PC: 0x3fff00, Addr: 1 << 20, NonMem: 65535, Store: true},
		{PC: 0, Addr: 0, NonMem: 0},
	}}
	for _, tr := range []*Trace{healthy, {Name: "", Suite: "", Records: nil}} {
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("PYTR1"))
	f.Add([]byte("PYTR1\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		want, wantErr := decodeRecords(bytes.NewReader(data), 0)
		if err == nil {
			sameDecode(t, "Next", want, wantErr, tr.Records, nil)
		} else {
			sameDecode(t, "Next", nil, wantErr, nil, err)
		}
		for _, chunk := range []int{1, 7, 4096} {
			got, gotErr := decodeRecords(bytes.NewReader(data), chunk)
			sameDecode(t, fmt.Sprintf("chunk %d", chunk), got, gotErr, want, wantErr)
		}
		if err != nil {
			if tr != nil {
				t.Fatal("non-nil trace alongside a decode error")
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("re-encoding a decoded trace failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if back.Name != tr.Name || back.Suite != tr.Suite || len(back.Records) != len(tr.Records) {
			t.Fatalf("round trip diverged: %v vs %v", back, tr)
		}
		for i := range back.Records {
			if back.Records[i] != tr.Records[i] {
				t.Fatalf("record %d diverged: %+v vs %+v", i, back.Records[i], tr.Records[i])
			}
		}
	})
}

// TestReadHugeCountRejected ensures a corrupt header cannot demand a huge
// record count (and that the pre-allocation is capped below it anyway).
func TestReadHugeCountRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(0) // empty name
	buf.WriteByte(0) // empty suite
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 1<<40) // absurd count
	buf.Write(tmp[:n])
	if _, err := Read(&buf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("count 1<<40: got %v, want ErrBadFormat", err)
	}
}

// TestReadHugeStringRejected ensures name/suite lengths are bounded.
func TestReadHugeStringRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 1<<30)
	buf.Write(tmp[:n])
	if _, err := Read(&buf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("name length 1<<30: got %v, want ErrBadFormat", err)
	}
}

// TestReadNonMemOverflowRejected ensures an encoded nonmem beyond uint16
// is a format error rather than a silent truncation.
func TestReadNonMemOverflowRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(0) // name
	buf.WriteByte(0) // suite
	buf.WriteByte(1) // one record
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], 0) // pc delta
	buf.Write(tmp[:n])
	n = binary.PutVarint(tmp[:], 0) // addr delta
	buf.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], 1<<20) // nonmem way past uint16
	buf.Write(tmp[:n])
	buf.WriteByte(0) // flags
	if _, err := Read(&buf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("nonmem 1<<20: got %v, want ErrBadFormat", err)
	}
}

// TestCorruptRecordRejectedMidTrace puts one bad record after 100 good
// ones, followed by padding, so the decoder meets it inside a full read
// window rather than at the end of input. Every decode path must deliver
// the 100 good records and then fail with ErrBadFormat on record 100.
func TestCorruptRecordRejectedMidTrace(t *testing.T) {
	good := randRecords(100, 4)
	cases := map[string][]byte{
		"nonmem overflows uint16": {0, 0, 0x80, 0x80, 0x40, 0},
		"11-byte pc varint":       append(bytes.Repeat([]byte{0x80}, 10), 0),
		"10th addr byte > 1":      append([]byte{0}, append(bytes.Repeat([]byte{0xff}, 9), 2)...),
	}
	for name, bad := range cases {
		var buf bytes.Buffer
		e, err := NewEncoder(&buf, "corrupt", "TEST", 200)
		if err != nil {
			t.Fatal(err)
		}
		c := NewChunk(len(good))
		for _, r := range good {
			c.Append(r)
		}
		if err := e.EncodeChunk(c); err != nil {
			t.Fatal(err)
		}
		buf.Write(bad)
		buf.Write(make([]byte, 200))
		for _, chunk := range []int{0, 1, 7, 4096} {
			got, err := decodeRecords(bytes.NewReader(buf.Bytes()), chunk)
			if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "record 100:") {
				t.Fatalf("%s, chunk %d: error %v, want ErrBadFormat at record 100", name, chunk, err)
			}
			sameDecode(t, fmt.Sprintf("%s, chunk %d", name, chunk), got, nil, good, nil)
		}
	}
}

// TestDecoderTruncatedMidRecord walks every truncation point of a small
// trace through the incremental Decoder, record by record and through the
// chunk path.
func TestDecoderTruncatedMidRecord(t *testing.T) {
	tr := &Trace{Name: "trunc", Suite: "TEST", Records: []Record{
		{PC: 1 << 40, Addr: 1 << 41, NonMem: 300},
		{PC: 1, Addr: 2, NonMem: 0, Store: true},
	}}
	full := encodeTrace(t, tr)
	for cut := 0; cut < len(full); cut++ {
		_, err := Read(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at byte %d/%d not detected", cut, len(full))
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("truncation at byte %d: %v is not ErrBadFormat", cut, err)
		}
		want, wantErr := decodeRecords(bytes.NewReader(full[:cut]), 0)
		for _, chunk := range []int{1, 7, 4096} {
			got, err := decodeRecords(bytes.NewReader(full[:cut]), chunk)
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("truncation at byte %d, chunk %d: %v is not ErrBadFormat", cut, chunk, err)
			}
			sameDecode(t, fmt.Sprintf("cut %d, chunk %d", cut, chunk), got, err, want, wantErr)
		}
	}
}

// TestDecoderHeaderAndEOF exercises the Decoder surface directly: header
// accessors, io.EOF after the declared count, and EOF stickiness.
func TestDecoderHeaderAndEOF(t *testing.T) {
	tr := &Trace{Name: "dec", Suite: "SUITE", Records: []Record{{PC: 7, Addr: 9, NonMem: 3}}}
	d, err := NewDecoder(bytes.NewReader(encodeTrace(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "dec" || d.Suite() != "SUITE" || d.Count() != 1 {
		t.Fatalf("header: %q/%q count %d", d.Name(), d.Suite(), d.Count())
	}
	rec, err := d.Next()
	if err != nil || rec != tr.Records[0] {
		t.Fatalf("Next = %+v, %v", rec, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("post-count Next #%d: %v, want io.EOF", i, err)
		}
	}
}

// TestEncoderCountEnforced ensures the encoder rejects both over- and
// under-writing the declared record count.
func TestEncoderCountEnforced(t *testing.T) {
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, "n", "s", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err == nil {
		t.Error("Close with a missing record succeeded")
	}
	if err := e.WriteRecord(Record{}); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteRecord(Record{}); err == nil {
		t.Error("writing past the declared count succeeded")
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close after exactly count records: %v", err)
	}
	if _, err := NewEncoder(io.Discard, "n", "s", -1); err == nil {
		t.Error("negative count accepted")
	}
}

func TestReadRejectsShortMagic(t *testing.T) {
	for _, in := range []string{"", "P", "PYTR", "PYTR2"} {
		if _, err := Read(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("magic %q: got %v, want ErrBadFormat", in, err)
		}
	}
}
