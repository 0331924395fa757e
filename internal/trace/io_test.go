package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	orig := &Trace{
		Name:  "roundtrip-1",
		Suite: "TEST",
		Records: []Record{
			{PC: 0x400000, Addr: 1 << 33, NonMem: 12},
			{PC: 0x400004, Addr: 1<<33 + 64, NonMem: 0, Store: true},
			{PC: 0x3fff00, Addr: 1 << 20, NonMem: 65535},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != orig.Name || got.Suite != orig.Suite {
		t.Errorf("identity mismatch: %q/%q", got.Name, got.Suite)
	}
	if len(got.Records) != len(orig.Records) {
		t.Fatalf("record count %d, want %d", len(got.Records), len(orig.Records))
	}
	for i := range got.Records {
		if got.Records[i] != orig.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, got.Records[i], orig.Records[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "p", Suite: "q"}
		var pc, addr uint64
		for i := 0; i < int(n); i++ {
			// Mix forward and backward movements to exercise signed deltas.
			pc += uint64(rng.Intn(1000)) - 200
			addr += uint64(rng.Intn(100000)) - 20000
			tr.Records = append(tr.Records, Record{
				PC: pc, Addr: addr,
				NonMem: uint16(rng.Intn(1 << 16)),
				Store:  rng.Intn(2) == 0,
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Records) != len(tr.Records) {
			return false
		}
		for i := range got.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRoundTripAcrossRefills round-trips a trace many times longer than
// the decoder's read buffer, with deltas of every varint width from one
// byte to ten, so records straddle buffer refills at every offset. Each
// decode path (Read, DecodeChunk at several sizes) reads it through
// readers that return whole, half and single-byte reads.
func TestRoundTripAcrossRefills(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := &Trace{Name: "refill", Suite: "TEST", Records: make([]Record, 20_000)}
	var pc, addr uint64
	for i := range tr.Records {
		// A random bit length gives every encoded width equal weight.
		pc += uint64(rng.Int63()) >> rng.Intn(64)
		addr -= uint64(rng.Int63()) >> rng.Intn(64)
		tr.Records[i] = Record{PC: pc, Addr: addr, NonMem: uint16(rng.Intn(math.MaxUint16 + 1)), Store: rng.Intn(3) == 0}
	}
	data := encodeTrace(t, tr)
	if len(data) < 40*4096 {
		t.Fatalf("encoded trace is %d bytes, too short to span many refills", len(data))
	}
	readers := map[string]func() io.Reader{
		"whole": func() io.Reader { return bytes.NewReader(data) },
		"half":  func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
		"byte":  func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
	}
	for name, open := range readers {
		back, err := Read(open())
		if err != nil {
			t.Fatalf("%s reads: Read: %v", name, err)
		}
		sameDecode(t, name+" reads, Read", back.Records, nil, tr.Records, nil)
		for _, chunk := range []int{1, 7, 4096, 1 << 15} {
			got, err := decodeRecords(open(), chunk)
			sameDecode(t, fmt.Sprintf("%s reads, chunk %d", name, chunk), got, err, tr.Records, nil)
		}
	}
}

func TestReadBadMagic(t *testing.T) {
	_, err := Read(strings.NewReader("NOTATRACE"))
	if !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat, got %v", err)
	}
}

func TestReadTruncated(t *testing.T) {
	tr := &Trace{Name: "x", Suite: "y", Records: make([]Record, 10)}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 3, 5, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestReadEmptyTrace(t *testing.T) {
	tr := &Trace{Name: "empty", Suite: "s"}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 0 || got.Name != "empty" {
		t.Errorf("got %+v", got)
	}
}
