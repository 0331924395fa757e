package trace

import (
	"bytes"
	"math/rand"
	"testing"
)

func randRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			PC:     rng.Uint64() >> 20,
			Addr:   rng.Uint64() >> 16,
			NonMem: uint16(rng.Intn(300)),
			Store:  rng.Intn(5) == 0,
		}
	}
	return recs
}

func TestChunkAppendAtReset(t *testing.T) {
	recs := randRecords(100, 1)
	c := NewChunk(100)
	for _, r := range recs {
		c.Append(r)
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d", c.Len())
	}
	for i, r := range recs {
		if c.At(i) != r {
			t.Fatalf("At(%d) = %+v, want %+v", i, c.At(i), r)
		}
	}
	var wantInstr int64
	for _, r := range recs {
		wantInstr += int64(r.NonMem) + 1
	}
	if c.Instructions() != wantInstr {
		t.Fatalf("Instructions = %d, want %d", c.Instructions(), wantInstr)
	}
	c.Reset()
	if c.Len() != 0 || cap(c.PC) != 100 {
		t.Fatalf("Reset left len=%d cap=%d", c.Len(), cap(c.PC))
	}
}

// TestEncodeChunkMatchesWriteRecord: the column encoder must produce the
// exact bytes of the per-record encoder, including across an arbitrary
// chunk split (delta state carries over).
func TestEncodeChunkMatchesWriteRecord(t *testing.T) {
	recs := randRecords(1000, 2)
	var a bytes.Buffer
	e1, err := NewEncoder(&a, "t", "s", len(recs))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := e1.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	e2, err := NewEncoder(&b, "t", "s", len(recs))
	if err != nil {
		t.Fatal(err)
	}
	c := NewChunk(len(recs))
	for _, r := range recs[:337] {
		c.Append(r)
	}
	if err := e2.EncodeChunk(c); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	for _, r := range recs[337:] {
		c.Append(r)
	}
	if err := e2.EncodeChunk(c); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chunked encoding produced different bytes than per-record encoding")
	}
}

// TestDecodeChunkRoundTrip: records written per-record come back intact
// through the column decode path, at a chunk size that leaves a partial
// final chunk.
func TestDecodeChunkRoundTrip(t *testing.T) {
	recs := randRecords(777, 3)
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, "rt", "s", len(recs))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := e.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	c := NewChunk(100)
	var got []Record
	for {
		c.Reset()
		n, err := d.DecodeChunk(c, 100)
		if err != nil {
			t.Fatal(err)
		}
		if n != c.Len() {
			t.Fatalf("DecodeChunk returned %d but chunk holds %d", n, c.Len())
		}
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			got = append(got, c.At(i))
		}
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestFillChunkGenMatchesNext: the generator's direct column fill yields
// the exact record sequence of repeated Next calls.
func TestFillChunkGenMatchesNext(t *testing.T) {
	// Actors carry state, so each Generator needs its own Spec.
	build := func() Spec {
		return Spec{Seed: 11, MeanGap: 6, StoreFrac: 0.1, Actors: []WeightedActor{
			{&StreamActor{PC: 1, Base: 1 << 30, Dir: 1, Span: 100}, 1},
			{&ZipfActor{PC: 2, Base: 1 << 32, Lines: 1024, Theta: 0.8}, 1},
		}}
	}
	byNext := build().Generator(2000)
	byFill := build().Generator(2000)
	c := NewChunk(64)
	for i := 0; i < 1000; {
		c.Reset()
		n := FillChunk(byFill, c, 64)
		if n == 0 {
			t.Fatal("generator ended early")
		}
		for j := 0; j < n; j++ {
			want, ok := byNext.Next()
			if !ok {
				t.Fatal("reference generator ended early")
			}
			if c.At(j) != want {
				t.Fatalf("record %d = %+v, want %+v", i+j, c.At(j), want)
			}
		}
		i += n
	}
}
