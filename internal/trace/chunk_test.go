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

func TestChunkResetAndInstructions(t *testing.T) {
	recs := randRecords(100, 1)
	c := NewChunk(100)
	*c = append(*c, recs...)
	if c.Len() != 100 {
		t.Fatalf("Len = %d", c.Len())
	}
	var wantInstr int64
	for _, r := range recs {
		wantInstr += int64(r.NonMem) + 1
	}
	if c.Instructions() != wantInstr {
		t.Fatalf("Instructions = %d, want %d", c.Instructions(), wantInstr)
	}
	c.Reset()
	if c.Len() != 0 || cap(*c) != 100 {
		t.Fatalf("Reset left len=%d cap=%d", c.Len(), cap(*c))
	}
}

// TestEncodeChunkSplitMatchesWrite: encoding a trace in two chunks split
// at an arbitrary record must produce the exact bytes of Write, which
// encodes it in one (delta state carries over between chunks).
func TestEncodeChunkSplitMatchesWrite(t *testing.T) {
	recs := randRecords(1000, 2)
	whole := encodeTrace(t, &Trace{Name: "t", Suite: "s", Records: recs})

	var b bytes.Buffer
	e, err := NewEncoder(&b, "t", "s", len(recs))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Chunk{recs[:337], recs[337:]} {
		if err := e.EncodeChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, b.Bytes()) {
		t.Fatal("split encoding produced different bytes than Write")
	}
}

// TestDecodeChunkRoundTrip: written records come back intact through the
// chunk decode path, at a chunk size that leaves a partial final chunk.
func TestDecodeChunkRoundTrip(t *testing.T) {
	recs := randRecords(777, 3)
	data := encodeTrace(t, &Trace{Name: "rt", Suite: "s", Records: recs})

	d, err := NewDecoder(bytes.NewReader(data))
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
		got = append(got, *c...)
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

// TestFillChunkGenMatchesNext: the generator's direct chunk fill yields
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
			if (*c)[j] != want {
				t.Fatalf("record %d = %+v, want %+v", i+j, (*c)[j], want)
			}
		}
		i += n
	}
}
