package trace

import (
	"reflect"
	"testing"
)

func TestRecordInstructions(t *testing.T) {
	r := Record{NonMem: 10}
	if r.Instructions() != 11 {
		t.Errorf("Instructions() = %d, want 11", r.Instructions())
	}
	if (Record{}).Instructions() != 1 {
		t.Error("bare record should count 1 instruction")
	}
}

func TestTraceInstructions(t *testing.T) {
	tr := &Trace{Records: []Record{{NonMem: 5}, {NonMem: 0}, {NonMem: 3}}}
	if got := tr.Instructions(); got != 11 {
		t.Errorf("Instructions() = %d, want 11", got)
	}
}

func TestTraceString(t *testing.T) {
	tr := &Trace{Name: "x", Suite: "S", Records: make([]Record, 3)}
	if got := tr.String(); got != "S/x (3 accesses)" {
		t.Errorf("String() = %q", got)
	}
}

// drainSlice collects every record r serves through NextChunk.
func drainSlice(r *SliceReader) []Record {
	var out []Record
	for c, ok := r.NextChunk(); ok; c, ok = r.NextChunk() {
		out = append(out, c...)
	}
	return out
}

func TestSliceReader(t *testing.T) {
	recs := randRecords(1000, 5)
	r := NewSliceReader(recs)
	r.SetBatch(64)
	if c, ok := r.NextChunk(); !ok || c.Len() != 64 {
		t.Fatalf("first chunk = (%d records, %v), want 64", c.Len(), ok)
	}
	if got := drainSlice(r); !reflect.DeepEqual(got, recs[64:]) {
		t.Fatalf("drain after one chunk yielded %d records, want the remaining %d in order", len(got), len(recs)-64)
	}
	if _, ok := r.NextChunk(); ok {
		t.Error("exhausted reader should keep returning !ok")
	}
	r.Reset()
	if got := drainSlice(r); !reflect.DeepEqual(got, recs) {
		t.Errorf("after Reset drained %d records, want all %d in order", len(got), len(recs))
	}
	if r.Err() != nil || r.Close() != nil {
		t.Error("a slice reader reported an error")
	}
}

// TestSliceReaderWindowsInPlace checks that NextChunk serves windows of
// the caller's records without copying or allocating, each with its
// capacity capped at its length, so an append to a chunk cannot write
// into the records after it.
func TestSliceReaderWindowsInPlace(t *testing.T) {
	recs := randRecords(1000, 6)
	r := NewSliceReader(recs)
	r.SetBatch(300)
	for pos := 0; pos < len(recs); {
		c, ok := r.NextChunk()
		if !ok {
			t.Fatalf("reader ended at record %d of %d", pos, len(recs))
		}
		if want := min(300, len(recs)-pos); len(c) != want || cap(c) != want {
			t.Fatalf("chunk at %d: len %d cap %d, want both %d", pos, len(c), cap(c), want)
		}
		if &c[0] != &recs[pos] {
			t.Fatalf("chunk at %d does not alias the caller's records", pos)
		}
		pos += len(c)
	}
	if _, ok := r.NextChunk(); ok {
		t.Fatal("exhausted reader served a chunk")
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset()
		for _, ok := r.NextChunk(); ok; _, ok = r.NextChunk() {
		}
	})
	if allocs != 0 {
		t.Errorf("a pass of NextChunk allocated %.1f times", allocs)
	}
}

func TestSliceReaderEmpty(t *testing.T) {
	r := NewSliceReader(nil)
	if _, ok := r.NextChunk(); ok {
		t.Error("empty reader should return !ok")
	}
	r.Reset()
	if _, ok := r.NextChunk(); ok {
		t.Error("empty reader should return !ok after Reset")
	}
}
