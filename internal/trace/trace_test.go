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
		for i := 0; i < c.Len(); i++ {
			out = append(out, c.At(i))
		}
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

// TestRecycleSliceReader checks that a reader on a recycled column
// buffer serves exactly the chunks of a fresh reader, whatever the
// spare's run left in the buffer, and serves them from that buffer.
func TestRecycleSliceReader(t *testing.T) {
	w, ok := ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	recs := w.Generate(3000).Records
	spare := NewSliceReader(w.Generate(5000).Records)
	spare.SetBatch(1024)
	for _, ok := spare.NextChunk(); ok; _, ok = spare.NextChunk() {
	}
	buf := &spare.buf.PC[:1][0]
	fresh := NewSliceReader(recs)
	recycled := RecycleSliceReader(recs, spare)
	if spare.buf.PC != nil {
		t.Error("the spare kept its column buffer")
	}
	fresh.SetBatch(1024)
	recycled.SetBatch(1024)
	for n := 0; ; n++ {
		a, okA := fresh.NextChunk()
		b, okB := recycled.NextChunk()
		if okA != okB || !reflect.DeepEqual(a, b) {
			t.Fatalf("chunk %d differs: fresh (%v, %d records), recycled (%v, %d records)", n, okA, a.Len(), okB, b.Len())
		}
		if !okA {
			break
		}
		if &b.PC[0] != buf {
			t.Fatalf("chunk %d: the recycled reader allocated a buffer of its own", n)
		}
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
