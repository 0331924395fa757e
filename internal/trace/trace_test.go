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

func TestSliceReader(t *testing.T) {
	recs := []Record{{PC: 1}, {PC: 2}, {PC: 3}}
	r := NewSliceReader(recs)
	if r.Len() != 3 {
		t.Fatalf("Len() = %d", r.Len())
	}
	var seen []uint64
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		seen = append(seen, rec.PC)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Errorf("iteration order wrong: %v", seen)
	}
	if _, ok := r.Next(); ok {
		t.Error("exhausted reader should keep returning !ok")
	}
	r.Reset()
	rec, ok := r.Next()
	if !ok || rec.PC != 1 {
		t.Errorf("after Reset got (%v, %v)", rec.PC, ok)
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
	if _, ok := r.Next(); ok {
		t.Error("empty reader should return !ok")
	}
	r.Reset()
	if _, ok := r.Next(); ok {
		t.Error("empty reader should return !ok after Reset")
	}
}
