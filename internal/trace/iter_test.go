package trace

import "testing"

// iterRecords drains a one-pass iterator through FillChunk runs of up to
// chunk records.
func iterRecords(it Iter, chunk int) []Record {
	c := NewChunk(chunk)
	var out []Record
	for {
		c.Reset()
		n := it.FillChunk(c, chunk)
		for i := 0; i < n; i++ {
			out = append(out, c.At(i))
		}
		if n < chunk {
			return out
		}
	}
}

// TestGeneratorMatchesGenerate is the contract the streaming pipeline
// stands on: Spec.Generator must yield exactly the sequence Generate
// materializes, for every registered workload shape.
func TestGeneratorMatchesGenerate(t *testing.T) {
	names := []string{
		"459.GemsFDTD-100B", // delta chains
		"410.bwaves-100B",   // streams/strides
		"429.mcf-100B",      // pointer chase
		"CC-100B",           // graph
		"cassandra-100B",    // zipf/server
	}
	const n = 30_000
	for _, name := range names {
		w, ok := ByName(name)
		if !ok {
			t.Errorf("missing workload %s", name)
			continue
		}
		want := w.Generate(n).Records
		got := iterRecords(w.Iter(n), 1000)
		if len(got) != len(want) {
			t.Errorf("%s: iterator yielded %d records, want %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}

func TestGeneratorRemaining(t *testing.T) {
	w, ok := ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	g := w.Spec().Generator(10)
	if g.Remaining() != 10 {
		t.Errorf("Remaining = %d, want 10", g.Remaining())
	}
	g.Next()
	if g.Remaining() != 9 {
		t.Errorf("Remaining after one Next = %d, want 9", g.Remaining())
	}
	if w.NumRecords(10) != 10 {
		t.Errorf("NumRecords = %d", w.NumRecords(10))
	}
	// Degenerate specs produce nothing.
	if got := (Spec{}).Generator(5).Remaining(); got != 0 {
		t.Errorf("empty spec Remaining = %d, want 0", got)
	}
	if _, ok := (Spec{}).Generator(5).Next(); ok {
		t.Error("empty spec produced a record")
	}
}

// TestNumRecordsMatchesGenerate checks the count NumRecords computes from
// the spec against what Generate produces, degenerate specs and lengths
// included.
func TestNumRecordsMatchesGenerate(t *testing.T) {
	gems, _ := ByName("459.GemsFDTD-100B")
	for _, w := range []Workload{
		gems,
		{Name: "empty", Spec: func() Spec { return Spec{} }},
		{Name: "zero-weight", Spec: func() Spec {
			return Spec{Actors: []WeightedActor{{&StrideActor{Stride: 1}, 0}}}
		}},
	} {
		for _, n := range []int{-3, 0, 1, 10} {
			if got, want := w.NumRecords(n), len(w.Generate(n).Records); got != want {
				t.Errorf("%s: NumRecords(%d) = %d, Generate made %d", w.Name, n, got, want)
			}
		}
	}
}

func TestWorkloadKeyDistinguishes(t *testing.T) {
	a, _ := ByName("459.GemsFDTD-100B")
	b, _ := ByName("410.bwaves-100B")
	if a.Key(100) == b.Key(100) {
		t.Error("different workloads share a key")
	}
	if a.Key(100) == a.Key(200) {
		t.Error("different lengths share a key")
	}
	if a.Key(100) != a.Key(100) {
		t.Error("key not deterministic")
	}
	// Fixed workloads ignore n: both keys describe the same 3 records.
	ft := Fixed(&Trace{Name: "f", Suite: "s", Records: make([]Record, 3)})
	if ft.Key(100) != ft.Key(200) {
		t.Error("fixed workload keys should not depend on n")
	}
	if ft.NumRecords(100) != 3 {
		t.Errorf("fixed NumRecords = %d, want 3", ft.NumRecords(100))
	}
}

// TestFixedWorkloadIter: a fixed workload's Iter yields exactly its
// resident records, whatever n asks for, across chunk boundaries.
func TestFixedWorkloadIter(t *testing.T) {
	recs := randRecords(300, 6)
	w := Fixed(&Trace{Name: "f", Suite: "s", Records: recs})

	it := w.Iter(10)
	got := iterRecords(it, 64)
	if len(got) != len(recs) {
		t.Fatalf("FillChunk yielded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("FillChunk record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	if n := FillChunk(it, NewChunk(64), 64); n != 0 {
		t.Fatalf("FillChunk after the end appended %d records", n)
	}
}
