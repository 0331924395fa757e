package stream

import (
	"path/filepath"
	"testing"

	"pythia/internal/trace"
)

// iterRecords collects the record sequence of a one-pass iterator, one
// record per FillChunk call.
func iterRecords(it trace.Iter) []trace.Record {
	var out []trace.Record
	c := trace.NewChunk(1)
	for c.Reset(); it.FillChunk(c, 1) == 1; c.Reset() {
		out = append(out, (*c)[0])
	}
	return out
}

// TestNextChunkMatchesNext: both backends deliver through NextChunk the
// record sequence the workload's iterator yields one Next at a time, with
// a chunk size that forces multiple chunks and a partial tail.
func TestNextChunkMatchesNext(t *testing.T) {
	w := testWorkload(t)
	const n = 10_000
	want := iterRecords(w.Iter(n))

	r, err := (&GenSource{W: w, N: n, Chunk: 1024}).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustEqual(t, drain(r, 0), want, "GenSource chunks")

	path := filepath.Join(t.TempDir(), "t.pytr")
	if _, _, err := Materialize(t.Context(), path, w, n); err != nil {
		t.Fatal(err)
	}
	fr, err := (&FileSource{Path: path, Chunk: 1024}).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	mustEqual(t, drain(fr, 0), want, "FileSource chunks")
}

// TestResetMidChunkRestartsChunks: a Reset after one chunk, after the end
// of a pass, or twice in a row restarts the pass from record zero.
func TestResetMidChunkRestartsChunks(t *testing.T) {
	w := testWorkload(t)
	const n = 5_000
	want := w.Generate(n).Records

	r, err := (&GenSource{W: w, N: n, Chunk: 512}).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if ch, ok := r.NextChunk(); !ok || ch.Len() != 512 {
		t.Fatalf("first chunk = (%d records, %v), want 512", ch.Len(), ok)
	}
	r.Reset()
	mustEqual(t, drain(r, 0), want, "reset after one chunk")
	r.Reset()
	mustEqual(t, drain(r, 0), want, "reset after the end of a pass")
	r.Reset()
	r.Reset()
	mustEqual(t, drain(r, 0), want, "double reset")
	if r.Err() != nil {
		t.Fatalf("clean passes left Err = %v", r.Err())
	}
}
