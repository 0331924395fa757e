package trace

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFileRoundTrip writes a registry trace to disk with Write and reads
// it back with Read, the path pythia-sim -tracefile takes: the decoded
// trace keeps its identity and records.
func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.pytr")
	w, ok := ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	orig := w.Generate(5000)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, orig); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.Suite != orig.Suite || len(got.Records) != len(orig.Records) {
		t.Fatalf("decoded identity mismatch: %s/%s/%d", got.Suite, got.Name, len(got.Records))
	}
	for i, r := range orig.Records {
		if got.Records[i] != r {
			t.Fatalf("record %d mismatch", i)
		}
	}
}
