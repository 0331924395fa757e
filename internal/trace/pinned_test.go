package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestRegistryTracesPinned pins the generator's output for every registered
// workload: the first 20,000 records of each, in registry order, hashed into
// one SHA-256 value. Every actor type and every registry spec feeds the
// digest, so any change to the record sequence (the random stream, a draw's
// order, an actor's arithmetic) fails here. Such a change must bump
// GenVersion and re-pin this value.
func TestRegistryTracesPinned(t *testing.T) {
	const (
		n          = 20_000
		wantCount  = 162
		wantSHA256 = "8e47c2dfa8a2c1151919c75623467b8825be2312906c3e75aa6e8b757379172e"
	)
	all := All()
	if len(all) != wantCount {
		t.Fatalf("registry has %d workloads, want %d", len(all), wantCount)
	}
	h := sha256.New()
	var buf [19]byte
	for _, w := range all {
		tr := w.Generate(n)
		if len(tr.Records) != n {
			t.Fatalf("%s: generated %d records, want %d", w.Name, len(tr.Records), n)
		}
		h.Write([]byte(w.Name))
		for _, r := range tr.Records {
			binary.LittleEndian.PutUint64(buf[0:], r.PC)
			binary.LittleEndian.PutUint64(buf[8:], r.Addr)
			binary.LittleEndian.PutUint16(buf[16:], r.NonMem)
			buf[18] = 0
			if r.Store {
				buf[18] = 1
			}
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSHA256 {
		t.Fatalf("registry traces hash to %s, want %s (GenVersion %d)", got, wantSHA256, GenVersion)
	}
}
