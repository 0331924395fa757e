package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pythia/internal/cache"
	"pythia/internal/trace"
)

// runFingerprint hashes everything a run reports about the memory system:
// every CoreStats field, the IPCs, the DRAM statistics and the bandwidth
// buckets, floats by their bits.
func runFingerprint(t *testing.T, r RunResult) uint64 {
	t.Helper()
	h := fnv.New64a()
	for i := range r.Stats {
		if err := binary.Write(h, binary.LittleEndian, r.Stats[i]); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(h, binary.LittleEndian, math.Float64bits(r.IPC[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := binary.Write(h, binary.LittleEndian, r.DRAM); err != nil {
		t.Fatal(err)
	}
	for _, b := range r.Buckets {
		if err := binary.Write(h, binary.LittleEndian, math.Float64bits(b)); err != nil {
			t.Fatal(err)
		}
	}
	return h.Sum64()
}

// TestHierarchyMatchesGolden pins whole runs of the memory hierarchy to
// fingerprints captured on linux/amd64 from the cache layer that kept
// LRU order as per-way use stamps and line state in a separate metadata
// column. It covers every LLC policy, 1 and 4 cores, translation off and
// on, with no prefetching, basic Pythia, Bingo and Fig. 8d's stride@L1 +
// Pythia@L2. A 256 KB LLC slice fills within these runs, so every
// level's replacement order decides victims. A mismatch means the cache
// layer changed what it simulates, not just how fast.
func TestHierarchyMatchesGolden(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	t.Cleanup(ResetCaches)
	want := map[string]uint64{
		"1c/ship/xlat=false/nopref":         0x92fd34749626b4e5,
		"1c/ship/xlat=false/pythia":         0x6e6b73d0217bac4d,
		"1c/ship/xlat=false/Bingo":          0x3842ae090deef22,
		"1c/ship/xlat=false/Stride+Pythia":  0x4483e0140ede508e,
		"1c/ship/xlat=true/nopref":          0x109e6b80029f90b5,
		"1c/ship/xlat=true/pythia":          0x57ee3493339bca7d,
		"1c/ship/xlat=true/Bingo":           0x17a4b0812da9b6d7,
		"1c/ship/xlat=true/Stride+Pythia":   0xeb1dfb789b115ee5,
		"1c/drrip/xlat=false/nopref":        0xe4e08900d916d08a,
		"1c/drrip/xlat=false/pythia":        0x4d931e4c98616bf3,
		"1c/drrip/xlat=false/Bingo":         0xc9d4dd24584ab771,
		"1c/drrip/xlat=false/Stride+Pythia": 0x772b943ac513536e,
		"1c/drrip/xlat=true/nopref":         0xd864e586a5ed1755,
		"1c/drrip/xlat=true/pythia":         0x85d31a2c39693f4e,
		"1c/drrip/xlat=true/Bingo":          0xaef2d9c58b422639,
		"1c/drrip/xlat=true/Stride+Pythia":  0xc644d90b0b39363,
		"1c/lru/xlat=false/nopref":          0xfd0a4810f43381dd,
		"1c/lru/xlat=false/pythia":          0xc178fdeb1d726d0c,
		"1c/lru/xlat=false/Bingo":           0xa872feb6c9068a7f,
		"1c/lru/xlat=false/Stride+Pythia":   0x7258f4c773ec7371,
		"1c/lru/xlat=true/nopref":           0x962b37866b849693,
		"1c/lru/xlat=true/pythia":           0xa27b226f1f2b9631,
		"1c/lru/xlat=true/Bingo":            0xbdc119a25e7e52d,
		"1c/lru/xlat=true/Stride+Pythia":    0x9a0234d25a40ef94,
		"4c/ship/xlat=false/nopref":         0xa59881f955a75daf,
		"4c/ship/xlat=false/pythia":         0xd37f1637c26db11b,
		"4c/ship/xlat=false/Bingo":          0xea924ff7a8611695,
		"4c/ship/xlat=false/Stride+Pythia":  0xbc0fe756b644cb8e,
		"4c/ship/xlat=true/nopref":          0x8267c769925dd0cc,
		"4c/ship/xlat=true/pythia":          0x516b3bcd64f14bd6,
		"4c/ship/xlat=true/Bingo":           0x861253dc3474165d,
		"4c/ship/xlat=true/Stride+Pythia":   0xa4a3e11223c2234d,
		"4c/drrip/xlat=false/nopref":        0x57ed7cee08f37aa5,
		"4c/drrip/xlat=false/pythia":        0x283dcccb19436d6b,
		"4c/drrip/xlat=false/Bingo":         0x6424907e0668207e,
		"4c/drrip/xlat=false/Stride+Pythia": 0x4ada0e2549cb1cca,
		"4c/drrip/xlat=true/nopref":         0xc95491bcfe148be5,
		"4c/drrip/xlat=true/pythia":         0xf4fc3297b973ae33,
		"4c/drrip/xlat=true/Bingo":          0x10698b40d561f659,
		"4c/drrip/xlat=true/Stride+Pythia":  0x894cb7aac2d942d2,
		"4c/lru/xlat=false/nopref":          0xe6ef5f32bdeb6e80,
		"4c/lru/xlat=false/pythia":          0xc3c68286b19e5570,
		"4c/lru/xlat=false/Bingo":           0x24fdf4b7dacdb578,
		"4c/lru/xlat=false/Stride+Pythia":   0x829ba64fd7d7444b,
		"4c/lru/xlat=true/nopref":           0x658f0de303253d0e,
		"4c/lru/xlat=true/pythia":           0xcd457a16292cad75,
		"4c/lru/xlat=true/Bingo":            0x1f27ccbf6d2cf4d4,
		"4c/lru/xlat=true/Stride+Pythia":    0xbb5a3ce102eea10e,
	}
	sc := Scale{Warmup: 100_000, Sim: 400_000, TraceLen: 200_000}
	var ws []trace.Workload
	for _, name := range []string{"459.GemsFDTD-100B", "CC-100B", "482.sphinx3-100B", "429.mcf-100B"} {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		ws = append(ws, w)
	}
	var got []string
	for _, cores := range []int{1, 4} {
		for _, policy := range []string{"ship", "drrip", "lru"} {
			for _, translate := range []bool{false, true} {
				for _, pf := range []PF{Baseline(), BasicPythiaPF(), BingoPF(), StridePythiaPF()} {
					name := fmt.Sprintf("%dc/%s/xlat=%v/%s", cores, policy, translate, pf.Name)
					cfg := cache.DefaultConfig(cores)
					cfg.LLCSizeKBPerCore = 256
					cfg.LLCPolicy = policy
					cfg.Translate = translate
					mix := trace.Mix{Name: fmt.Sprintf("golden-%dc", cores), Workloads: ws[:cores]}
					r, err := Run(bg, RunSpec{Mix: mix, CacheCfg: cfg, Scale: sc, PF: pf})
					if err != nil {
						t.Fatal(err)
					}
					fp := runFingerprint(t, r)
					got = append(got, fmt.Sprintf("%q: %#x,", name, fp))
					if w, ok := want[name]; !ok || w != fp {
						t.Errorf("%s: fingerprint %#x, want %#x", name, fp, w)
					}
				}
			}
		}
	}
	if t.Failed() {
		for _, g := range got {
			t.Log(g)
		}
	}
}
