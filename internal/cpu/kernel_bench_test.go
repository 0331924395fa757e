// Kernel throughput benchmarks: the fused chunk loop against the
// record-at-a-time shim over three synthetic profiles — mixed (misses
// exercise the hierarchy), hot (L1-resident, probe-bound) and comp
// (compute-dense, issue-arithmetic-bound). Wall-clock comparisons on
// shared hardware need interleaved best-of-N runs; see PERF.md
// "Batched kernel" for methodology and recorded numbers.
package cpu

import (
	"context"
	"math/rand"
	"testing"

	"pythia/internal/cache"
	"pythia/internal/trace"
)

// hotTrace: L1-resident lines, small non-memory gaps — kernel-bound.
func hotTrace(n int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			PC:     uint64(0x400 + rng.Intn(8)*4),
			Addr:   uint64(rng.Intn(256))*64 + 1<<20, // 16KB working set: L1-resident
			NonMem: uint16(rng.Intn(9)),
			Store:  rng.Intn(8) == 0,
		}
	}
	return recs
}

func benchKernel(b *testing.B, shim bool, recs []trace.Record) {
	b.ReportAllocs()
	b.ResetTimer()
	var instr int64
	for i := 0; i < b.N; i++ {
		hier, err := cache.NewHierarchy(cache.DefaultConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		cfg := SystemConfig{Core: DefaultCoreConfig(), WarmupInstructions: 1_000_000, SimInstructions: 8_000_000}
		sys, err := NewSystem(cfg, hier, []trace.ChunkReader{trace.NewSliceReader(recs)})
		if err != nil {
			b.Fatal(err)
		}
		if shim {
			err = sys.runShim(context.Background(), [][]trace.Record{recs})
		} else {
			err = sys.Run(context.Background())
		}
		if err != nil {
			b.Fatal(err)
		}
		instr = sys.Cores[0].Retired()
	}
	b.SetBytes(instr) // MB/s column reads as simulated instructions per microsecond
}

func BenchmarkKernelFusedMixed(b *testing.B) { benchKernel(b, false, mixedTrace(1_000_000, 42)) }
func BenchmarkKernelShimMixed(b *testing.B)  { benchKernel(b, true, mixedTrace(1_000_000, 42)) }
func BenchmarkKernelFusedHot(b *testing.B)   { benchKernel(b, false, hotTrace(1_000_000, 42)) }
func BenchmarkKernelShimHot(b *testing.B)    { benchKernel(b, true, hotTrace(1_000_000, 42)) }
func BenchmarkKernelFusedComp(b *testing.B)  { benchKernel(b, false, computeTrace(1_000_000)) }
func BenchmarkKernelShimComp(b *testing.B)   { benchKernel(b, true, computeTrace(1_000_000)) }
