package trace

import (
	"math"
	"math/rand"
	"testing"
)

// randSeeds covers zero (which math/rand maps to a fixed seed), negative
// seeds and seeds at and beyond 2^31 (which it reduces mod 2^31-1).
var randSeeds = []int64{0, 1, 7, -1, -987654321, 1 << 31, 1<<31 - 1, 1<<40 + 12345, math.MaxInt64, math.MinInt64}

// randNs covers 1, powers of two, odd values, values whose rejection bound
// rejects about half the draws (2^30+1, 2^62+1), 2^31-1, and values above
// 2^31-1, which Intn draws through Int63n.
var randNs = []int64{
	1, 2, 3, 5, 7, 8, 192, 1001, 1 << 16, 1<<16 + 1, 1 << 30, 1<<30 + 1,
	1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<40 + 3, 1 << 62, 1<<62 + 1, math.MaxInt64,
}

// TestRandMatchesMathRand draws every Rand method in an interleaved mix
// against math/rand seeded alike, long enough to run through many 607-output
// blocks, and compares every value.
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range randSeeds {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 20_000; i++ {
			n := randNs[i%len(randNs)]
			var g, w int64
			switch op := i % 8; op {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = int64(got.Uint32()), int64(want.Uint32())
			case 2:
				g, w = int64(got.Int31()), int64(want.Int31())
			case 3:
				g, w = got.Int63n(n), want.Int63n(n)
			case 4:
				n32 := int32(min(n, math.MaxInt32))
				g, w = int64(got.Int31n(n32)), int64(want.Int31n(n32))
			case 5:
				g, w = int64(got.Intn(int(n))), int64(want.Intn(int(n)))
			case 6:
				g, w = int64(math.Float64bits(got.Float64())), int64(math.Float64bits(want.Float64()))
			case 7:
				d := newDivisor(int(n))
				g, w = int64(got.intn(&d)), int64(want.Intn(int(n)))
			}
			if g != w {
				t.Fatalf("seed %d, draw %d (op %d, n %d): got %d, want %d", seed, i, i%8, n, g, w)
			}
		}
	}
}

// TestRandShuffleMatchesMathRand compares Shuffle's swaps, and the draws
// after it, with math/rand's.
func TestRandShuffleMatchesMathRand(t *testing.T) {
	for _, seed := range randSeeds[:4] {
		for _, n := range []int{0, 1, 2, 3, 1000, 1 << 18} {
			got, want := NewRand(seed), rand.New(rand.NewSource(seed))
			var gs, ws [][2]int
			got.Shuffle(n, func(i, j int) { gs = append(gs, [2]int{i, j}) })
			want.Shuffle(n, func(i, j int) { ws = append(ws, [2]int{i, j}) })
			if len(gs) != len(ws) {
				t.Fatalf("seed %d, n %d: %d swaps, want %d", seed, n, len(gs), len(ws))
			}
			for k := range gs {
				if gs[k] != ws[k] {
					t.Fatalf("seed %d, n %d: swap %d is %v, want %v", seed, n, k, gs[k], ws[k])
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, n %d: draw after Shuffle %d, want %d", seed, n, g, w)
			}
		}
	}
}

// TestDivisorMatchesIntn checks the fixed-divisor draw against Intn for
// every n, each on its own stream. A rejection bound off by one would show
// in a random draw only once in 2^31, so the bound and the remainder are
// also checked directly: the bound accepts the largest whole number of
// n-sized runs below 2^31, and mod is exact at the edges of its range.
func TestDivisorMatchesIntn(t *testing.T) {
	for _, n := range randNs {
		d := newDivisor(int(n))
		if n <= math.MaxInt32 {
			if accepted := int64(d.bound) + 1; accepted%n != 0 || accepted <= 1<<31-n {
				t.Errorf("n %d: bound %d accepts %d draws", n, d.bound, accepted)
			}
			for _, v := range []int64{0, 1, n - 1, n, n + 1, 2*n - 1, int64(d.bound), math.MaxInt32 - 1, math.MaxInt32} {
				if v >= 0 && v <= math.MaxInt32 && int64(d.mod(int32(v))) != v%n {
					t.Errorf("n %d: mod(%d) = %d, want %d", n, v, d.mod(int32(v)), v%n)
				}
			}
		}
		got, want := NewRand(int64(n)), rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 5000; i++ {
			if g, w := got.intn(&d), want.Intn(int(n)); g != w {
				t.Fatalf("n %d, draw %d: got %d, want %d", n, i, g, w)
			}
		}
	}
}

func TestRandPanicsLikeMathRand(t *testing.T) {
	r := NewRand(1)
	for name, f := range map[string]func(){
		"Intn(0)":     func() { r.Intn(0) },
		"Int31n(-1)":  func() { r.Int31n(-1) },
		"Int63n(0)":   func() { r.Int63n(0) },
		"Shuffle(-1)": func() { r.Shuffle(-1, func(i, j int) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
