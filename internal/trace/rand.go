package trace

import (
	"math/bits"
	"math/rand"
)

// Rand is the generators' random stream. It produces exactly the values
// rand.New(rand.NewSource(seed)) produces, so traces stay what GenVersion 1
// pins, but through concrete methods the compiler can inline instead of
// math/rand's Source interface and wrapper layers.
//
// math/rand's source is an additive lagged Fibonacci generator:
// x[n] = x[n-607] + x[n-273] (mod 2^64). Rand takes the source's first 607
// outputs as its state and continues that recurrence itself, so it needs
// no copy of math/rand's seed table. TestRandMatchesMathRand pins the
// equivalence. The draw methods are copied from the Go standard library's
// math/rand (Copyright The Go Authors, BSD-style license).
type Rand struct {
	vec [rngLen]uint64 // the next 607 outputs, x[n] in slot n mod 607
	i   int            // the next output's slot
}

const (
	rngLen = 607
	rngTap = 273
)

// NewRand returns the stream rand.NewSource(seed) starts.
func NewRand(seed int64) *Rand {
	src := rand.NewSource(seed).(rand.Source64)
	r := &Rand{}
	for i := range r.vec {
		r.vec[i] = src.Uint64()
	}
	return r
}

// Int63 is rand.Rand.Int63: the source's next output, sign bit cleared.
// Drawing x[n] from slot i replaces it with x[n+607] = x[n] + x[n+334],
// which takes x[n+334] from slot j = (i+334) mod 607: a seed output or one
// written 273 draws earlier.
func (r *Rand) Int63() int64 {
	i := r.i
	j := i + rngLen - rngTap
	if i >= rngTap {
		j = i - rngTap
	}
	x := r.vec[i]
	r.vec[i] = x + r.vec[j]
	if i++; i == rngLen {
		i = 0
	}
	r.i = i
	return int64(x &^ (1 << 63))
}

// Uint32 is rand.Rand.Uint32.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Int31 is rand.Rand.Int31.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Int63n is rand.Rand.Int63n.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Int31n is rand.Rand.Int31n.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// int31n is math/rand's unexported multiply-based draw that Shuffle uses;
// it takes n > 0 unchecked.
func (r *Rand) int31n(n int32) int32 {
	v := r.Uint32()
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			v = r.Uint32()
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// Intn is rand.Rand.Intn.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 is rand.Rand.Float64.
func (r *Rand) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again // resample; this branch is taken O(never)
	}
	return f
}

// Shuffle is rand.Rand.Shuffle.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("invalid argument to Shuffle")
	}
	for i := n - 1; i > 0; i-- {
		swap(i, r.shuffleIndex(i))
	}
}

// shuffleIndex draws the index Shuffle swaps position i with, in [0, i].
func (r *Rand) shuffleIndex(i int) int {
	if i > 1<<31-1-1 {
		return int(r.Int63n(int64(i + 1)))
	}
	return int(r.int31n(int32(i + 1)))
}

// divisor is a fixed n for repeated Intn(n) draws with the division work
// done once: Int31n's rejection bound, and a multiplier that gives v % n
// for any 32-bit v exactly without a divide (Lemire, Kaser and Kurz,
// "Faster remainder by direct computation", 2019). For a power of two the
// bound rejects nothing and v % n is Int31n's mask, so one path serves
// every n in [1, 2^31-1]; other n fall back to Intn.
type divisor struct {
	n     int
	bound int32  // largest accepted Int31 draw; 0 when n is out of range
	m     uint64 // ceil(2^64 / n) mod 2^64
}

func newDivisor(n int) divisor {
	d := divisor{n: n}
	if n > 0 && n <= 1<<31-1 {
		d.bound = int32((1 << 31) - 1 - (1<<31)%uint32(n))
		d.m = ^uint64(0)/uint64(n) + 1
	}
	return d
}

// intn returns exactly what r.Intn(d.n) would.
func (r *Rand) intn(d *divisor) int {
	if d.bound == 0 {
		return r.Intn(d.n)
	}
	v := r.Int31()
	for v > d.bound {
		v = r.Int31()
	}
	return d.mod(v)
}

// mod returns v % d.n for a d.n in range.
func (d *divisor) mod(v int32) int {
	hi, _ := bits.Mul64(d.m*uint64(v), uint64(d.n))
	return int(hi)
}
