package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is an anecdote, not a percentile.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of xs, linearly
// interpolated between order statistics. It refuses, with an error, when
// fewer than minTail samples lie beyond the percentile.
func percentile(xs []float64, p int) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%d is out of range", p)
	}
	if beyond := len(xs) * (100 - p) / 100; beyond < minTail {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it; need at least %d", p, len(xs), beyond, minTail)
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	idx := float64(p) / 100 * float64(len(ys)-1)
	lo := int(idx)
	if lo+1 >= len(ys) {
		return ys[len(ys)-1], nil
	}
	frac := idx - float64(lo)
	return ys[lo]*(1-frac) + ys[lo+1]*frac, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0: a layer that did no work
// reports a zero share rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// hostCPU is a snapshot of the aggregate CPU line of /proc/stat.
type hostCPU struct {
	total, steal float64
	ok           bool
}

// readHostCPU reads the host's cumulative CPU ticks; steal is time the
// hypervisor ran something else while this VM wanted the CPU.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	h.ok = true
	return h
}

// stealShare is the share of host CPU ticks since start that were stolen.
func (h hostCPU) stealShare(start hostCPU) float64 {
	if !h.ok || !start.ok {
		return 0
	}
	return ratio(h.steal-start.steal, h.total-start.total)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// stolenMs returns the CPU time, in milliseconds per vCPU, the host has
// stolen since start, a snapshot of readHostCPU: the time another guest
// ran while this VM's vCPU waited. The kernel counts steal in 10 ms ticks
// summed over every vCPU, so this is exact only on average.
func stolenMs(start hostCPU) float64 {
	now := readHostCPU()
	if !start.ok || !now.ok {
		return 0
	}
	return (now.steal - start.steal) * msPerTick / float64(runtime.NumCPU())
}

// msPerTick is the length of a /proc/stat tick (USER_HZ is 100 on Linux).
const msPerTick = 10

// sample is one timed operation of the untraced run, or one set-up.
type sample struct {
	ms float64
	// group numbers the operations of about the same cost: one spec of a
	// simulation workload, or every job of the service.
	group int
	// stolenMs is the share of the host's steal, per vCPU, that fell in
	// the operation.
	stolenMs float64
}

// Time the hypervisor gives to other guests is not the program's. It came
// in episodes of up to a third of all CPU time while this benchmark was
// built, and moved the wall-clock medians of identical runs by as much, so
// the host-time metrics use only the samples it disturbed least.

// quieter returns, from each group, the samples during which the host
// stole no more than during the group's median sample: at least half of
// each group, and all of a group the host mostly left alone.
func quieter(xs []sample) []sample {
	steals := map[int][]float64{}
	for _, x := range xs {
		steals[x.group] = append(steals[x.group], x.stolenMs)
	}
	limit := map[int]float64{}
	for g, st := range steals {
		sort.Float64s(st)
		limit[g] = st[(len(st)-1)/2]
	}
	var out []sample
	for _, x := range xs {
		if x.stolenMs <= limit[x.group] {
			out = append(out, x)
		}
	}
	return out
}

// latency summarises operation times made of groups of different cost:
// the mean over groups of the group's median, and the p-th percentile of
// every operation's time relative to its group's median, scaled by that
// mean. With one group these are the plain median and percentile.
func latency(xs []sample, p int) (typical, tail float64, err error) {
	byGroup := map[int][]float64{}
	for _, x := range xs {
		byGroup[x.group] = append(byGroup[x.group], x.ms)
	}
	med := map[int]float64{}
	for g, ms := range byGroup {
		med[g] = median(ms)
		typical += med[g]
	}
	typical /= float64(len(byGroup))
	rel := make([]float64, 0, len(xs))
	for _, x := range xs {
		rel = append(rel, x.ms/med[x.group])
	}
	r, err := percentile(rel, p)
	return typical, typical * r, err
}
