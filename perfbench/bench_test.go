package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"pythia/internal/cache"
	"pythia/internal/harness"
	"pythia/internal/trace"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, tc := range []struct {
		n, p int
		ok   bool
	}{
		{100, 90, true}, {99, 90, false},
		{1000, 99, true}, {999, 99, false},
		{20, 50, true}, {19, 50, false},
	} {
		_, err := percentile(samples(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%d of %d samples: err %v, want ok=%v", tc.p, tc.n, err, tc.ok)
		}
	}
	if got, _ := percentile(samples(101), 90); got != 90 {
		t.Errorf("p90 of 0..100 = %v, want 90", got)
	}
}

// inputsOf renders every input a seed draws, across all workloads.
func inputsOf(t *testing.T, seed int64) []string {
	traces, err := pythia1CTraces(seed)
	if err != nil {
		t.Fatal(err)
	}
	mixes, err := zooMixesFor(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, w := range traces {
		out = append(out, w.Key(pythia1CScale.TraceLen))
	}
	for _, m := range mixes {
		for _, w := range m.Workloads {
			out = append(out, m.Name+":"+w.Key(zoo4CScale.TraceLen))
		}
	}
	for _, i := range opOrder(seed, 12) {
		out = append(out, string(rune('a'+i)))
	}
	in := newServeInputs(seed)
	for i := 0; i < 50; i++ {
		out = append(out, in.scale(i))
		for k := 0; k < readsPerJob; k++ {
			out = append(out, string(rune('A'+in.next(i+1)%26)))
		}
	}
	return out
}

func TestSeedAloneDrawsInputs(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		if a, b := inputsOf(t, seed), inputsOf(t, seed); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d drew different inputs on two calls", seed)
		}
	}
	for _, pair := range [][2]int64{{1, 2}, {2, 3}, {1, 10}} {
		a, b := inputsOf(t, pair[0]), inputsOf(t, pair[1])
		if reflect.DeepEqual(a, b) {
			t.Errorf("seeds %d and %d drew the same inputs", pair[0], pair[1])
		}
	}
	// Each part of the draw depends on the seed, not just the whole, and
	// a drawn segment generates records of its own.
	a, b := inputsOf(t, 1), inputsOf(t, 2)
	if a[0] == b[0] {
		t.Error("seeds 1 and 2 drew the same single-core trace")
	}
	t1, _ := pythia1CTraces(1)
	t2, _ := pythia1CTraces(2)
	r1, r2 := t1[0].Generate(100).Records, t2[0].Generate(100).Records
	if reflect.DeepEqual(r1, r2) {
		t.Error("segments of seeds 1 and 2 generate the same records")
	}
	m1, _ := zooMixesFor(1)
	m2, _ := zooMixesFor(2)
	if m1[0].Workloads[0].Name == m2[0].Workloads[0].Name {
		t.Error("seeds 1 and 2 drew the same mix")
	}
	if newServeInputs(1).scale(0) == newServeInputs(2).scale(0) {
		t.Error("seeds 1 and 2 drew the same job scales")
	}
}

func TestTimedWrapperKeepsResults(t *testing.T) {
	harness.SetWorkers(1)
	harness.SetTraceCacheDir(t.TempDir())
	t.Cleanup(func() { harness.SetTraceCacheDir("") })
	ctx := context.Background()
	small := harness.Scale{Warmup: 20_000, Sim: 100_000, TraceLen: 20_000}
	mixes, err := zooMixesFor(1)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := pythia1CTraces(1)
	if err != nil {
		t.Fatal(err)
	}
	zoo := mixes[0]
	zooCfg := cache.DefaultConfig(4)
	zooCfg.DRAM = zooCfg.DRAM.WithMTPS(zooMTPS)
	zooScale := small
	zooScale.StreamChunk = zoo4CScale.StreamChunk
	for _, tc := range []struct {
		spec       harness.RunSpec
		wantPythia bool
	}{
		{harness.RunSpec{Mix: trace.Mix{Name: "p", Workloads: traces[:1]},
			CacheCfg: cache.DefaultConfig(1), Scale: small, PF: harness.BasicPythiaPF()}, true},
		{harness.RunSpec{Mix: zoo, CacheCfg: zooCfg, Scale: zooScale, PF: harness.BingoPF()}, false},
	} {
		plain, err := harness.Run(ctx, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		var acc pfTimes
		wrapped := tc.spec
		wrapped.PF = timed(tc.spec.PF, &acc)
		got, err := harness.Run(ctx, wrapped)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(plain, got) {
			t.Errorf("%s: timed run differs from the plain run", specName(tc.spec))
		}
		layer, other := acc.prefetch, acc.core
		if tc.wantPythia {
			layer, other = acc.core, acc.prefetch
			if len(acc.pythia) != 1 {
				t.Errorf("%s: %d Pythia agents seen, want 1", specName(tc.spec), len(acc.pythia))
			}
		}
		if layer.trains == 0 || layer.ns == 0 || other.trains != 0 {
			t.Errorf("%s: timed %+v in its layer and %+v in the other", specName(tc.spec), layer, other)
		}
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the workloads and
// metrics the program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, code runs %v", names, want)
	}
	for _, c := range []struct {
		json []entry
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%d metrics listed, %d reported", len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: listed %s [%s], reported %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
