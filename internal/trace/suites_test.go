package trace

import "testing"

func TestRegistryPopulated(t *testing.T) {
	all := All()
	if len(all) < 150 {
		t.Errorf("registry has %d traces, want >= 150 (evaluated set + unseen)", len(all))
	}
	counts := map[string]int{}
	for _, w := range all {
		counts[w.Suite]++
	}
	// Paper Table 6 trace counts (plus CVP2 for Fig. 12).
	want := map[string]int{
		SuiteSPEC06: 28, SuiteSPEC17: 18, SuitePARSEC: 11,
		SuiteLigra: 40, SuiteCloudsuite: 53,
	}
	for suite, n := range want {
		if counts[suite] != n {
			t.Errorf("suite %s has %d traces, want %d", suite, counts[suite], n)
		}
	}
	if counts[SuiteCVP2] == 0 {
		t.Error("CVP2 unseen traces missing")
	}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Errorf("duplicate trace name %s", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("GemsFDTD trace missing")
	}
	if w.Suite != SuiteSPEC06 || w.Base != "459.GemsFDTD" {
		t.Errorf("wrong identity: %+v", w)
	}
	if _, ok := ByName("no-such-trace"); ok {
		t.Error("ByName should fail for unknown names")
	}
}

func TestGenerateNonEmptyAndDeterministic(t *testing.T) {
	for _, suite := range Suites() {
		ws := Representative(suite)
		if len(ws) == 0 {
			t.Fatalf("suite %s has no workloads", suite)
		}
		w := ws[0]
		a := w.Generate(2000)
		b := w.Generate(2000)
		if len(a.Records) != 2000 {
			t.Fatalf("%s generated %d records", w.Name, len(a.Records))
		}
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				t.Fatalf("%s not deterministic at record %d", w.Name, i)
			}
		}
	}
}

func TestSuiteIntensityOrdering(t *testing.T) {
	// Ligra must be markedly more memory-intensive (smaller instruction
	// gaps) than SPEC06, which drives the paper's bandwidth findings.
	gap := func(suite string) float64 {
		var sum, n float64
		for _, w := range Representative(suite)[:3] {
			tr := w.Generate(5000)
			for _, r := range tr.Records {
				sum += float64(r.NonMem)
				n++
			}
		}
		return sum / n
	}
	if g1, g2 := gap(SuiteLigra), gap(SuiteSPEC06); g1 >= g2 {
		t.Errorf("Ligra mean gap %.1f should be below SPEC06 %.1f", g1, g2)
	}
}

func TestHomogeneousMix(t *testing.T) {
	w, _ := ByName("429.mcf-100B")
	m := HomogeneousMix(w, 4)
	if len(m.Workloads) != 4 {
		t.Fatalf("mix has %d workloads", len(m.Workloads))
	}
	if m.Suite() != SuiteSPEC06 {
		t.Errorf("homogeneous mix suite = %s", m.Suite())
	}
}

func TestHeterogeneousMixes(t *testing.T) {
	pool := Representative(SuiteSPEC06)
	ms := HeterogeneousMixes(pool, 4, 5, 1)
	if len(ms) != 5 {
		t.Fatalf("got %d mixes", len(ms))
	}
	for _, m := range ms {
		if len(m.Workloads) != 4 {
			t.Errorf("mix %s has %d workloads", m.Name, len(m.Workloads))
		}
	}
	// Deterministic for a fixed seed.
	ms2 := HeterogeneousMixes(pool, 4, 5, 1)
	for i := range ms {
		for c := range ms[i].Workloads {
			if ms[i].Workloads[c].Name != ms2[i].Workloads[c].Name {
				t.Fatal("heterogeneous mixes not deterministic")
			}
		}
	}
}

func TestFixedWorkload(t *testing.T) {
	orig := &Trace{Name: "file-x", Suite: "FILE", Records: []Record{{PC: 1, Addr: 64}}}
	w := Fixed(orig)
	got := w.Generate(999999)
	if got != orig {
		t.Error("Fixed workload should return the wrapped trace verbatim")
	}
	if w.Name != "file-x" || w.Suite != "FILE" {
		t.Errorf("identity wrong: %+v", w)
	}
}
