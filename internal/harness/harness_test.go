package harness

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"pythia/internal/cache"
	"pythia/internal/stats"
	"pythia/internal/trace"
)

// bg is the context used by tests that don't exercise cancellation.
var bg = context.Background()

// mustTable unwraps an experiment result, failing the test on error:
// mustTable(t)(SomeExperiment(bg, sc)).
func mustTable(t *testing.T) func(*stats.Table, error) *stats.Table {
	return func(tb *stats.Table, err error) *stats.Table {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
}

// tinyScale keeps harness tests fast.
var tinyScale = Scale{Warmup: 50_000, Sim: 200_000, TraceLen: 40_000, WorkloadsPerSuite: 1, HeteroMixes: 1}

func tinyMix(t *testing.T) trace.Mix {
	t.Helper()
	w, ok := trace.ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	return single(w)
}

func TestRunProducesResults(t *testing.T) {
	r, err := Run(bg, RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: Baseline()})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.IPC) != 1 || r.IPC[0] <= 0 {
		t.Fatalf("IPC = %v", r.IPC)
	}
	if r.SumLLCLoadMisses() <= 0 || r.SumDRAMReads() <= 0 {
		t.Errorf("no memory traffic recorded: %+v", r.Stats)
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: BasicPythiaPF()}
	a, errA := Run(bg, spec)
	b, errB := Run(bg, spec)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.IPC[0] != b.IPC[0] {
		t.Errorf("runs differ: %v vs %v", a.IPC[0], b.IPC[0])
	}
}

func TestRunCachedMemoizes(t *testing.T) {
	spec := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: Baseline()}
	a, errA := RunCached(bg, spec)
	b, errB := RunCached(bg, spec)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.IPC[0] != b.IPC[0] {
		t.Error("cached result differs")
	}
}

func TestSpeedupOnPythiaBeatsBaselineOnGems(t *testing.T) {
	sp, err := SpeedupOn(bg, tinyMix(t), cache.DefaultConfig(1), tinyScale, BasicPythiaPF())
	if err != nil {
		t.Fatal(err)
	}
	if sp < 1.0 {
		t.Errorf("Pythia speedup %.3f on GemsFDTD, expected > 1", sp)
	}
}

func TestPFByName(t *testing.T) {
	for _, name := range []string{"nopref", "spp", "bingo", "mlop", "pythia", "pythia-paper", "pythia-strict", "cphw", "power7", "stride+pythia"} {
		pf, err := PFByName(name)
		if err != nil {
			t.Errorf("PFByName(%q): %v", name, err)
			continue
		}
		if pf.L2 == nil && pf.L1 == nil {
			t.Errorf("%q has no factories", name)
		}
	}
	if _, err := PFByName("bogus"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "default", "full", "long", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale should fail")
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 27 {
		t.Errorf("registry has %d experiments, want 27 (4 tables + 23 figure panels)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ExperimentByID("fig9a"); !ok {
		t.Error("fig9a missing")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("unknown id resolved")
	}
}

func TestStaticTables(t *testing.T) {
	// The four static tables run instantly and must carry the paper's
	// headline values.
	t2 := mustTable(t)(Table2BasicConfig(bg, tinyScale)).Render()
	if !strings.Contains(t2, "PC+Delta") || !strings.Contains(t2, "0.556") {
		t.Errorf("table 2 missing key values:\n%s", t2)
	}
	t4 := mustTable(t)(Table4Storage(bg, tinyScale)).Render()
	if !strings.Contains(t4, "25.5") {
		t.Errorf("table 4 missing 25.5KB total:\n%s", t4)
	}
	t7 := mustTable(t)(Table7PrefetcherConfigs(bg, tinyScale)).Render()
	if !strings.Contains(t7, "Bingo") || !strings.Contains(t7, "46.0") {
		t.Errorf("table 7 wrong:\n%s", t7)
	}
	t8 := mustTable(t)(Table8AreaPower(bg, tinyScale)).Render()
	if !strings.Contains(t8, "Skylake") {
		t.Errorf("table 8 wrong:\n%s", t8)
	}
}

func TestFig13ProducesCurves(t *testing.T) {
	tb := mustTable(t)(Fig13QValueCurves(bg, tinyScale))
	if len(tb.Rows) == 0 {
		t.Fatalf("fig13 produced no rows:\n%s", tb.Render())
	}
}

func TestFig14Buckets(t *testing.T) {
	tb := mustTable(t)(Fig14BandwidthBuckets(bg, tinyScale))
	if len(tb.Rows) != 6 {
		t.Fatalf("fig14 rows = %d, want 6:\n%s", len(tb.Rows), tb.Render())
	}
	// Every row's four buckets must be rendered percentages.
	for _, r := range tb.Rows {
		if len(r) != 6 {
			t.Errorf("row %v malformed", r)
		}
	}
}

func TestFig1RunsAtTinyScale(t *testing.T) {
	tb := mustTable(t)(Fig1Motivation(bg, tinyScale))
	if len(tb.Rows) != 18 { // 6 workloads × 3 prefetchers
		t.Errorf("fig1 rows = %d, want 18:\n%s", len(tb.Rows), tb.Render())
	}
}

func TestMixesForCoverSuitesAndHetero(t *testing.T) {
	mixes := mixesFor(2, tinyScale)
	suites := map[string]bool{}
	for _, m := range mixes {
		suites[m.Suite()] = true
		if len(m.Workloads) != 2 {
			t.Errorf("mix %s has %d workloads", m.Name, len(m.Workloads))
		}
	}
	if !suites["Mix"] {
		t.Error("no heterogeneous mixes")
	}
	if len(suites) < 5 {
		t.Errorf("mixes cover %d suites", len(suites))
	}
}

func TestCombinationStacks(t *testing.T) {
	stacks := combinationStacks()
	if len(stacks) != 6 {
		t.Fatalf("stacks = %d", len(stacks))
	}
	if stacks[0].Name != "Stride" || stacks[5].Name != "pythia" {
		t.Errorf("stack order wrong: %s ... %s", stacks[0].Name, stacks[5].Name)
	}
	// A hybrid must emit the union of its parts' candidates.
	h := stacks[2] // St+S+B
	p := h.L2(nil)
	if p.Name() != "St+S+B" {
		t.Errorf("hybrid name %q", p.Name())
	}
}

func TestExtendedExperimentsRegistered(t *testing.T) {
	ext := ExtendedExperiments()
	if len(ext) != 9 {
		t.Errorf("extended experiments = %d, want 9", len(ext))
	}
	for _, id := range []string{"ext-fdp", "ext-generalization", "ext-warmstart"} {
		if _, ok := ExperimentByID(id); !ok {
			t.Errorf("%s not resolvable", id)
		}
	}
	if len(AllExperiments()) != len(Experiments())+len(ext) {
		t.Error("AllExperiments composition wrong")
	}
}

func TestExtFixedPointRunsAtTinyScale(t *testing.T) {
	tb := mustTable(t)(ExtFixedPoint(bg, tinyScale))
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d:\n%s", len(tb.Rows), tb.Render())
	}
}

func TestScorecardStructure(t *testing.T) {
	claims := Scorecard()
	if len(claims) != 10 {
		t.Errorf("scorecard has %d claims, want 10", len(claims))
	}
	seen := map[string]bool{}
	for _, c := range claims {
		if c.ID == "" || c.Source == "" || c.Statement == "" || c.Check == nil {
			t.Errorf("claim %+v incomplete", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate claim %s", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestScorecardStorageClaim(t *testing.T) {
	// The static claim must pass at any scale.
	for _, c := range Scorecard() {
		if c.ID == "storage" {
			detail, ok, err := c.Check(bg, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("storage claim failed: %s", detail)
			}
		}
	}
}

func TestFig15RunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tb := mustTable(t)(Fig15StrictPythia(bg, tinyScale))
	// 13 Ligra workloads + GEOMEAN row.
	if len(tb.Rows) != 14 {
		t.Errorf("fig15 rows = %d, want 14:\n%s", len(tb.Rows), tb.Render())
	}
}

func TestFig12RunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tb := mustTable(t)(Fig12Unseen(bg, tinyScale))
	// (4 categories + GEOMEAN) × 2 systems.
	if len(tb.Rows) != 10 {
		t.Errorf("fig12 rows = %d, want 10:\n%s", len(tb.Rows), tb.Render())
	}
}

func TestFig11RunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tb := mustTable(t)(Fig11BandwidthOblivious(bg, tinyScale))
	if len(tb.Rows) != len(BandwidthPoints) {
		t.Errorf("fig11 rows = %d, want %d", len(tb.Rows), len(BandwidthPoints))
	}
}

func TestExtTranslationRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tb := mustTable(t)(ExtTranslation(bg, tinyScale))
	if len(tb.Rows) != 2 {
		t.Errorf("ext-xlat rows = %d:\n%s", len(tb.Rows), tb.Render())
	}
}

// TestAllExperimentsRun executes every registered experiment once at a
// micro scale: structure and plumbing of each table is exercised even when
// the statistics are too small to be meaningful.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	micro := Scale{Warmup: 20_000, Sim: 60_000, TraceLen: 20_000, WorkloadsPerSuite: 1, HeteroMixes: 1}
	for _, e := range AllExperiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.Run(bg, micro)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if tb == nil || tb.Title == "" {
				t.Fatalf("%s returned an empty table", e.ID)
			}
			if len(tb.Header) == 0 || len(tb.Rows) == 0 {
				t.Fatalf("%s produced no rows:\n%s", e.ID, tb.Render())
			}
			for _, r := range tb.Rows {
				if len(r) == 0 || len(r) > len(tb.Header) {
					t.Errorf("%s row %v does not fit header %v", e.ID, r, tb.Header)
				}
			}
			if tb.CSV() == "" {
				t.Errorf("%s CSV empty", e.ID)
			}
		})
	}
}

// TestRunAllocDoesNotScaleWithTraceLen checks that a materialized run
// replays its resident trace in place: the bytes one Run allocates (the
// hierarchy, the cores and a batch-sized column buffer) must not grow
// with the trace. Each trace is generated and cached by a first run, so
// only the second run of each length is measured.
func TestRunAllocDoesNotScaleWithTraceLen(t *testing.T) {
	t.Cleanup(ResetCaches)
	allocated := func(traceLen int) int64 {
		sc := tinyScale
		sc.TraceLen = traceLen
		spec := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: sc, PF: Baseline()}
		if _, err := Run(bg, spec); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(bg, spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	short, long := allocated(50_000), allocated(400_000)
	if d := long - short; d >= 1<<20 || d <= -1<<20 {
		t.Errorf("Run allocated %d B at TraceLen 50k and %d B at 400k: differs by %d B, want < 1 MB", short, long, d)
	}
}
