package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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

// tableDigests pins the SHA-256 of every experiment's rendered table at
// TestAllExperimentsRun's micro scale. A refactor of how tables are
// computed must leave each digest unchanged: the tables are the
// reproduction's output, and stats.Geomean sums logs in slice order, so
// even a reordered aggregation shows here. A deliberate change to a
// table's content updates its digest in the same change.
var tableDigests = map[string]string{
	"table2":             "32ee0f75a53e199825f95bfdefd95447e12be7fe488ce262e56ecd9702cb3d28",
	"table4":             "f1a795dd38817dad511ebcddaa87f7c5a7ac5345cbb89b312156ae3e0c04cb02",
	"table7":             "2a7da6e05f3c58784ba6944c6fbab4900067a662dc81412d75c747aaab8de6c3",
	"table8":             "00a9422ac40fe206a25d446d03aad7223f1a29f4159c8b5beaa722bdaec16714",
	"fig1":               "172c508ee407aaf1c84396ab7bf73f44471711aef82a14615c04564f9483d1a4",
	"fig7":               "99b16318028e14307e3ae5e92b767a46baf2672ee9be80acc005ff6a06d6cea0",
	"fig8a":              "7adae959569951060549210fd783668831e565c45cdee6607a7f9e9b13df2b0f",
	"fig8b":              "134a418d8a2c2fe96af3155e7118274e2b32d54d33c81fc4689ae8a11b3a9073",
	"fig8c":              "7cc65ba1397ac699471504ed2855a06b4682b6fdf1d02aa17676685340c2428f",
	"fig8d":              "23a31e4daee00922b360719d47fdea604d9dba49091d44ea739b3e2ef7b413ca",
	"fig9a":              "8838e389942a3f10c3859e73f3346d3737787aaa353070784cb47753ba9b9fc8",
	"fig9b":              "6018ca7a375a8ffe81e433df99a7492ad49bda875d9417054879db81002e12c8",
	"fig10a":             "70f4f0571150df882f722c48406fc6a37e01aa67430b8fb04a3cb35ad66eae2a",
	"fig10b":             "7e4ad47ce51fe46612c3e9033707460af08a070eaf07e8f78fa08fc0db843494",
	"fig11":              "062733a6ba67b154d91ca6c0a8a844c176f292c9e16a74f61db0dac79ef17604",
	"fig12":              "02b6de80acf8b97630c26e9825a7d764d0cb0c56643751cee387933f45008122",
	"fig13":              "f48de266eb64be4ad237de9520fa52a5d4b3798a10a7fe638d0435baa5eee17d",
	"fig14":              "559f50bf054bf51aac9e2a3dd1214692dd2eb08b727f43d1edcfff550fc29a59",
	"fig15":              "14a53c3df946f70ff021750db79ba86435bfaa000947c0bda6db02546c13835f",
	"fig16":              "202d29ee4e809b5864694a216818623800daafbd355d89a0a210b7d553795edc",
	"fig17":              "2112f524c360cc5dd5e40c01a8472278ca160e75e5c17c6d53123f61185fb664",
	"fig18":              "f017b15568ef3775c663689ac6856a3fd1c76a783408d985ae396eb87323f602",
	"fig19":              "3d1e8002ce63d2de9b46c7c5f65263179b43f860c29b9edc39f5f3f50deab0e4",
	"fig20":              "33ab3435645bcb4d54be2a72795b03a9f85dd121394d655277f9a833da03876b",
	"fig21":              "35038848a20a7e1fa0c510f86826c33809796496f27aa3353931e4d2be0ffb3d",
	"fig22":              "614aa941d237ee46451c72612dd2bf0ba054d3ddabb382ffca25a4d2346a2206",
	"fig23":              "04556c5ecefb08ce73d149815c919f091dd0c6ab944e980dc9cf24d329fb498b",
	"ext-pruning":        "c4576c06b4fc464dc724231b5a9d3023e55931c35734cafbf2b9de2eebd2eb5e",
	"ext-autotune":       "76eccc87b6232dc2a1e7b9403e62170757998a6852801576e6b655415b5e0939",
	"ext-fdp":            "a13bc23b0647788bb62cb54111998e9c5e34c80133af9f2da78c2c1997ea23ce",
	"ext-xlat":           "626362410277eed1654d1062f0931a28cf9e9a89001ba91338aa4075a0d2997e",
	"ext-fixedpoint":     "2cad6a441779cd69835a98f0597206dc1ab9f81889864e806ff56e1670cfc459",
	"ext-longhorizon":    "11d9e91b077de84bdfdc2d7f7a53ff1b3cb16700ea9e02a8de7b7d8b033dba45",
	"ext-generalization": "ff718cfceb70607a4b92a83b762c6e7546de438396fe5c2761762cf4293aa3dd",
	"ext-warmstart":      "aaad91b466ede2e234f953f5b6c279f6cec60bc86b5565e8e454519895faddad",
	"scorecard":          "f342020376e1c41ca65b9a1ccc2f5945e60bf98b87efcdd87b1c42d8995c1edb",
}

// microScale is TestAllExperimentsRun's scale: two workloads per suite
// and two heterogeneous mixes, at a fraction of tinyScale's instructions.
var microScale = Scale{Warmup: 20_000, Sim: 60_000, TraceLen: 20_000, WorkloadsPerSuite: 2, HeteroMixes: 2}

// TestAllExperimentsRun executes every registered experiment once at a
// micro scale: structure and plumbing of each table is exercised even when
// the statistics are too small to be meaningful, and each rendered table
// must match its pinned digest (tableDigests). Two workloads per suite and
// two heterogeneous mixes make every cross-workload aggregation take more
// than one value, so its order is pinned too.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range AllExperiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.Run(bg, microScale)
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
			sum := sha256.Sum256([]byte(tb.Render()))
			if got, want := hex.EncodeToString(sum[:]), tableDigests[e.ID]; got != want {
				t.Errorf("%s table digest %s, want %q:\n%s", e.ID, got, want, tb.Render())
			}
		})
	}
}

// TestRunAllocDoesNotScaleWithTraceLen checks that a materialized run
// replays its resident trace in place: the bytes one Run allocates (the
// hierarchy and the cores) must not grow with the trace. Each trace is generated and cached by a first run, so
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

// TestWarmRunRecyclesHierarchy pins what a warmed run allocates: a
// second 1-core run takes its predecessor's hierarchy arrays (about
// 500 KB of tags, LRU order words, SHiP state and the miss table) from
// the pool instead of allocating and zeroing fresh ones.
func TestWarmRunRecyclesHierarchy(t *testing.T) {
	t.Cleanup(ResetCaches)
	spec := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: Baseline()}
	if _, err := Run(bg, spec); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(bg, spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Errorf("a warmed 1-core run allocated %d B, want < 256 KB", got)
	}
}
