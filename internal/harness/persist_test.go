package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"pythia/internal/cache"
	"pythia/internal/dram"
	"pythia/internal/policy"
	"pythia/internal/prefetch"
	"pythia/internal/trace"
)

// TestRunCachedSurvivesRestart is the tentpole guarantee: with a
// persistent store configured, clearing every in-memory cache (the moral
// equivalent of a process restart) and re-running the same spec serves
// the result from disk with zero additional simulation work.
func TestRunCachedSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := SetResultStore(dir)
	defer SetResultStore("")
	ResetCaches()
	defer ResetCaches()

	spec := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: BasicPythiaPF()}
	first, err := RunCached(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes() == 0 {
		t.Fatal("fresh run was not persisted")
	}

	// "Restart": drop memoization and traces, point a fresh store handle at
	// the same directory.
	ResetCaches()
	SetResultStore(dir)
	before := SimCount()
	second, err := RunCached(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if delta := SimCount() - before; delta != 0 {
		t.Fatalf("restored run simulated %d times, want 0", delta)
	}
	if second.IPC[0] != first.IPC[0] || second.Name != first.Name {
		t.Fatalf("restored result differs: %+v vs %+v", second, first)
	}
	if second.SumLLCLoadMisses() != first.SumLLCLoadMisses() || second.DRAM != first.DRAM {
		t.Error("restored per-trial stats differ from the original run")
	}
	if len(second.PFs) != 0 {
		t.Error("disk-restored result claims live prefetcher objects")
	}
}

// TestCacheKeyDistinguishesFullConfig guards the memoization key against
// the collision class a review caught empirically: specs differing only in
// a cache-config field absent from a hand-picked key (Translate,
// LLCPolicy, geometry) shared a slot, so one ablation arm was served the
// other arm's result — and the persistent store baked the collision to
// disk. The key now renders the whole config.
func TestCacheKeyDistinguishesFullConfig(t *testing.T) {
	base := RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: Baseline()}
	for name, mutate := range map[string]func(*cache.Config){
		"Translate":      func(c *cache.Config) { c.Translate = true },
		"LLCPolicy":      func(c *cache.Config) { c.LLCPolicy = "lru" },
		"LLCWays":        func(c *cache.Config) { c.LLCWays++ },
		"L2SizeKB":       func(c *cache.Config) { c.L2SizeKB *= 2 },
		"PrefetchBudget": func(c *cache.Config) { c.PrefetchBudget++ },
		"DRAM.TRCDns":    func(c *cache.Config) { c.DRAM.TRCDns++ },
	} {
		mutated := base
		mutate(&mutated.CacheCfg)
		if cacheKey(mutated) == cacheKey(base) {
			t.Errorf("cacheKey ignores CacheCfg.%s", name)
		}
	}
}

// TestCacheKeyDistinguishesMixComposition: heterogeneous mixes are all
// named "Mix-N" while their workload draw varies with scale, so the key
// must fold in the full composition — a name-only key silently served one
// composition the other's persisted result.
func TestCacheKeyDistinguishesMixComposition(t *testing.T) {
	a, ok := trace.ByName("459.GemsFDTD-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	b, ok := trace.ByName("482.sphinx3-100B")
	if !ok {
		t.Fatal("missing workload")
	}
	mixA := trace.Mix{Name: "Mix-1", Workloads: []trace.Workload{a}}
	mixB := trace.Mix{Name: "Mix-1", Workloads: []trace.Workload{b}}
	specA := RunSpec{Mix: mixA, CacheCfg: cache.DefaultConfig(1), Scale: tinyScale, PF: Baseline()}
	specB := specA
	specB.Mix = mixB
	if cacheKey(specA) == cacheKey(specB) {
		t.Error("cacheKey collides same-named mixes with different workload compositions")
	}
}

// TestScaleKeyDistinguishesOutcomes: every outcome-relevant Scale field
// must land in the key; StreamChunk (delivery-only) must not.
func TestScaleKeyDistinguishesOutcomes(t *testing.T) {
	base := tinyScale
	for name, mutate := range map[string]func(*Scale){
		"Warmup":            func(s *Scale) { s.Warmup++ },
		"Sim":               func(s *Scale) { s.Sim++ },
		"TraceLen":          func(s *Scale) { s.TraceLen++ },
		"WorkloadsPerSuite": func(s *Scale) { s.WorkloadsPerSuite++ },
		"HeteroMixes":       func(s *Scale) { s.HeteroMixes++ },
	} {
		mutated := base
		mutate(&mutated)
		if mutated.Key() == base.Key() {
			t.Errorf("Scale.Key ignores %s", name)
		}
	}
	streamed := base
	streamed.StreamChunk = 4096
	if streamed.Key() != base.Key() {
		t.Error("Scale.Key includes StreamChunk, splitting identical results")
	}
}

// sprintfCacheKey is cacheKey as it was first written, with fmt's
// reflective %+v over the cache configuration. Every run entry on disk is
// fingerprinted with its bytes.
func sprintfCacheKey(spec RunSpec) string {
	key := fmt.Sprintf("%s|%s|c%d|%+v|w%d|s%d|t%d",
		mixIdentity(spec.Mix, spec.Scale.TraceLen), spec.PF.Name, len(spec.Mix.Workloads),
		spec.CacheCfg, spec.Scale.Warmup, spec.Scale.Sim, spec.Scale.TraceLen)
	if spec.WarmStart != nil {
		key += "|warm:" + spec.WarmStart.ID
	}
	return key
}

// TestCacheKeyMatchesSprintfForm pins cacheKey byte for byte to its
// fmt.Sprintf form for each kind of configuration the experiments build:
// 1, 4 and 8 cores, swept DRAM bandwidth, address translation, each LLC
// replacement policy, and a warm-started spec. A difference would orphan
// every stored run entry.
func TestCacheKeyMatchesSprintfForm(t *testing.T) {
	var ws []trace.Workload
	for _, name := range []string{"459.GemsFDTD-100B", "482.sphinx3-100B", "462.libquantum-100B", "429.mcf-100B"} {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		ws = append(ws, w)
	}
	mix4 := trace.Mix{Name: "Mix-1", Workloads: ws}
	mix8 := trace.Mix{Name: "Mix-2", Workloads: append(append([]trace.Workload{}, ws...), ws...)}
	cfg := func(cores int, edit func(*cache.Config)) cache.Config {
		c := cache.DefaultConfig(cores)
		if edit != nil {
			edit(&c)
		}
		return c
	}
	specs := []RunSpec{
		{Mix: tinyMix(t), CacheCfg: cfg(1, nil), Scale: ScaleQuick, PF: Baseline()},
		{Mix: tinyMix(t), CacheCfg: cfg(1, nil), Scale: ScaleDefault, PF: BasicPythiaPF()},
		{Mix: mix4, CacheCfg: cfg(4, nil), Scale: tinyScale, PF: SPPPF()},
		{Mix: mix8, CacheCfg: cfg(8, nil), Scale: tinyScale, PF: BingoPF()},
		{Mix: tinyMix(t), CacheCfg: cfg(1, func(c *cache.Config) { c.DRAM = c.DRAM.WithMTPS(150) }), Scale: tinyScale, PF: MLOPPF()},
		{Mix: mix4, CacheCfg: cfg(4, func(c *cache.Config) { c.DRAM = c.DRAM.WithMTPS(9600) }), Scale: tinyScale, PF: BasicPythiaPF()},
		{Mix: tinyMix(t), CacheCfg: cfg(1, func(c *cache.Config) { c.Translate = true }), Scale: tinyScale, PF: BasicPythiaPF()},
		{Mix: mix4, CacheCfg: cfg(4, func(c *cache.Config) { c.LLCPolicy = "drrip" }), Scale: tinyScale, PF: Baseline()},
		{Mix: mix4, CacheCfg: cfg(4, func(c *cache.Config) { c.LLCPolicy = "lru" }), Scale: tinyScale, PF: Baseline()},
		{Mix: tinyMix(t), CacheCfg: cfg(1, nil), Scale: tinyScale, PF: BasicPythiaPF(),
			WarmStart: &policy.Envelope{Meta: policy.Meta{ID: "3f9a0c1d2e4b5a69"}}},
	}
	for i, spec := range specs {
		if got, want := cacheKey(spec), sprintfCacheKey(spec); got != want {
			t.Errorf("spec %d: cacheKey\n%s\nwant the fmt.Sprintf form\n%s", i, got, want)
		}
	}
}

// compatStore holds entries written at commit 19e553d, whose store
// decoded envelope and payload in two passes and whose keys were rendered
// through fmt: a run of compatSpec and the fig14 table at compatScale.
const compatStore = "testdata/compat-store"

// compatScale and compatSpec are the scale and spec compatStore's run
// entry was simulated at.
var compatScale = Scale{Warmup: 50_000, Sim: 200_000, TraceLen: 40_000, WorkloadsPerSuite: 1, HeteroMixes: 1}

func compatSpec(t *testing.T) RunSpec {
	return RunSpec{Mix: tinyMix(t), CacheCfg: cache.DefaultConfig(1), Scale: compatScale, PF: BasicPythiaPF()}
}

// decodeTwoPass decodes an entry file the way the store once did:
// envelope with a raw payload first, then the payload.
func decodeTwoPass(t *testing.T, path string, out any) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(buf, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		t.Fatal(err)
	}
}

// copyStore copies compatStore into a fresh directory.
func copyStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(compatStore)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		buf, err := os.ReadFile(filepath.Join(compatStore, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestEarlierStoreEntriesStillHit: entries commit 19e553d wrote are hits
// with zero simulation, and decode to the values the two-pass decoder
// gives.
func TestEarlierStoreEntriesStillHit(t *testing.T) {
	dir := copyStore(t)
	st := SetResultStore(dir)
	defer SetResultStore("")
	ResetCaches()
	defer ResetCaches()

	spec := compatSpec(t)
	before := SimCount()
	got, err := RunCached(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := SimCount() - before; n != 0 || st.Hits() != 1 || st.Misses() != 0 {
		t.Fatalf("stored run: %d sims, %d hits, %d misses; want 0/1/0", n, st.Hits(), st.Misses())
	}
	key := runKey(spec, cacheKey(spec))
	var want RunResult
	decodeTwoPass(t, filepath.Join(dir, fmt.Sprintf("run-459.GemsFDTD-100B_pythia-%s.json", key.Fingerprint)), &want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stored run decoded to\n%+v\nwant\n%+v", got, want)
	}

	ekey := ExperimentKey("fig14", compatScale)
	var exp, wantExp ExperimentPayload
	if !st.Get(ekey, &exp) {
		t.Fatal("stored experiment missed")
	}
	decodeTwoPass(t, filepath.Join(dir, "experiment-fig14-"+ekey.Fingerprint+".json"), &wantExp)
	if !reflect.DeepEqual(exp, wantExp) || exp.Table == nil || len(exp.Table.Rows) == 0 {
		t.Errorf("stored experiment decoded to\n%+v\nwant\n%+v", exp, wantExp)
	}
}

// TestStoredRunEntryMatchesEarlierBytes: a run entry written now is byte
// for byte the one commit 19e553d wrote for the same spec, apart from
// its creation time, so stores from either build are interchangeable.
func TestStoredRunEntryMatchesEarlierBytes(t *testing.T) {
	dir := t.TempDir()
	SetResultStore(dir)
	defer SetResultStore("")
	ResetCaches()
	defer ResetCaches()

	spec := compatSpec(t)
	if _, err := RunCached(bg, spec); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("run-459.GemsFDTD-100B_pythia-%s.json", runKey(spec, cacheKey(spec)).Fingerprint)
	got, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(compatStore, name))
	if err != nil {
		t.Fatal(err)
	}
	createdAt := regexp.MustCompile(`"created_at": "[^"]*"`)
	got = createdAt.ReplaceAll(got, []byte(`"created_at": ""`))
	want = createdAt.ReplaceAll(want, []byte(`"created_at": ""`))
	if !bytes.Equal(got, want) {
		t.Errorf("run entry differs from 19e553d's:\n%s\nwant\n%s", got, want)
	}
}

// TestRunResultEncoding pins the persisted form of a run to the bytes
// earlier builds wrote for it (through a separate payload type), so
// their store entries still decode and hit: the same field names, and
// no live prefetchers.
func TestRunResultEncoding(t *testing.T) {
	r := RunResult{
		Name:    "mix",
		IPC:     []float64{1.25, 0.5},
		Stats:   []cache.CoreStats{{Accesses: 1, Loads: 2, L1Misses: 3, L2Misses: 4, LLCLoadMisses: 5, LLCDemandAccesses: 6, DRAMReads: 7, PfIssued: 8, PfDropped: 9, PfToDRAM: 10, PfFills: 11, PfUseful: 12, PfLate: 13, Writebacks: 14, PfLLCHits: 15}},
		Buckets: [dram.BucketCount]float64{0.125, 0.25, 0.5, 0.125},
		DRAM:    dram.Stats{Reads: 16, Writes: 17, RowHits: 18, RowMisses: 19, BusBusy: 20, RefreshStalls: 21, FirstCycle: 22, LastCycle: 23},
		PFs:     []prefetch.Prefetcher{prefetch.NewBingo(prefetch.DefaultBingoConfig())},
	}
	const want = `{"name":"mix","ipc":[1.25,0.5],` +
		`"core_stats":[{"Accesses":1,"Loads":2,"L1Misses":3,"L2Misses":4,"LLCLoadMisses":5,"LLCDemandAccesses":6,"DRAMReads":7,"PfIssued":8,"PfDropped":9,"PfToDRAM":10,"PfFills":11,"PfUseful":12,"PfLate":13,"Writebacks":14,"PfLLCHits":15}],` +
		`"dram_buckets":[0.125,0.25,0.5,0.125],` +
		`"dram":{"Reads":16,"Writes":17,"RowHits":18,"RowMisses":19,"BusBusy":20,"RefreshStalls":21,"FirstCycle":22,"LastCycle":23}}`
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("encoded run\n%s\nwant\n%s", got, want)
	}
	var back RunResult
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	r.PFs = nil
	if !reflect.DeepEqual(back, r) {
		t.Errorf("decoded run\n%+v\nwant\n%+v", back, r)
	}
}
