package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pythia/internal/core"
)

// PFByName resolves a prefetcher configuration by name for the CLIs.
func PFByName(name string) (PF, error) {
	all := map[string]func() PF{
		"nopref":          Baseline,
		"stride":          StridePF,
		"spp":             SPPPF,
		"bingo":           BingoPF,
		"mlop":            MLOPPF,
		"dspatch":         DSPatchPF,
		"ppf":             PPFPF,
		"cphw":            CPHWPF,
		"power7":          Power7PF,
		"ipcp":            IPCPPF,
		"stride+streamer": StrideStreamerPF,
		"stride+pythia":   StridePythiaPF,
	}
	for n, cfg := range pythiaConfigs() {
		all[n] = func() PF { return PythiaPF(cfg()) }
	}
	if f, ok := all[name]; ok {
		return f(), nil
	}
	return PF{}, fmt.Errorf("unknown prefetcher %q (available: %v)", name, sortedNames(all))
}

// pythiaConfigs names the Pythia configurations, for both PFByName and
// PythiaConfigByName.
func pythiaConfigs() map[string]func() core.Config {
	return map[string]func() core.Config{
		"pythia":        core.BasicConfig,
		"pythia-paper":  core.PaperHorizonConfig,
		"pythia-strict": core.StrictConfig,
		"pythia-bwobl":  core.BandwidthObliviousConfig,
	}
}

// PythiaConfigByName resolves a Pythia configuration by name for the
// policy-training entry points (pythia-train, the serve training API).
// Unlike PFByName this returns the raw core.Config, which training needs
// for provenance and fingerprinting.
func PythiaConfigByName(name string) (core.Config, error) {
	all := pythiaConfigs()
	if f, ok := all[name]; ok {
		return f(), nil
	}
	return core.Config{}, fmt.Errorf("unknown Pythia configuration %q (available: %v)", name, sortedNames(all))
}

// sortedNames returns m's keys in order, for an unknown-name error.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ScaleByName resolves a scale preset, or a parametric "custom:" scale.
// Parametric scales make the name self-describing: any process that can
// parse the name reconstructs the identical Scale, so a server restarted
// over a journal recovers jobs at custom scales without re-registering
// them as ExtraScales.
func ScaleByName(name string) (Scale, error) {
	if strings.HasPrefix(name, customScalePrefix) {
		return ParseCustomScale(name)
	}
	switch name {
	case "quick":
		return ScaleQuick, nil
	case "default", "":
		return ScaleDefault, nil
	case "full":
		return ScaleFull, nil
	case "long":
		return ScaleLong, nil
	default:
		return Scale{}, fmt.Errorf("unknown scale %q (quick|default|full|long|custom:...)", name)
	}
}

// customScalePrefix marks a parametric scale name.
const customScalePrefix = "custom:"

// ParseCustomScale parses a parametric scale name of the form
//
//	custom:warmup=300000,sim=1000000,tracelen=120000,wps=2,mixes=2,chunk=0
//
// Every field is optional; omitted fields default to a small smoke-test
// footprint (warmup 50k, sim 200k, tracelen 40k, one workload, one mix,
// materialized delivery). The name is the scale: two processes given the
// same string always resolve the same Scale, and two distinct strings
// address distinct store entries (Scale.Key feeds the fingerprint), which
// is what lets load generators mint deliberately uncacheable jobs.
func ParseCustomScale(name string) (Scale, error) {
	sc := Scale{Warmup: 50_000, Sim: 200_000, TraceLen: 40_000, WorkloadsPerSuite: 1, HeteroMixes: 1}
	spec := strings.TrimPrefix(name, customScalePrefix)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Scale{}, fmt.Errorf("bad custom scale field %q (want key=value)", part)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil || n < 0 {
			return Scale{}, fmt.Errorf("bad custom scale value in %q", part)
		}
		switch strings.TrimSpace(k) {
		case "warmup":
			sc.Warmup = n
		case "sim":
			sc.Sim = n
		case "tracelen":
			sc.TraceLen = int(n)
		case "wps":
			sc.WorkloadsPerSuite = int(n)
		case "mixes":
			sc.HeteroMixes = int(n)
		case "chunk":
			sc.StreamChunk = int(n)
		default:
			return Scale{}, fmt.Errorf("unknown custom scale field %q (warmup|sim|tracelen|wps|mixes|chunk)", k)
		}
	}
	if sc.Sim <= 0 || sc.TraceLen <= 0 {
		return Scale{}, fmt.Errorf("custom scale %q needs sim > 0 and tracelen > 0", name)
	}
	return sc, nil
}
