package load

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// SweepReport is a step sweep's measurements, as pythia-load renders
// them and writes them with -json.
type SweepReport struct {
	Steps []*Report `json:"steps"`
	// KneeRPS is the rate of the knee: the last step, before the first
	// that fell behind, whose OK completions reached 95% of its offered
	// arrivals. 0 means step 1 already fell behind.
	KneeRPS float64 `json:"knee_rps"`
}

// Report is one load run's measurements: one step of a sweep.
type Report struct {
	RPS         float64 `json:"rps"`
	DurationSec float64 `json:"duration_seconds"`
	Seed        int64   `json:"seed"`
	// Offered is how many arrivals the run generated (executed +
	// dropped at the in-flight cap).
	Offered int64         `json:"offered"`
	Classes []ClassReport `json:"classes"`
	// Server is the /healthz delta across the run: how much simulation
	// work and store traffic the synthetic load actually caused. The
	// cache-hit-storm proof lives here — repeat traffic shows hits
	// climbing while sims stay near zero.
	Server *ServerDelta `json:"server,omitempty"`
	// PrepareSims is what seeding the hot keys cost before measurement.
	PrepareSims int64 `json:"prepare_sims,omitempty"`
	// Violations lists every SLO the run broke (empty = pass).
	Violations []string `json:"violations,omitempty"`
}

// ClassReport is one request class's measured behavior. Latency
// quantiles cover successful requests only; sheds and errors are rated
// separately — a 503 in 200µs must not improve the p50. OKPerSec is the
// completed requests per second of the run's wall time.
type ClassReport struct {
	Class    string  `json:"class"`
	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`
	Shed     int64   `json:"shed"`
	Errors   int64   `json:"errors"`
	Dropped  int64   `json:"dropped,omitempty"`
	OKPerSec float64 `json:"ok_per_s"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// ShedRate is the fraction of issued requests the server shed.
func (c ClassReport) ShedRate() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.Shed) / float64(c.Requests)
}

// ErrRate is the fraction of issued requests that failed (non-shed).
func (c ClassReport) ErrRate() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.Errors) / float64(c.Requests)
}

// ServerDelta is the server-side /healthz movement across the run.
type ServerDelta struct {
	Sims        int64 `json:"sims"`
	StoreHits   int64 `json:"store_hits"`
	StoreMisses int64 `json:"store_misses"`
}

// SLO declares per-class bounds. Negative fields are "not declared".
type SLO struct {
	P50Ms float64
	P95Ms float64
	P99Ms float64
	// Err and Shed are maximum acceptable rates in [0,1].
	Err  float64
	Shed float64
}

// ParseSLOs parses a declaration like
//
//	"read:p95ms=50,p99ms=200,err=0;simulate:shed=0.2,err=0.01"
//
// — per-class clauses separated by ';', each a class name, ':', and
// comma-separated bound=value pairs. Known bounds: p50ms, p95ms, p99ms,
// err, shed.
func ParseSLOs(spec string) (map[string]SLO, error) {
	out := map[string]SLO{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, bounds, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("load: bad SLO clause %q (want class:bound=value,...)", clause)
		}
		slo := SLO{P50Ms: -1, P95Ms: -1, P99Ms: -1, Err: -1, Shed: -1}
		for _, pair := range strings.Split(bounds, ",") {
			pair = strings.TrimSpace(pair)
			if pair == "" {
				continue
			}
			key, val, ok := strings.Cut(pair, "=")
			if !ok {
				return nil, fmt.Errorf("load: bad SLO bound %q in %q", pair, clause)
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("load: bad SLO value %q in %q", val, clause)
			}
			switch strings.ToLower(strings.TrimSpace(key)) {
			case "p50ms":
				slo.P50Ms = f
			case "p95ms":
				slo.P95Ms = f
			case "p99ms":
				slo.P99Ms = f
			case "err":
				slo.Err = f
			case "shed":
				slo.Shed = f
			default:
				return nil, fmt.Errorf("load: unknown SLO bound %q (want p50ms/p95ms/p99ms/err/shed)", key)
			}
		}
		out[strings.TrimSpace(name)] = slo
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("load: SLO spec %q declares nothing", spec)
	}
	return out, nil
}

// CheckSLOs evaluates the declared bounds against the report, records
// the violations on it, and returns them. A declared class that saw no
// traffic is itself a violation — an SLO on traffic that never flowed
// is a misconfigured test, and silence would read as a pass.
func (r *Report) CheckSLOs(slos map[string]SLO) []string {
	byClass := map[string]ClassReport{}
	for _, c := range r.Classes {
		byClass[c.Class] = c
	}
	var names []string
	for name := range slos {
		names = append(names, name)
	}
	sort.Strings(names)
	var violations []string
	for _, name := range names {
		slo := slos[name]
		c, ok := byClass[name]
		if !ok || c.Requests == 0 {
			violations = append(violations,
				fmt.Sprintf("%s: SLO declared but class saw no traffic", name))
			continue
		}
		check := func(bound, got float64, label string) {
			if bound >= 0 && got > bound {
				violations = append(violations,
					fmt.Sprintf("%s: %s %.2f exceeds SLO %.2f", name, label, got, bound))
			}
		}
		check(slo.P50Ms, c.P50Ms, "p50_ms")
		check(slo.P95Ms, c.P95Ms, "p95_ms")
		check(slo.P99Ms, c.P99Ms, "p99_ms")
		check(slo.Err, c.ErrRate(), "error rate")
		check(slo.Shed, c.ShedRate(), "shed rate")
	}
	r.Violations = violations
	return violations
}

// Render formats the sweep as one table per step, then the knee.
func (s *SweepReport) Render() string {
	var b strings.Builder
	for i, st := range s.Steps {
		fmt.Fprintf(&b, "step %d of %d: ", i+1, len(s.Steps))
		b.WriteString(st.Render())
	}
	if s.KneeRPS > 0 {
		fmt.Fprintf(&b, "knee: %g rps (last step with ok >= 95%% of offered)\n", s.KneeRPS)
	} else {
		b.WriteString("knee: none (step 1 already had ok < 95% of offered)\n")
	}
	return b.String()
}

// Render formats the report as an aligned text table for terminals.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rps %g  wall %.1fs  offered %d  seed %d\n",
		r.RPS, r.DurationSec, r.Offered, r.Seed)
	fmt.Fprintf(&b, "%-10s %8s %8s %6s %6s %6s %7s %8s %9s %9s %9s %9s\n",
		"class", "requests", "ok", "shed", "shed%", "errs", "ok/s", "p50ms", "p90ms", "p95ms", "p99ms", "maxms")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "%-10s %8d %8d %6d %6.1f %6d %7.1f %8.2f %9.2f %9.2f %9.2f %9.2f\n",
			c.Class, c.Requests, c.OK, c.Shed, 100*c.ShedRate(), c.Errors, c.OKPerSec,
			c.P50Ms, c.P90Ms, c.P95Ms, c.P99Ms, c.MaxMs)
	}
	if r.Server != nil {
		fmt.Fprintf(&b, "server: sims %+d, store hits %+d, misses %+d\n",
			r.Server.Sims, r.Server.StoreHits, r.Server.StoreMisses)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "SLO VIOLATION: %s\n", v)
	}
	return b.String()
}

// sortFloats and quantile implement exact (nearest-rank) quantiles over
// the retained per-request latencies; load-test sample counts are small
// enough that exactness beats a streaming sketch.
func sortFloats(v []float64) { sort.Float64s(v) }

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
