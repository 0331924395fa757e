package load

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"pythia/internal/api"
)

func TestParseSLOs(t *testing.T) {
	slos, err := ParseSLOs("read:p95ms=50,p99ms=200,err=0; simulate:shed=0.2")
	if err != nil {
		t.Fatal(err)
	}
	r := slos["read"]
	if r.P95Ms != 50 || r.P99Ms != 200 || r.Err != 0 || r.Shed != -1 || r.P50Ms != -1 {
		t.Errorf("read SLO = %+v", r)
	}
	if s := slos["simulate"]; s.Shed != 0.2 || s.P95Ms != -1 {
		t.Errorf("simulate SLO = %+v", s)
	}
	for _, bad := range []string{"", "read", "read:p95=50", "read:p95ms=x", "read:p95ms=-1"} {
		if _, err := ParseSLOs(bad); err == nil {
			t.Errorf("ParseSLOs(%q) should fail", bad)
		}
	}
}

func TestCheckSLOs(t *testing.T) {
	rep := &Report{Classes: []ClassReport{
		{Class: "read", Requests: 100, OK: 98, Shed: 1, Errors: 1, P95Ms: 40},
		{Class: "simulate", Requests: 10, OK: 5, Shed: 5},
	}}
	slos := map[string]SLO{
		"read":     {P50Ms: -1, P95Ms: 50, P99Ms: -1, Err: 0.05, Shed: -1},
		"simulate": {P50Ms: -1, P95Ms: -1, P99Ms: -1, Err: -1, Shed: 0.2},
		"train":    {P50Ms: -1, P95Ms: -1, P99Ms: -1, Err: 0, Shed: -1},
	}
	v := rep.CheckSLOs(slos)
	// read passes; simulate shed rate 0.5 > 0.2; train saw no traffic.
	if len(v) != 2 {
		t.Fatalf("violations = %v, want 2", v)
	}
	if rep.Violations == nil {
		t.Error("violations not recorded on report")
	}
}

func TestQuantiles(t *testing.T) {
	c := &collector{}
	for i := 1; i <= 100; i++ {
		c.record(time.Duration(i)*time.Millisecond, nil)
	}
	c.record(time.Millisecond, &api.Error{Code: api.CodeQueueFull, Retryable: true})
	c.record(time.Millisecond, context.DeadlineExceeded)
	r := c.report("read", 10*time.Second)
	if r.OK != 100 || r.Shed != 1 || r.Errors != 1 || r.Requests != 102 {
		t.Errorf("counts = %+v", r)
	}
	if r.P50Ms < 50 || r.P50Ms > 52 {
		t.Errorf("p50 = %g", r.P50Ms)
	}
	if r.P90Ms < 90 || r.P90Ms > 92 {
		t.Errorf("p90 = %g", r.P90Ms)
	}
	if r.OKPerSec != 10 {
		t.Errorf("ok/s = %g, want 100 ok over 10s", r.OKPerSec)
	}
	if r.P99Ms < 99 || r.P99Ms > 100 {
		t.Errorf("p99 = %g", r.P99Ms)
	}
	if r.MaxMs != 100 {
		t.Errorf("max = %g", r.MaxMs)
	}
}

func TestBuildMix(t *testing.T) {
	c := api.NewClient("http://127.0.0.1:0", api.WithRetries(0))
	tg := Targets{Experiments: []string{"fig14"}, Scale: "tiny"}
	mix, err := BuildMix(c, "read=0.6, simulate=0.2,meta=0.2,train=0", tg, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-weight classes drop out; survivors sort by name.
	if len(mix) != 3 {
		t.Fatalf("mix has %d classes, want 3", len(mix))
	}
	for i, want := range []string{"meta", "read", "simulate"} {
		if mix[i].Class.Name() != want {
			t.Errorf("mix[%d] = %s, want %s", i, mix[i].Class.Name(), want)
		}
	}
	// The job class needs a custom: scale to count up from.
	for _, bad := range []string{"", "bogus=1", "read", "read=x", "read=-1", "job=1"} {
		if _, err := BuildMix(c, bad, tg, 0); err == nil {
			t.Errorf("BuildMix(%q) should fail", bad)
		}
	}
}

// TestOpenLoopDispatchAgainstStub drives the runner against a stub that
// is instant, checking arrival accounting, per-class partitioning, and
// reproducibility of the offered count from the seed.
func TestOpenLoopDispatchAgainstStub(t *testing.T) {
	run := func(seed int64) *Report {
		cfg := Config{
			Client:   api.NewClient("http://127.0.0.1:0", api.WithRetries(0)),
			RPS:      200,
			Duration: 500 * time.Millisecond,
			Seed:     seed,
			Mix: []WeightedClass{
				{Class: stubClass{name: "a"}, Weight: 3},
				{Class: stubClass{name: "b"}, Weight: 1},
			},
		}
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run(7)
	if rep.Offered < 50 || rep.Offered > 200 {
		t.Errorf("offered = %d, want ≈100 (200rps × 0.5s)", rep.Offered)
	}
	var total, aCount int64
	for _, c := range rep.Classes {
		total += c.Requests + c.Dropped
		if c.Class == "a" {
			aCount = c.Requests
		}
		if c.Errors != 0 || c.Shed != 0 {
			t.Errorf("stub class %s saw errors: %+v", c.Class, c)
		}
	}
	if total != rep.Offered {
		t.Errorf("class totals %d != offered %d", total, rep.Offered)
	}
	if frac := float64(aCount) / float64(rep.Offered); frac < 0.5 || frac > 0.95 {
		t.Errorf("class a got %.0f%% of traffic, want ≈75%%", frac*100)
	}
	if again := run(7); again.Offered != rep.Offered {
		t.Errorf("same seed offered %d then %d arrivals", rep.Offered, again.Offered)
	}
}

// TestSweepStepsAndKnee runs step sweeps over a stub class that answers
// a budget of requests and fails every later one. Arrivals depend only
// on the seed, so a budget of exactly the first two steps' arrivals
// must put the knee at step 2.
func TestSweepStepsAndKnee(t *testing.T) {
	sweep := func(budget int64, to float64) *SweepReport {
		t.Helper()
		sw, err := Sweep(context.Background(), Config{
			Client:   api.NewClient("http://127.0.0.1:0", api.WithRetries(0)),
			RPS:      200,
			Duration: 100 * time.Millisecond,
			Seed:     3,
			Mix:      []WeightedClass{{Class: &budgetClass{left: budget}, Weight: 1}},
		}, to)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}

	all := sweep(math.MaxInt64, 700)
	if len(all.Steps) != 3 {
		t.Fatalf("sweep to 700 at 200 rps ran %d steps, want 3", len(all.Steps))
	}
	for k, st := range all.Steps {
		if want := float64(k+1) * 200; st.RPS != want {
			t.Errorf("step %d rate = %g, want %g", k+1, st.RPS, want)
		}
		if st.Offered == 0 || st.Classes[0].OK != st.Offered {
			t.Errorf("step %d: ok %d of %d offered, want all", k+1, st.Classes[0].OK, st.Offered)
		}
	}
	if all.KneeRPS != 600 {
		t.Errorf("knee = %g, want 600 when every step keeps up", all.KneeRPS)
	}
	if one := sweep(math.MaxInt64, 0); len(one.Steps) != 1 || one.Steps[0].RPS != 200 || one.KneeRPS != 200 {
		t.Errorf("sweep without a target: %d steps, first at %g, knee %g; want one step at 200",
			len(one.Steps), one.Steps[0].RPS, one.KneeRPS)
	}

	first, second := all.Steps[0].Offered, all.Steps[1].Offered
	mid := sweep(first+second, 700)
	for k, st := range mid.Steps {
		if st.Offered != all.Steps[k].Offered {
			t.Fatalf("step %d offered %d then %d arrivals at one seed", k+1, all.Steps[k].Offered, st.Offered)
		}
	}
	if got := mid.Steps[2].Classes[0]; got.OK != 0 || got.Errors != got.Requests {
		t.Errorf("step 3 past the budget: %+v, want only errors", got)
	}
	if mid.KneeRPS != 400 {
		t.Errorf("knee = %g, want 400 (the last step within the budget)", mid.KneeRPS)
	}

	if behind := sweep(first/2, 700); behind.KneeRPS != 0 {
		t.Errorf("knee = %g, want none when step 1 already falls behind", behind.KneeRPS)
	}
}

// TestKneeRule pins the rule on hand-made steps: 95% of offered is
// keeping up, 94% is not, and a step that keeps up again after one that
// fell behind does not raise the knee.
func TestKneeRule(t *testing.T) {
	step := func(rps float64, ok, offered int64) *Report {
		return &Report{RPS: rps, Offered: offered, Classes: []ClassReport{{OK: ok / 2}, {OK: ok - ok/2}}}
	}
	cases := []struct {
		steps []*Report
		want  float64
	}{
		{[]*Report{step(10, 100, 100), step(20, 95, 100), step(30, 94, 100), step(40, 100, 100)}, 20},
		{[]*Report{step(10, 94, 100), step(20, 100, 100)}, 0},
		{[]*Report{step(10, 0, 0)}, 10},
		{nil, 0},
	}
	for i, c := range cases {
		if got := knee(c.steps); got != c.want {
			t.Errorf("case %d: knee = %g, want %g", i, got, c.want)
		}
	}
}

var errBudget = errors.New("budget spent")

// budgetClass answers its first left picks and fails every later one.
type budgetClass struct{ left int64 }

func (b *budgetClass) Name() string { return "budget" }
func (b *budgetClass) Pick(*rand.Rand) func(context.Context) error {
	b.left--
	if b.left < 0 {
		return func(context.Context) error { return errBudget }
	}
	return func(context.Context) error { return nil }
}

type stubClass struct{ name string }

func (s stubClass) Name() string { return s.name }
func (s stubClass) Pick(rng *rand.Rand) func(ctx context.Context) error {
	return func(ctx context.Context) error { return nil }
}
