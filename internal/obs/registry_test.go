package obs

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v want %v (±%v)", msg, got, want, tol)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops", L("kind", "a"))
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same counter.
	if r.Counter("test_ops_total", "ops", L("kind", "a")) != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels is a distinct series.
	c2 := r.Counter("test_ops_total", "ops", L("kind", "b"))
	if c2 == c || c2.Value() != 0 {
		t.Fatal("distinct label set should be a fresh counter")
	}

	g := r.Gauge("test_depth", "depth", nil)
	g.Set(3)
	g.Add(2.5)
	g.Add(-1)
	almost(t, g.Value(), 4.5, 1e-12, "gauge")

	if v, ok := r.Value("test_ops_total", L("kind", "a")); !ok || v != 5 {
		t.Fatalf("Value lookup = %v,%v", v, ok)
	}
	if _, ok := r.Value("nope", nil); ok {
		t.Fatal("lookup of unregistered metric should fail")
	}
}

func TestFuncMetricsReplaceOnReregister(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("test_live", "live", nil, func() float64 { return 1 })
	r.GaugeFunc("test_live", "live", nil, func() float64 { return 2 })
	if v, ok := r.Value("test_live", nil); !ok || v != 2 {
		t.Fatalf("func gauge after replace = %v,%v, want 2", v, ok)
	}
	// Exactly one series in the family despite two registrations.
	for _, f := range r.Gather() {
		if f.Name == "test_live" && len(f.Metrics) != 1 {
			t.Fatalf("replace created %d series, want 1", len(f.Metrics))
		}
	}
}

func TestTypeConflictDetaches(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_thing", "h", nil).Add(7)
	// Conflicting gauge registration must not corrupt the family; the
	// returned gauge is usable but detached.
	g := r.Gauge("test_thing", "h", nil)
	g.Set(99)
	if v, _ := r.Value("test_thing", nil); v != 7 {
		t.Fatalf("counter clobbered by conflicting gauge: %v", v)
	}
}

func TestHistogramSharedAcrossRegistrations(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("test_lat_seconds", "lat", LatencyBuckets, nil)
	h2 := r.Histogram("test_lat_seconds", "lat", []float64{42}, nil) // buckets ignored on reuse
	if h1 != h2 {
		t.Fatal("same name+labels must share one histogram")
	}
}

// TestPrometheusRoundTrip renders the registry and re-parses the text
// exposition, checking structural validity: every sample belongs to a
// declared family of the right type, histogram buckets are cumulative and
// monotone with le ascending, +Inf equals _count, and label values
// round-trip through escaping.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_jobs_total", "jobs by state", L("state", "done")).Add(3)
	r.Counter("rt_jobs_total", "jobs by state", L("state", "failed")).Add(1)
	r.Gauge("rt_depth", "queue depth", nil).Set(2.5)
	r.GaugeFunc("rt_workers", "workers", nil, func() float64 { return 8 })
	h := r.Histogram("rt_wait_seconds", "queue wait", []float64{0.1, 1, 10}, L("q", `we"ird\q`))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	types := map[string]string{}    // family -> type
	samples := map[string]float64{} // full sample line key -> value
	var order []string
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown type %q in %q", parts[3], line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		var v float64
		var err error
		if valStr == "+Inf" {
			v = math.Inf(1)
		} else if v, err = strconv.ParseFloat(valStr, 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[key] = v
		order = append(order, key)

		// Sample name must resolve to a declared family.
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && types[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no TYPE declaration", key)
		}
	}

	// Families sorted by name in output.
	var fams []string
	for _, k := range order {
		name := k
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suf)
		}
		if len(fams) == 0 || fams[len(fams)-1] != name {
			fams = append(fams, name)
		}
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1] > fams[i] {
			t.Fatalf("families out of order: %q before %q", fams[i-1], fams[i])
		}
	}

	// Spot-check values.
	if samples[`rt_jobs_total{state="done"}`] != 3 {
		t.Fatalf("rt_jobs_total{done} = %v", samples[`rt_jobs_total{state="done"}`])
	}
	if samples["rt_depth"] != 2.5 || samples["rt_workers"] != 8 {
		t.Fatalf("gauge samples wrong: depth=%v workers=%v", samples["rt_depth"], samples["rt_workers"])
	}

	// Histogram structure: cumulative, monotone, +Inf == count.
	lbl := `q="we\"ird\\q"`
	b1 := samples[`rt_wait_seconds_bucket{`+lbl+`,le="0.1"}`]
	b2 := samples[`rt_wait_seconds_bucket{`+lbl+`,le="1"}`]
	b3 := samples[`rt_wait_seconds_bucket{`+lbl+`,le="10"}`]
	binf := samples[`rt_wait_seconds_bucket{`+lbl+`,le="+Inf"}`]
	cnt := samples[`rt_wait_seconds_count{`+lbl+`}`]
	if b1 != 1 || b2 != 2 || b3 != 3 || binf != 4 {
		t.Fatalf("buckets = %v %v %v %v, want 1 2 3 4\n%s", b1, b2, b3, binf, text)
	}
	if b1 > b2 || b2 > b3 || b3 > binf {
		t.Fatal("bucket counts not monotone")
	}
	if binf != cnt {
		t.Fatalf("+Inf bucket (%v) != count (%v)", binf, cnt)
	}
	almost(t, samples[`rt_wait_seconds_sum{`+lbl+`}`], 55.55, 1e-9, "hist sum")
}

// TestRegistryHammer exercises registration and updates from many
// goroutines; run under -race it proves the registry is data-race free.
func TestRegistryHammer(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lbl := L("w", strconv.Itoa(g%4))
			for i := 0; i < 500; i++ {
				r.Counter("hammer_ops_total", "ops", lbl).Inc()
				r.Gauge("hammer_depth", "d", lbl).Add(1)
				r.Histogram("hammer_lat", "l", LatencyBuckets, lbl).Observe(float64(i) / 100)
				r.GaugeFunc("hammer_live", "lv", lbl, func() float64 { return float64(i) })
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, f := range r.Gather() {
		if f.Name == "hammer_ops_total" {
			for _, m := range f.Metrics {
				total += int64(m.Value)
			}
		}
	}
	if total != 8*500 {
		t.Fatalf("hammer counter total = %d, want %d", total, 8*500)
	}
}

func TestTimeline(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tl := NewTimeline("accepted", t0)
	tl.Mark("queued", t0.Add(1*time.Second))
	tl.Barrier("leased", t0.Add(2*time.Second))
	tl.Mark("simulating", t0.Add(3*time.Second))
	tl.Mark("simulating", t0.Add(10*time.Second)) // deduped within attempt
	tl.Barrier("leased", t0.Add(4*time.Second))   // retry: new attempt window
	tl.Mark("simulating", t0.Add(5*time.Second))  // records again post-barrier
	tl.Barrier("done", t0.Add(6*time.Second))

	views := tl.Snapshot(t0.Add(7 * time.Second))
	want := []struct {
		stage string
		dur   float64
	}{
		{"accepted", 1}, {"queued", 1}, {"leased", 1}, {"simulating", 1},
		{"leased", 1}, {"simulating", 1}, {"done", 1},
	}
	if len(views) != len(want) {
		t.Fatalf("got %d stages, want %d: %+v", len(views), len(want), views)
	}
	for i, w := range want {
		if views[i].Stage != w.stage || math.Abs(views[i].DurationSeconds-w.dur) > 1e-9 {
			t.Fatalf("stage %d = %+v, want %s/%v", i, views[i], w.stage, w.dur)
		}
	}

	// Nil timeline is inert everywhere.
	var nilTL *Timeline
	nilTL.Mark("x", t0)
	nilTL.Barrier("y", t0)
	if nilTL.Snapshot(t0) != nil {
		t.Fatal("nil timeline should snapshot to nil")
	}
}

func TestTimelineContext(t *testing.T) {
	tl := NewTimeline("accepted", time.Now())
	ctx := WithTimeline(context.Background(), tl)
	if TimelineFrom(ctx) != tl {
		t.Fatal("timeline did not round-trip through context")
	}
	if TimelineFrom(context.Background()) != nil {
		t.Fatal("bare context should carry no timeline")
	}
}
