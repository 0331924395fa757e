// Package load is an open-loop load harness for pythia-serve: it offers
// a Poisson arrival stream at one rate over a weighted mix of request
// classes, fires the requests at a live server through the typed
// api.Client, and reports client-side latency quantiles, throughput,
// and error/shed rates per class against declared SLOs. Sweep repeats
// the run at rising rates and names the knee: the last rate the server
// kept up with.
//
// Open-loop means arrivals are generated on their own clock — a slow
// server does not slow the generator down, it just accumulates
// in-flight requests (bounded by MaxInFlight) and sheds. That is the
// regime a serving system actually faces: users do not politely wait
// for each other.
package load

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pythia/internal/api"
)

// drainTimeout bounds how long Run waits for stragglers after the last
// arrival.
const drainTimeout = 30 * time.Second

// Config parameterizes one load run.
type Config struct {
	// Client executes the requests. Use a no-retry client: the harness
	// must observe sheds, not paper over them with backoff.
	Client *api.Client
	// RPS is the mean arrival rate (req/s) of the run's Poisson stream.
	RPS      float64
	Duration time.Duration
	Mix      []WeightedClass
	// Seed makes the arrival sequence and per-request parameter choices
	// reproducible.
	Seed int64
	// MaxInFlight bounds concurrent outstanding requests (default 512).
	// Arrivals past the bound are recorded as dropped, not executed — an
	// open-loop generator must not itself become a queue.
	MaxInFlight int
	// RequestTimeout bounds each request (default 30s).
	RequestTimeout time.Duration
}

// Run drives the configured traffic against the server and returns the
// measured report. The arrival process is open-loop: a single
// dispatcher goroutine samples exponential inter-arrival gaps at
// cfg.RPS on the wall clock and fires each request in its own goroutine
// at its arrival time.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("load: Config.Client is required")
	}
	if cfg.RPS <= 0 {
		return nil, fmt.Errorf("load: Config.RPS must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("load: Config.Duration must be positive")
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("load: Config.Mix is empty")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 512
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}

	var totalWeight float64
	for _, wc := range cfg.Mix {
		totalWeight += wc.Weight
	}

	collectors := make(map[string]*collector, len(cfg.Mix))
	for _, wc := range cfg.Mix {
		collectors[wc.Class.Name()] = &collector{}
	}

	var before api.Health
	haveBefore := false
	if h, err := cfg.Client.Health(ctx); err == nil {
		before, haveBefore = h, true
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	sem := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	elapsed := time.Duration(0)
	var offered int64

dispatch:
	for elapsed < cfg.Duration {
		select {
		case <-ctx.Done():
			break dispatch
		default:
		}
		gap := time.Duration(rng.ExpFloat64() / cfg.RPS * float64(time.Second))
		elapsed += gap
		if elapsed >= cfg.Duration {
			break
		}
		// Bind the request before sleeping so the choice sequence depends
		// only on the seed, not on scheduling jitter.
		wc := pickClass(rng, cfg.Mix, totalWeight)
		op := wc.Class.Pick(rng)
		col := collectors[wc.Class.Name()]
		offered++

		if wait := start.Add(elapsed).Sub(time.Now()); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break dispatch
			}
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				rctx, cancel := context.WithTimeout(ctx, cfg.RequestTimeout)
				defer cancel()
				t0 := time.Now()
				err := op(rctx)
				col.record(time.Since(t0), err)
			}()
		default:
			// Generator-side overload: the in-flight cap is exhausted, so
			// this arrival is dropped rather than queued (queueing would
			// close the loop and understate latency).
			col.drop()
		}
	}

	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
	}
	wall := time.Since(start)

	rep := &Report{
		RPS:         cfg.RPS,
		DurationSec: wall.Seconds(),
		Seed:        cfg.Seed,
		Offered:     offered,
	}
	for _, wc := range cfg.Mix {
		name := wc.Class.Name()
		rep.Classes = append(rep.Classes, collectors[name].report(name, wall))
	}
	if haveBefore {
		if after, err := cfg.Client.Health(ctx); err == nil {
			rep.Server = serverDelta(before, after)
		}
	}
	return rep, nil
}

// Sweep runs the step sweep: one Run of cfg.Duration at each rate
// cfg.RPS, 2·cfg.RPS, 3·cfg.RPS, … up to to, so the step size equals
// the start rate. A to below 2·cfg.RPS sweeps the single step cfg.RPS.
// The mix's classes keep their state across steps (the job class keeps
// numbering its fresh scales). A canceled ctx ends the sweep after the
// step it interrupted.
func Sweep(ctx context.Context, cfg Config, to float64) (*SweepReport, error) {
	start := cfg.RPS
	sw := &SweepReport{}
	// The tolerance keeps a step whose product rounds just above to
	// (3 × 0.1 > 0.3 in floating point).
	for k := 1; k == 1 || float64(k)*start <= to*(1+1e-9); k++ {
		cfg.RPS = float64(k) * start
		rep, err := Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		sw.Steps = append(sw.Steps, rep)
		if ctx.Err() != nil {
			break
		}
	}
	sw.KneeRPS = knee(sw.Steps)
	return sw, nil
}

// knee returns the rate of the last step that kept up before the first
// one that fell behind, or 0 when step 1 already fell behind. A step
// keeps up when its OK completions reach 95% of its offered arrivals; a
// step that keeps up again past the first that did not is noise, not a
// higher knee.
func knee(steps []*Report) float64 {
	rate := 0.0
	for _, st := range steps {
		var ok int64
		for _, c := range st.Classes {
			ok += c.OK
		}
		if float64(ok) < 0.95*float64(st.Offered) {
			break
		}
		rate = st.RPS
	}
	return rate
}

func pickClass(rng *rand.Rand, mix []WeightedClass, total float64) WeightedClass {
	x := rng.Float64() * total
	for _, wc := range mix {
		if x < wc.Weight {
			return wc
		}
		x -= wc.Weight
	}
	return mix[len(mix)-1]
}

// collector accumulates one class's outcomes. Latencies are kept only
// for successful requests: a shed answers in microseconds and an error
// may answer instantly, and mixing those into the quantiles would make
// an overloaded server look fast.
type collector struct {
	mu        sync.Mutex
	latencies []float64 // ms, successful requests only
	ok        int64
	shed      int64
	errs      int64
	dropped   int64
}

func (c *collector) record(d time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil:
		c.ok++
		c.latencies = append(c.latencies, float64(d)/float64(time.Millisecond))
	case api.IsShed(err):
		c.shed++
	default:
		c.errs++
	}
}

func (c *collector) drop() {
	c.mu.Lock()
	c.dropped++
	c.mu.Unlock()
}

func (c *collector) report(name string, wall time.Duration) ClassReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := ClassReport{
		Class:    name,
		Requests: c.ok + c.shed + c.errs,
		OK:       c.ok,
		Shed:     c.shed,
		Errors:   c.errs,
		Dropped:  c.dropped,
	}
	if wall > 0 {
		r.OKPerSec = float64(r.OK) / wall.Seconds()
	}
	if n := len(c.latencies); n > 0 {
		sorted := append([]float64(nil), c.latencies...)
		sortFloats(sorted)
		r.P50Ms = quantile(sorted, 0.50)
		r.P90Ms = quantile(sorted, 0.90)
		r.P95Ms = quantile(sorted, 0.95)
		r.P99Ms = quantile(sorted, 0.99)
		r.MaxMs = sorted[n-1]
		sum := 0.0
		for _, v := range sorted {
			sum += v
		}
		r.MeanMs = sum / float64(n)
	}
	return r
}

func serverDelta(before, after api.Health) *ServerDelta {
	d := &ServerDelta{Sims: after.Sims - before.Sims}
	b, a := before.Stores["results"], after.Stores["results"]
	d.StoreHits = a.Hits - b.Hits
	d.StoreMisses = a.Misses - b.Misses
	return d
}
