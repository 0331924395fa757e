package load

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"pythia/internal/api"
	"pythia/internal/harness"
)

// Class is one kind of synthetic request. Pick binds a single request's
// parameters from the dispatcher's RNG (so runs are reproducible from
// the seed) and returns the operation to execute concurrently.
type Class interface {
	Name() string
	Pick(rng *rand.Rand) func(ctx context.Context) error
}

// Targets names what the synthetic traffic aims at: the experiments
// whose stored results hot readers hammer (and simulators launch), the
// workloads train jobs use, and the scale everything runs at.
type Targets struct {
	Experiments []string
	Workloads   []string
	Scale       string
}

// ReadClass models the dominant traffic of a many-users serving system:
// GET a stored experiment result. Keys are drawn Zipf-distributed over
// the experiment list — a few experiments are hot, the tail is cold —
// controlled by S (the Zipf exponent, > 1; higher = more skew).
type ReadClass struct {
	Client *api.Client
	Targets
	// S is the Zipf skew exponent; values <= 1 fall back to 1.2.
	S float64

	zipf *rand.Zipf
}

func (c *ReadClass) Name() string { return "read" }

func (c *ReadClass) Pick(rng *rand.Rand) func(ctx context.Context) error {
	if c.zipf == nil {
		s := c.S
		if s <= 1 {
			s = 1.2
		}
		c.zipf = rand.NewZipf(rng, s, 1, uint64(len(c.Experiments)-1))
	}
	exp := c.Experiments[c.zipf.Uint64()]
	return func(ctx context.Context) error {
		_, err := c.Client.Result(ctx, exp, c.Scale)
		return err
	}
}

// SimulateClass launches experiment jobs (POST /runs): a store hit
// answers instantly with zero simulations, a miss occupies the worker.
// The measured latency is the launch round-trip only; JobClass measures
// execution.
type SimulateClass struct {
	Client *api.Client
	Targets
}

func (c *SimulateClass) Name() string { return "simulate" }

func (c *SimulateClass) Pick(rng *rand.Rand) func(ctx context.Context) error {
	exp := c.Experiments[rng.Intn(len(c.Experiments))]
	return func(ctx context.Context) error {
		_, err := c.Client.Launch(ctx, api.LaunchRequest{Experiment: exp, Scale: c.Scale})
		return err
	}
}

// JobClass measures the simulation: each request launches the first
// target experiment at a fresh custom: scale (the target scale with
// ",sim=S+1+i" appended, where S is its simulated-instruction count and
// i counts this class's requests) and follows the job's events to its
// terminal one, so the latency covers admission, queueing and
// execution. A job that ends anything but done, or that the store
// answered (cached, or zero simulations), is an error: a reused store
// must not pass for a fast server.
type JobClass struct {
	Client *api.Client
	Targets
	// sim is the target scale's simulated-instruction count (S above).
	sim  int64
	next int64
}

func (c *JobClass) Name() string { return "job" }

func (c *JobClass) Pick(rng *rand.Rand) func(ctx context.Context) error {
	exp := c.Experiments[0]
	scale := fmt.Sprintf("%s,sim=%d", c.Scale, c.sim+1+c.next)
	c.next++
	return func(ctx context.Context) error {
		j, err := c.Client.Launch(ctx, api.LaunchRequest{Experiment: exp, Scale: scale})
		if err != nil {
			return err
		}
		if id := j.ID; !j.Terminal() {
			if j, err = c.Client.Events(ctx, id, nil); err != nil {
				return fmt.Errorf("load: follow job %s: %w", id, err)
			}
		}
		switch {
		case j.Status != api.StatusDone:
			return fmt.Errorf("load: job %s ended %s: %s", j.ID, j.Status, j.Error)
		case j.Cached || j.Sims == 0:
			return fmt.Errorf("load: job %s at %s was a store hit (cached %t, sims %d)",
				j.ID, scale, j.Cached, j.Sims)
		}
		return nil
	}
}

// TrainClass launches policy-training jobs.
type TrainClass struct {
	Client *api.Client
	Targets
}

func (c *TrainClass) Name() string { return "train" }

func (c *TrainClass) Pick(rng *rand.Rand) func(ctx context.Context) error {
	wl := c.Workloads[rng.Intn(len(c.Workloads))]
	return func(ctx context.Context) error {
		_, err := c.Client.Launch(ctx, api.LaunchRequest{
			Scale: c.Scale,
			Train: &api.TrainRequest{Workload: wl},
		})
		return err
	}
}

// PolicyClass lists stored policies — cheap metadata reads.
type PolicyClass struct {
	Client *api.Client
}

func (c *PolicyClass) Name() string { return "policy" }

func (c *PolicyClass) Pick(rng *rand.Rand) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		_, err := c.Client.Policies(ctx)
		return err
	}
}

// MetaClass lists experiments — the catalogue read every UI makes.
type MetaClass struct {
	Client *api.Client
}

func (c *MetaClass) Name() string { return "meta" }

func (c *MetaClass) Pick(rng *rand.Rand) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		_, err := c.Client.Experiments(ctx)
		return err
	}
}

// WeightedClass pairs a class with its share of the traffic mix.
type WeightedClass struct {
	Class  Class
	Weight float64
}

// BuildMix constructs the weighted class list from a mix spec like
// "read=0.6,simulate=0.2,train=0.05,policy=0.05,meta=0.1". Weights are
// relative, not required to sum to 1. zipfS sets the read class's
// hot-key skew. The job class needs a custom: target scale.
func BuildMix(client *api.Client, spec string, tg Targets, zipfS float64) ([]WeightedClass, error) {
	if len(tg.Experiments) == 0 {
		return nil, fmt.Errorf("load: no target experiments")
	}
	if len(tg.Workloads) == 0 {
		tg.Workloads = []string{"mix1"}
	}
	job := &JobClass{Client: client, Targets: tg}
	byName := map[string]Class{
		"read":     &ReadClass{Client: client, Targets: tg, S: zipfS},
		"simulate": &SimulateClass{Client: client, Targets: tg},
		"job":      job,
		"train":    &TrainClass{Client: client, Targets: tg},
		"policy":   &PolicyClass{Client: client},
		"meta":     &MetaClass{Client: client},
	}
	var mix []WeightedClass
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("load: bad mix entry %q (want class=weight)", part)
		}
		cls, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("load: unknown request class %q", name)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("load: bad weight in %q", part)
		}
		if w == 0 {
			continue
		}
		if cls == Class(job) {
			if !strings.HasPrefix(tg.Scale, "custom:") {
				return nil, fmt.Errorf("load: the job class needs a custom: scale, not %q", tg.Scale)
			}
			sc, err := harness.ParseCustomScale(tg.Scale)
			if err != nil {
				return nil, fmt.Errorf("load: job class: %w", err)
			}
			job.sim = sc.Sim
		}
		mix = append(mix, WeightedClass{Class: cls, Weight: w})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("load: mix %q selects no classes", spec)
	}
	// Deterministic class order regardless of spec order, so a run's
	// request sequence is a pure function of (seed, schedule, mix set).
	sort.Slice(mix, func(i, j int) bool { return mix[i].Class.Name() < mix[j].Class.Name() })
	return mix, nil
}

// Prepare seeds the hot-key working set: it launches each target
// experiment once (through a retrying client) and waits for completion,
// so read traffic hits stored results instead of drowning in 404s, and
// repeat simulate traffic exercises the store-hit path. Returns the
// number of simulations the seeding itself spent.
func Prepare(ctx context.Context, c *api.Client, tg Targets) (int64, error) {
	var sims int64
	for _, exp := range tg.Experiments {
		j, err := c.Launch(ctx, api.LaunchRequest{Experiment: exp, Scale: tg.Scale})
		if err != nil {
			return sims, fmt.Errorf("load: prepare %s: %w", exp, err)
		}
		done, err := c.Wait(ctx, j.ID, 50*time.Millisecond)
		if err != nil {
			return sims, fmt.Errorf("load: prepare %s: %w", exp, err)
		}
		if done.Status != api.StatusDone {
			return sims, fmt.Errorf("load: prepare %s: job %s ended %s: %s",
				exp, done.ID, done.Status, done.Error)
		}
		sims += done.Sims
	}
	return sims, nil
}
