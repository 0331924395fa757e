package serve

import (
	"context"
	"fmt"

	"pythia/internal/cache"
	"pythia/internal/harness"
	"pythia/internal/trace"
)

// jobBuilder resolves job specs: admission's scale lookups, and
// executable jobs rebuilt from journal records through the same tables
// when a restarting server rebuilds its backlog.
type jobBuilder struct {
	base        context.Context
	extraScales map[string]harness.Scale
	jl          *journal
}

// build reconstructs rec, carrying its durable state (attempt count,
// creation time) onto the job. Even on error a placeholder job is
// returned (never nil) so callers can register and fail it visibly
// rather than silently dropping a journaled job.
func (b *jobBuilder) build(rec jobRecord) (*job, error) {
	j, err := b.resolve(rec)
	j.jl = b.jl
	j.attempts = rec.Attempts
	j.created = rec.CreatedAt
	return j, err
}

func (b *jobBuilder) resolve(rec jobRecord) (*job, error) {
	sc, err := b.resolveScale(scaleArg(rec.Scale))
	if err != nil {
		return b.placeholder(rec), err
	}
	if rec.Kind == KindTrain {
		wl, ok := trace.ByName(rec.Workload)
		if !ok {
			return b.placeholder(rec), fmt.Errorf("unknown workload %q", rec.Workload)
		}
		pcfg, err := harness.PythiaConfigByName(rec.Config)
		if err != nil {
			return b.placeholder(rec), err
		}
		ts := harness.TrainSpec{Workload: wl, CacheCfg: cache.DefaultConfig(1), Scale: sc, Config: pcfg}
		return newTrainJob(b.base, rec.ID, ts, rec.Scale, sc), nil
	}
	exp, ok := harness.ExperimentByID(rec.Experiment)
	if !ok {
		return b.placeholder(rec), fmt.Errorf("unknown experiment %q", rec.Experiment)
	}
	return newJob(b.base, rec.ID, exp, rec.Scale, sc), nil
}

// resolveScale maps a scale name through the extra-scales table, then
// the harness presets (which include parametric "custom:..." names). An
// empty name means the harness default.
func (b *jobBuilder) resolveScale(name string) (harness.Scale, error) {
	if sc, ok := b.extraScales[name]; ok {
		return sc, nil
	}
	return harness.ScaleByName(name)
}

// scaleArg maps the journaled scale name back to a resolveScale
// argument ("default" was minted by admission from the empty name).
func scaleArg(name string) string {
	if name == "default" {
		return ""
	}
	return name
}

// placeholder is a journaled job whose spec no longer resolves: it
// exists to be registered and failed visibly, not silently dropped.
func (b *jobBuilder) placeholder(rec jobRecord) *job {
	j := blankJob(b.base, rec.ID, rec.Kind, rec.Scale, harness.Scale{})
	j.expID = rec.Experiment
	j.title = "(recovered)"
	return j
}
