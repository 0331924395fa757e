package serve

import (
	"pythia/internal/api"
	"pythia/internal/cache"
	"pythia/internal/harness"
	"pythia/internal/trace"
)

// newJob resolves a job spec — its scale, then its experiment, or its
// training workload and Pythia configuration — and builds the job,
// unpublished and with the spec's ID. Admission and recovery both build
// jobs here, so a journaled spec resolves exactly as its launch did.
// The error carries the code admission answers with: 404 for an unknown
// experiment or workload, 400 for a bad scale or configuration, 503
// without a policy store.
func (s *Server) newJob(spec jobRecord) (*job, *api.Error) {
	sc, err := s.scale(spec.Scale)
	if err != nil {
		return nil, specError(api.CodeBadRequest, "%v", err)
	}
	if spec.Kind != KindTrain {
		exp, ok := harness.ExperimentByID(spec.Experiment)
		if !ok {
			return nil, specError(api.CodeNotFound, "unknown experiment %q", spec.Experiment)
		}
		j := blankJob(s.baseCtx, s.journal, spec, sc)
		j.expID, j.title = exp.ID, exp.Title
		return j, nil
	}
	if s.cfg.Policies == nil {
		return nil, specError(api.CodeUnavailable, "no policy store configured")
	}
	wl, ok := trace.ByName(spec.Workload)
	if !ok {
		return nil, specError(api.CodeNotFound, "unknown workload %q", spec.Workload)
	}
	pcfg, err := harness.PythiaConfigByName(spec.Config)
	if err != nil {
		return nil, specError(api.CodeBadRequest, "%v", err)
	}
	j := blankJob(s.baseCtx, s.journal, spec, sc)
	j.train = harness.TrainSpec{Workload: wl, CacheCfg: cache.DefaultConfig(1), Scale: sc, Config: pcfg}
	j.title = "Train policy: " + pcfg.Name + " on " + wl.Name
	return j, nil
}

func specError(code, format string, args ...any) *api.Error {
	e := api.Errorf(code, format, args...)
	return &e
}

// scale maps a scale name through the extra-scales table, then the
// harness presets (which include "default", the empty name, and
// parametric "custom:..." names).
func (s *Server) scale(name string) (harness.Scale, error) {
	if sc, ok := s.cfg.ExtraScales[name]; ok {
		return sc, nil
	}
	return harness.ScaleByName(name)
}

// placeholder stands in for a journaled job whose spec no longer
// resolves: it exists to be registered and failed visibly, not silently
// dropped.
func (s *Server) placeholder(rec jobRecord) *job {
	j := blankJob(s.baseCtx, s.journal, rec, harness.Scale{})
	j.expID = rec.Experiment
	j.title = "(recovered)"
	return j
}
