package trace

import "fmt"

// Mix is a multi-programmed workload: one trace name per core, following the
// paper's multi-core methodology (§5.1).
type Mix struct {
	// Name identifies the mix (e.g. "Mix-59" or "429.mcf-homo4").
	Name string
	// Workloads holds one workload per core.
	Workloads []Workload
}

// Suite returns the suite label of the mix: the common suite for homogeneous
// mixes, "Mix" for heterogeneous ones.
func (m Mix) Suite() string {
	if len(m.Workloads) == 0 {
		return "Mix"
	}
	s := m.Workloads[0].Suite
	for _, w := range m.Workloads[1:] {
		if w.Suite != s {
			return "Mix"
		}
	}
	return s
}

// HomogeneousMix builds an n-core mix running n copies of one workload.
func HomogeneousMix(w Workload, n int) Mix {
	m := Mix{Name: fmt.Sprintf("%s-homo%d", w.Name, n)}
	for i := 0; i < n; i++ {
		m.Workloads = append(m.Workloads, w)
	}
	return m
}

// HeterogeneousMixes builds count random n-core mixes drawn from the given
// workload pool, deterministically from seed.
func HeterogeneousMixes(pool []Workload, n, count int, seed int64) []Mix {
	rng := NewRand(seed)
	mixes := make([]Mix, 0, count)
	for i := 0; i < count; i++ {
		m := Mix{Name: fmt.Sprintf("Mix-%d", i+1)}
		for c := 0; c < n; c++ {
			m.Workloads = append(m.Workloads, pool[rng.Intn(len(pool))])
		}
		mixes = append(mixes, m)
	}
	return mixes
}
