package main

import (
	"reflect"
	"strings"
	"testing"

	"pythia/internal/harness"
)

func ids(exps []harness.Experiment) []string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out
}

func TestResolveExperiments(t *testing.T) {
	cases := []struct {
		spec    string
		want    []string
		wantErr string
	}{
		{spec: "all", want: ids(harness.Experiments())},
		{spec: "ext", want: ids(harness.ExtendedExperiments())},
		{spec: "fig7, fig1,fig7", want: []string{"fig7", "fig1"}},
		{spec: "all,fig1", want: ids(harness.Experiments())},
		{spec: "bogus", wantErr: "-list"},
		{spec: ",", wantErr: "selects no experiments"},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			exps, err := resolveExperiments(tc.spec)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("resolveExperiments(%q) error = %v, want one containing %q", tc.spec, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("resolveExperiments(%q): %v", tc.spec, err)
			}
			if got := ids(exps); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("resolveExperiments(%q) = %v, want %v", tc.spec, got, tc.want)
			}
		})
	}
}
