package main

import (
	"strings"
	"testing"
)

func TestSelectRuns(t *testing.T) {
	all := experimentTable(1)
	for _, tc := range []struct {
		name, list string
		want       []string // selected names; nil means an error
	}{
		{"default set", defaultRuns,
			[]string{"fig2", "fig4", "fig6", "fig10", "fig11", "ablations", "sweeps", "stream", "chaos", "recovery"}},
		{"one run", "tenantchaos", []string{"tenantchaos"}},
		{"spaces around commas", " fig2 , fig10,\tio ", []string{"fig2", "fig10", "io"}},
		{"repeated name", "fig2,fig2", []string{"fig2"}},
		{"unknown name", "bogus", nil},
		{"typo among valid names", "fig2,ablate1", nil},
		{"none is not a run", "none", nil},
		{"scale is not a run", "scale", nil},
		{"empty list", "", nil},
		{"trailing comma", "fig2,", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := selectRuns(all, tc.list)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("selectRuns(%q) = %v, want an error", tc.list, got)
				}
				if !strings.Contains(err.Error(), "fig2, fig4") {
					t.Errorf("error %q does not list the valid runs", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("selectRuns(%q): %v", tc.list, err)
			}
			if len(got) != len(tc.want) {
				t.Errorf("selectRuns(%q) = %v, want %v", tc.list, got, tc.want)
			}
			for _, name := range tc.want {
				if !got[name] {
					t.Errorf("selectRuns(%q) misses %q", tc.list, name)
				}
			}
		})
	}
}
