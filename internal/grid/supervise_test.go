package grid

import "testing"

func TestSuperviseRejectsUncheckpointedSpecs(t *testing.T) {
	for _, spec := range []Spec{
		{Benchmark: "recommendation", DP: 2, Steps: 4},
		{Benchmark: "recommendation", DP: 2, Steps: 4, CkptDir: t.TempDir()},
	} {
		if _, err := Supervise(spec, SuperviseOptions{}); err == nil {
			t.Errorf("Supervise(%+v) accepted a spec that cannot recover", spec)
		}
	}
}
