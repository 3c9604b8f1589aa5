package obs

import (
	"strings"
	"testing"
)

// TestWriteTextByteStable pins the exposition renderer's ordering
// guarantee: series live in maps, so repeated renders — and renders of
// registries populated in opposite insertion orders — must still be
// byte-identical. This is the regression test behind pawsvet's maporder
// discipline for /metricsz.
func TestWriteTextByteStable(t *testing.T) {
	build := func(reversed bool) *Registry {
		r := NewRegistry()
		labels := []string{"plan", "predict", "riskmap", "campaign", "env_step"}
		if reversed {
			for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
				labels[i], labels[j] = labels[j], labels[i]
			}
		}
		for _, l := range labels {
			r.CounterVec("paws_requests_total", "requests by route", "route").With(l).Add(float64(len(l)))
			r.GaugeFunc("paws_inflight", "inflight by route", func() float64 { return float64(len(l) * 2) }, "route", l)
		}
		r.GaugeFunc("paws_up", "liveness", func() float64 { return 1 })
		return r
	}

	render := func(r *Registry) string {
		var b strings.Builder
		r.WriteText(&b)
		return b.String()
	}

	r := build(false)
	first := render(r)
	for i := 0; i < 5; i++ {
		if got := render(r); got != first {
			t.Fatalf("render %d differs from first:\n%s\nvs\n%s", i, got, first)
		}
	}
	if got := render(build(true)); got != first {
		t.Fatalf("reversed insertion order changes output:\n%s\nvs\n%s", got, first)
	}
}
