package serve

import (
	"fmt"
	"testing"

	"d3t/internal/coherency"
	"d3t/internal/netsim"
	"d3t/internal/repository"
	"d3t/internal/sim"
)

// BenchmarkFanOut measures the per-delivery cost of the leaf filter as
// the session count on one repository grows — the hot path of a
// serving-layer deployment, where one upstream delivery fans out to
// every session the repository carries.
func BenchmarkFanOut(b *testing.B) {
	for _, sessions := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			net := netsim.Uniform(1, sim.Millisecond)
			repo := repository.New(1, 4)
			repo.Needs["X"], repo.Serving["X"] = 0.01, 0.01
			f, err := NewFleet(net, []*repository.Repository{repo}, Options{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < sessions; i++ {
				// Alternate loose and tight tolerances so the bench
				// exercises both filter outcomes.
				tol := coherency.Requirement(0.5)
				if i%2 == 0 {
					tol = 5
				}
				c := &repository.Client{
					Name: fmt.Sprintf("c%05d", i), Repo: 1,
					Wants: map[string]coherency.Requirement{"X": tol},
				}
				attach(b, f, c)
			}
			f.Seed(map[string]float64{"X": 100})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := 100 + float64(i%3)
				now := sim.Time(i+1) * sim.Millisecond
				f.ObserveSource(now, "X", v)
				f.ObserveDeliver(now, 1, "X", v)
			}
			st := f.Finalize(sim.Time(b.N+1) * sim.Millisecond)
			b.ReportMetric(float64(st.Delivered+st.Filtered)/float64(b.N), "decisions/op")
		})
	}
}
