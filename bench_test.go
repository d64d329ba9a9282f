package d3t

// One benchmark per table and figure of the paper's evaluation (Section
// 6), each driving the same harness the d3texp command uses, at a scale
// sized for testing.B iteration. Run the full paper-scale regeneration
// with:
//
//	go run ./cmd/d3texp -fig all -scale paper
//
// Each bench reports the headline metric of its figure via ReportMetric
// so regressions in the reproduced result — not just in speed — are
// visible in benchmark diffs.

import (
	"testing"

	"d3t/internal/core"
)

// benchScale is small enough for repeated runs yet preserves every
// qualitative shape.
func benchScale() core.Scale {
	base := core.Default()
	base.Repositories, base.Routers, base.Items, base.Ticks = 20, 60, 15, 400
	return core.Scale{
		Base:       base,
		CoopGrid:   []int{1, 4, 10, 20},
		TValues:    []float64{0, 100},
		CommGridMs: []float64{1, 125},
		CompGridMs: []float64{-1, 25},
	}
}

// benchFigure runs one registered figure repeatedly and reports a metric
// extracted from its result.
func benchFigure(b *testing.B, id string, metric func(*core.FigureResult) (string, float64)) {
	b.Helper()
	fn, ok := core.Figures()[id]
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	s := benchScale()
	b.ReportAllocs()
	var last *core.FigureResult
	for i := 0; i < b.N; i++ {
		res, err := fn(s)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if metric != nil && last != nil {
		name, v := metric(last)
		b.ReportMetric(v, name)
	}
}

// lossAt returns series[label].Y at the given x index.
func lossAt(res *core.FigureResult, label string, idx int) float64 {
	for _, s := range res.Series {
		if s.Label == label {
			return s.Y[idx]
		}
	}
	return -1
}

func BenchmarkTable1Traces(b *testing.B) {
	benchFigure(b, "table1", func(r *core.FigureResult) (string, float64) {
		return "tickers", float64(len(r.Rows))
	})
}

func BenchmarkFig3Cooperation(b *testing.B) {
	benchFigure(b, "fig3", func(r *core.FigureResult) (string, float64) {
		// The U-shape headline: loss at the chain end for T=100.
		return "chain-loss-%", lossAt(r, "T=100", 0)
	})
}

func BenchmarkFig4MissedUpdates(b *testing.B) {
	benchFigure(b, "fig4", nil)
}

func BenchmarkFig5NoCoopComm(b *testing.B) {
	benchFigure(b, "fig5", func(r *core.FigureResult) (string, float64) {
		return "loss-at-125ms-%", lossAt(r, "T=100", 1)
	})
}

func BenchmarkFig6NoCoopComp(b *testing.B) {
	benchFigure(b, "fig6", func(r *core.FigureResult) (string, float64) {
		return "loss-at-25ms-%", lossAt(r, "T=100", 1)
	})
}

func BenchmarkFig7aControlled(b *testing.B) {
	benchFigure(b, "fig7a", func(r *core.FigureResult) (string, float64) {
		return "plateau-loss-%", lossAt(r, "T=100", len(r.Series[0].Y)-1)
	})
}

func BenchmarkFig7bControlledComm(b *testing.B) {
	benchFigure(b, "fig7b", nil)
}

func BenchmarkFig7cControlledComp(b *testing.B) {
	benchFigure(b, "fig7c", nil)
}

func BenchmarkFig8Filtering(b *testing.B) {
	benchFigure(b, "fig8", func(r *core.FigureResult) (string, float64) {
		// All-updates loss minus filtered loss at the largest fan-out.
		n := len(r.Series[0].Y) - 1
		return "allpush-penalty-%", lossAt(r, "All updates", n) - lossAt(r, "Filtered", n)
	})
}

func BenchmarkFig9PPercent(b *testing.B) {
	benchFigure(b, "fig9", nil)
}

func BenchmarkFig10Preference(b *testing.B) {
	benchFigure(b, "fig10", nil)
}

func BenchmarkFig11Protocols(b *testing.B) {
	benchFigure(b, "fig11", nil)
}

func BenchmarkScalability(b *testing.B) {
	benchFigure(b, "scale", nil)
}

func BenchmarkAblationTree(b *testing.B) {
	benchFigure(b, "ablation-tree", nil)
}

func BenchmarkAblationK(b *testing.B) {
	benchFigure(b, "ablation-k", nil)
}

func BenchmarkExtensionPull(b *testing.B) {
	benchFigure(b, "ext-pull", nil)
}

// BenchmarkSingleRun measures one base-case experiment end to end: the
// unit of work every sweep above multiplies.
func BenchmarkSingleRun(b *testing.B) {
	cfg := core.Default()
	cfg.Repositories, cfg.Routers = 20, 60
	cfg.Items, cfg.Ticks = 15, 400
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := core.RunExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(out.LossPercent, "loss-%")
			b.ReportMetric(float64(out.Stats.Messages), "msgs")
		}
	}
}
