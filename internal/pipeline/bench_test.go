package pipeline_test

import (
	"testing"

	"pstlbench/internal/core"
	"pstlbench/internal/native"
	"pstlbench/internal/pipeline"
)

// BenchmarkFusedVsStaged measures the headline claim of the fusion work:
// chains of a source plus two element-wise maps at a bandwidth-bound size,
// run as separate core passes with materialized intermediates vs one fused
// chunk-granular pass. Three shapes: a slice-source chain reduced with a
// user op, the same chain summed (inlined +, no op callback), and a
// generate-source chain whose staged form also pays the materialization
// pass. The sum0 rows are the zero-stage baseline: core.Sum and
// pipeline.Sum over a bare From source run the same fold, so they must
// time the same. Picked up by the CI bench-smoke step (-bench=.
// -benchtime=1x).
func BenchmarkFusedVsStaged(b *testing.B) {
	const n = 1 << 22 // 32 MiB of float64: past LLC on typical hosts
	pool := native.New(0, native.StrategyStealing)
	defer pool.Close()
	p := core.Par(pool)
	src := make([]float64, n)
	for i := range src {
		src[i] = float64(i % 4096)
	}
	gen := func(i int) float64 { return float64((uint64(i+1) * 6364136223846793005) >> 40) }
	f := func(v float64) float64 { return v*3 + 1 }
	g := func(v float64) float64 { return v * 0.5 }
	add := func(a, b float64) float64 { return a + b }

	b.Run("reduce/staged", func(b *testing.B) {
		tmp := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Transform(p, tmp, src, f)
			core.Transform(p, tmp, tmp, g)
			_ = core.Reduce(p, tmp, 0, add)
		}
	})
	b.Run("reduce/fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pipeline.From(src).Transform(f).Transform(g).Reduce(p, 0, add)
		}
	})
	b.Run("sum/staged", func(b *testing.B) {
		tmp := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Transform(p, tmp, src, f)
			core.Transform(p, tmp, tmp, g)
			_ = core.Sum(p, tmp, 0)
		}
	})
	b.Run("sum/fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pipeline.Sum(p, pipeline.From(src).Transform(f).Transform(g), 0)
		}
	})
	b.Run("sum0/core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.Sum(p, src, 0)
		}
	})
	b.Run("sum0/pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pipeline.Sum(p, pipeline.From(src), 0)
		}
	})
	b.Run("gen/staged", func(b *testing.B) {
		tmp := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Generate(p, tmp, gen)
			core.Transform(p, tmp, tmp, f)
			core.Transform(p, tmp, tmp, g)
			_ = core.Sum(p, tmp, 0)
		}
	})
	b.Run("gen/fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pipeline.Sum(p, pipeline.Generate(n, gen).Transform(f).Transform(g), 0)
		}
	})
}
