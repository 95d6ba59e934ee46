package tensor

import (
	"fmt"
	"testing"

	"repro/internal/arena"
	"repro/internal/parallel"
)

// Small-shape GEMM rows (BENCH_gemm.json "small_shapes"): the products the
// workloads really run below or near the dispatch lines, each through the
// packed engine (gemmTile, forced), the naive reference kernels and, where
// the output is whole micro-tiles, the pack-free run (gemmDirectTiles,
// forced), so the lines gemmInto draws between them are measurements. They
// live here and not in the root package's bench_gemm_test.go because
// forcing a path needs the unexported kernels.
var gemmSmallShapes = []struct {
	name    string
	v       gemmVariant
	n, k, m int
}{
	// Transformer (d 24, ff 48; 32 source and 36 target rows a microbatch):
	// the projections and the feed-forward pair, forward, dX and dW.
	{"tfm_proj_fwd", gemmNN, 36, 24, 24},
	{"tfm_proj_dx", gemmTB, 36, 24, 24},
	{"tfm_proj_dw", gemmTA, 24, 36, 24},
	{"tfm_ff1_fwd", gemmNN, 32, 24, 48},
	{"tfm_ff1_dx", gemmTB, 32, 48, 24},
	{"tfm_ff1_dw", gemmTA, 24, 32, 48},
	{"tfm_ff2_fwd", gemmNN, 36, 48, 24},
	{"tfm_ff2_dx", gemmTB, 36, 24, 48},
	{"tfm_ff2_dw", gemmTA, 48, 36, 24},
	// NCF step, one microshard of 40 rows through the 16→16→8 MLP.
	{"ncf_mlp2_fwd", gemmNN, 40, 16, 8},
	{"ncf_mlp2_dx", gemmTB, 40, 8, 16},
	{"ncf_mlp2_dw", gemmTA, 16, 40, 8},
	{"ncf_mlp1_fwd", gemmNN, 40, 16, 16},
	// ResNet's classifier, batch 32 over 12 features to 8 classes.
	{"resnet_fc_fwd", gemmNN, 32, 12, 8},
	{"resnet_fc_dx", gemmTB, 32, 8, 12},
	{"resnet_fc_dw", gemmTA, 12, 32, 8},
	// NCF inference at serving batch 1 and 8.
	{"serve_b1_mlp1", gemmNN, 1, 16, 16},
	{"serve_b8_mlp1", gemmNN, 8, 16, 16},
	{"serve_b8_mlp2", gemmNN, 8, 16, 8},
	{"serve_b100_mlp1", gemmNN, 100, 16, 16},
	// Either side of gemmDirectMaxElems (4096 operand elements; the largest
	// model product holds 3744): 4032, then 4608, 5760, 6912 and 12288.
	{"line_40x24x48", gemmNN, 40, 24, 48},
	{"line_48x24x48", gemmNN, 48, 24, 48},
	{"line_64x24x48", gemmNN, 64, 24, 48},
	{"line_48x48x48", gemmNN, 48, 48, 48},
	{"line_48x48x48_ta", gemmTA, 48, 48, 48},
	{"line_48x48x48_tb", gemmTB, 48, 48, 48},
	{"line_64x64x64", gemmNN, 64, 64, 64},
	// Tile-aligned and edge-strip-heavy probes.
	{"probe_4x4x8", gemmNN, 4, 4, 8},
	{"probe_8x2x8", gemmNN, 8, 2, 8},
	{"probe_8x4x8", gemmNN, 8, 4, 8},
	{"probe_4x16x8", gemmNN, 4, 16, 8},
	{"probe_8x8x8", gemmNN, 8, 8, 8},
	{"probe_8x8x8_ta", gemmTA, 8, 8, 8},
	{"probe_8x8x8_tb", gemmTB, 8, 8, 8},
	{"probe_16x8x8", gemmNN, 16, 8, 8},
	{"probe_9x12x9", gemmNN, 9, 12, 9},
	{"probe_12x9x9_ta", gemmTA, 12, 9, 9},
}

func BenchmarkGEMMSmall(b *testing.B) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)
	for _, sh := range gemmSmallShapes {
		name := fmt.Sprintf("%s_%dx%dx%d", sh.name, sh.n, sh.k, sh.m)
		benchGEMMSmallPaths[float64](b, name+"/f64", sh.v, sh.n, sh.k, sh.m)
		benchGEMMSmallPaths[float32](b, name+"/f32", sh.v, sh.n, sh.k, sh.m)
	}
}

// benchGEMMSmallPaths times one product in element type T down every path
// that can run it.
func benchGEMMSmallPaths[T arena.Elem](b *testing.B, name string, v gemmVariant, n, k, m int) {
	pack := packOf[T]()
	x, y := operands[T](NewRNG(1), n, k, m)
	c := make([]T, n*m)
	type path struct {
		name string
		run  func()
	}
	paths := []path{
		{"blocked", func() { gemmTile(pack, v, c, x, y, n, k, m, 0, n, 0, m) }},
		{"naive", func() { gemmNaiveRows(v, c, x, y, n, k, m, 0, n) }},
		{"dispatch", func() { gemmInto(pack, v, c, x, y, n, k, m) }},
	}
	if n%gemmMR[T]() == 0 && m%gemmNR == 0 {
		paths = append(paths, path{"direct", func() { gemmDirectTiles(pack, v, c, x, y, n, k, m) }})
	}
	for _, path := range paths {
		b.Run(name+"/"+path.name, func(b *testing.B) {
			path.run() // warm the pack-buffer pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path.run()
			}
		})
	}
}
