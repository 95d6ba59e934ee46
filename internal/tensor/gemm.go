package tensor

// Blocked, packed, register-tiled GEMM engine — the hot path under every
// workload in the suite (NCF/Transformer dense layers directly; ResNet and
// detection via the im2col convolution route).
//
// The structure is the classic GotoBLAS / BLIS decomposition (Goto & van
// de Geijn, "Anatomy of High-Performance Matrix Multiplication"):
//
//	for jc over columns in NC blocks        (B panel → last-level cache)
//	  for pc over depth in KC panels        (ascending — see below)
//	    pack B[pc:pc+KC, jc:jc+NC] into NR-wide strips
//	    for ic over rows in MC blocks       (A block → L2)
//	      pack A[ic:ic+MC, pc:pc+KC] into MR-tall panels
//	      for each NR strip × MR panel: micro-kernel
//
// The micro-kernel holds an MR×NR tile of C in registers (YMM on amd64
// with AVX2, locals elsewhere) and streams the packed panels, so C traffic
// drops from one load+store per multiply (the naive kernels) to one
// load+store per KC depth steps, and operands arrive from cache-resident,
// unit-stride buffers. A whole-tile product that already sits in L1 skips
// the packing: the same micro-kernel reads the operands in place through
// element strides (gemmDirectTiles), one ascending run over the depth.
//
// Determinism contract. Every output element accumulates its k terms in
// strictly ascending order: the pc loop walks depth panels in order, the
// micro-kernel initializes its accumulators from C (zero for the first
// panel) and adds one a·b term per depth step, and vector lanes map to
// distinct output columns — a lane-wise mul-then-add is the same IEEE
// operation sequence as the scalar loop. The engine therefore produces
// bit-identical results to the retained naive reference kernels
// (MatMul*Rows) on finite inputs at every worker count and block size;
// gemm_test.go asserts it across adversarial shapes. FMA is deliberately
// not used — fusing would change the rounding of every product.
//
// Zero/NaN/Inf semantics. Unlike the pre-engine kernels, no term is ever
// skipped: a zero in one operand contributes an exact ±0·x term, so NaN
// and Inf from the other operand propagate per IEEE 754 (0·Inf = NaN),
// and results match the mathematical sum term for term. On finite inputs
// the old zero-skip produced the same bits (adding ±0 to a non-negative-
// zero partial sum is the identity, and a partial sum that starts at +0
// can never become −0), so this strictly extends — never changes — the
// finite-input behavior. On non-finite inputs the same elements become
// NaN/±Inf on every path, but NaN *payloads* are unspecified (IEEE 754
// leaves payload propagation to the implementation, and the compiled
// scalar kernels and the assembly kernel may select different source
// NaNs) — the bit-identity contract is for finite data.

import (
	"repro/internal/arena"
	"repro/internal/parallel"
)

// Register/cache blocking parameters. MR×NR is the register tile; the
// amd64 micro-kernel keeps the 4×8 C tile in eight YMM accumulators.
// KC×NR B strips (16 KiB) and KC×MR A panels (8 KiB) stay L1-resident;
// MC×KC A blocks (128 KiB) target L2; KC×NC B panels (1 MiB) the LLC.
const (
	gemmMR = 4
	gemmNR = 8
	gemmMC = 64
	gemmKC = 256
	gemmNC = 512
)

// The dispatch line between the blocked engine and the naive reference
// kernels (bit-identical either way), in products n·k·m. It is measured,
// not guessed: BENCH_gemm.json's small_shapes rows time both paths on the
// products the workloads run near it.
//
//   - A product whose output is whole micro-tiles (n a multiple of MR, m of
//     NR) runs every tile on the register-tiled kernel, and the engine wins
//     from gemmMinAlignedWork up: 8×8×8 by 1.5×, NCF's 40×16×8 by 2.5×.
//   - Any partial tile runs on the scalar edge kernel, which costs several
//     times the naive kernels per product on 1-wide strips (9×12×9 loses
//     15-30 %; 12×9×9ᵀ is at parity with an eighth of its work in the
//     edge strip), so such products stay naive until gemmMinWork, where
//     the full tiles carry them.
const (
	gemmMinAlignedWork = 1 << 9
	gemmMinWork        = 1 << 13
)

// gemmDirectMaxElems is the second dispatch line, inside the engine: a
// whole-tile product whose three operands together hold at most this many
// elements (32 KiB, the L1) runs the micro-kernel on the operands where
// they lie and packs nothing. Packing pays when a panel is reused from
// cache many times; here every panel would be read once or a few times
// from memory that is already in L1, so the copy is pure cost: operand
// packing was 19 % of the transformer step's CPU samples and a fifth of
// the NCF step. BENCH_gemm.json's small_shapes rows time the packed and
// the direct path on every product the models run (the largest holds
// 3744 elements): direct is 1.5-5.3× faster on all of them (36×24×24
// 2.4×, NCF's 40×16×8 4×). It is still 1.4-1.9× ahead at 48×24×48 and
// 64×64×64, the rows on the far side, so the line is not where direct
// stops winning; it is where a product becomes worth the pool's 2-D
// tiling, which the direct run does not do. Like the first line it is a
// property of the input, and the bits are the same on either side.
const gemmDirectMaxElems = 4096

// gemmDirect reports whether a product the engine takes runs pack-free.
func gemmDirect(n, k, m int) bool {
	return n%gemmMR == 0 && m%gemmNR == 0 && n*k+k*m+n*m <= gemmDirectMaxElems
}

// gemmBlocked reports whether an n×k×m product belongs on the blocked
// engine with mr×nr micro-tiles. Narrow outputs (m < nr) stay on the naive
// kernels: every strip would pad to nr lanes and waste most of the
// micro-kernel. Short outputs (n < mr) do NOT opt out once past
// gemmMinWork — the edge micro-kernel computes only the real rows, and
// ForTiles splits columns so even a 2-row product keeps the whole pool
// busy.
func gemmBlocked(n, k, m, mr, nr int) bool {
	if k == 0 || m < nr {
		return false
	}
	if n%mr == 0 && m%nr == 0 {
		return n*k*m >= gemmMinAlignedWork
	}
	return n*k*m >= gemmMinWork
}

// gemmVariant selects how the logical A and B operands map onto the
// stored tensors: C[n,m] = A[n,k]·B[k,m] with A or B stored transposed.
type gemmVariant uint8

const (
	gemmNN gemmVariant = iota // a [n,k],  b [k,m]
	gemmTA                    // a [k,n]:  A = aᵀ
	gemmTB                    // b [m,k]:  B = bᵀ
)

// gemmPack pools the A/B pack buffers across calls and goroutines, so
// warm steady-state steps stage panels without touching the heap.
var gemmPack = arena.New()

// gemmInto computes the [n,m] product into c for the given variant,
// choosing between the naive reference kernels (tiny or degenerate
// shapes), the pack-free run of an L1-resident whole-tile product, a
// serial blocked run, and a 2-D tiled parallel blocked run. All four
// produce bit-identical results, so the dispatch — and the worker count —
// never changes the output bits.
func gemmInto(v gemmVariant, c, a, b *Tensor, n, k, m int) {
	if n == 0 || m == 0 {
		return
	}
	if !gemmBlocked(n, k, m, gemmMR, gemmNR) {
		gemmNaive(v, c, a, b, n, k, m)
		return
	}
	if gemmDirect(n, k, m) {
		gemmDirectTiles(v, c, a, b, n, k, m)
		return
	}
	work := n * k * m
	if !parallel.Worth(float64(work)) {
		gemmTile(v, c, a, b, k, 0, n, 0, m)
		return
	}
	parallel.ForTiles(n, m, float64(k), func(r0, r1, c0, c1 int) {
		gemmTile(v, c, a, b, k, r0, r1, c0, c1)
	})
}

// gemmNaive runs the retained reference kernels, sharding rows over the
// pool only when the shape is worth forking for (the serial branch calls
// the kernel directly so hot small-shape callers allocate no closure).
func gemmNaive(v gemmVariant, c, a, b *Tensor, n, k, m int) {
	if !parallel.Worth(float64(n * k * m)) {
		gemmNaiveRows(v, c, a, b, 0, n)
		return
	}
	parallel.ForCost(n, float64(k*m), func(lo, hi int) {
		gemmNaiveRows(v, c, a, b, lo, hi)
	})
}

//mlperfvet:hotpath
func gemmNaiveRows(v gemmVariant, c, a, b *Tensor, lo, hi int) {
	switch v {
	case gemmNN:
		MatMulRows(c, a, b, lo, hi)
	case gemmTA:
		MatMulTransARows(c, a, b, lo, hi)
	default:
		MatMulTransBRows(c, a, b, lo, hi)
	}
}

// gemmDirectTiles runs a whole-tile product (gemmDirect) with the
// micro-kernel reading its operands in place through element strides: the
// kernel's A operand is four values per depth step, one per output row
// (stride aRow), and its B operand eight contiguous values per depth step
// (stride bDepth), which a row-major a, aᵀ and b all provide without a
// copy. Only bᵀ does not (a B row would be eight values a whole source
// row apart, and summing along the contiguous depth instead would
// reassociate the sum), so gemmTB packs B once for the whole product and
// still reads A in place. Every tile is one ascending run over the full
// depth from +0: the determinism contract above, with no panels at all.
//
//mlperfvet:hotpath
func gemmDirectTiles(v gemmVariant, c, a, b *Tensor, n, k, m int) {
	ad, bd := a.Data, b.Data
	lda, ldb := a.Shape[1], b.Shape[1]
	// gemmNN: A[i,p] = a[i·lda+p], B[p,j] = b[p·ldb+j].
	aRow, aDepth, aTile := lda, 1, gemmMR*lda
	bDepth, bStrip := ldb, gemmNR
	var bbuf []float64
	switch v {
	case gemmTA: // A[i,p] = a[p·lda+i]
		aRow, aDepth, aTile = 1, lda, gemmMR
	case gemmTB: // B[p,j] = b[j·ldb+p]
		bbuf = gemmPack.GetRaw(k * m)
		packBTrans(bbuf, bd, ldb, 0, k, 0, m)
		bd, bDepth, bStrip = bbuf, gemmNR, gemmNR*k
	}
	for s := 0; s*gemmNR < m; s++ {
		bs := bd[s*bStrip:]
		for t := 0; t*gemmMR < n; t++ {
			co := t*gemmMR*m + s*gemmNR
			if gemmUseAsm {
				microKernel4x8AVX2(&c.Data[co], m, &ad[t*aTile], aRow, aDepth, &bs[0], bDepth, k, true)
			} else {
				microKernel4x8(c.Data, co, m, ad[t*aTile:], aRow, aDepth, bs, bDepth, k, true)
			}
		}
	}
	if bbuf != nil {
		gemmPack.Put(bbuf)
	}
}

// gemmTile computes the output tile [r0, r1) × [c0, c1) of the blocked
// product. Tiles are independent — each worker of a ForTiles loop owns
// one and draws its own pack buffers — and the depth (pc) loop runs in
// ascending order inside the tile, so any tiling yields the serial bits.
//
//mlperfvet:hotpath
func gemmTile(v gemmVariant, c, a, b *Tensor, k, r0, r1, c0, c1 int) {
	ldc := c.Shape[1]
	if k == 0 {
		for i := r0; i < r1; i++ {
			row := c.Data[i*ldc+c0 : i*ldc+c1]
			for j := range row {
				row[j] = 0
			}
		}
		return
	}
	// Pack buffers sized to this tile's largest panels (rounded up to
	// whole micro-tiles), so small products draw small arena classes.
	kcMax := min(gemmKC, k)
	mcMax := (min(gemmMC, r1-r0) + gemmMR - 1) / gemmMR * gemmMR
	ncMax := (min(gemmNC, c1-c0) + gemmNR - 1) / gemmNR * gemmNR
	abuf := gemmPack.GetRaw(mcMax * kcMax)
	bbuf := gemmPack.GetRaw(ncMax * kcMax)
	for jc := c0; jc < c1; jc += gemmNC {
		nc := min(gemmNC, c1-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			if v == gemmTB {
				packBTrans(bbuf, b.Data, b.Shape[1], pc, kc, jc, nc)
			} else {
				packBNormal(bbuf, b.Data, b.Shape[1], pc, kc, jc, nc)
			}
			first := pc == 0
			for ic := r0; ic < r1; ic += gemmMC {
				mc := min(gemmMC, r1-ic)
				if v == gemmTA {
					packATrans(abuf, a.Data, a.Shape[1], ic, mc, pc, kc)
				} else {
					packANormal(abuf, a.Data, a.Shape[1], ic, mc, pc, kc)
				}
				for s := 0; s*gemmNR < nc; s++ {
					nr := min(gemmNR, nc-s*gemmNR)
					bp := bbuf[s*gemmNR*kc:]
					for t := 0; t*gemmMR < mc; t++ {
						mr := min(gemmMR, mc-t*gemmMR)
						ap := abuf[t*gemmMR*kc:]
						co := (ic+t*gemmMR)*ldc + jc + s*gemmNR
						if mr == gemmMR && nr == gemmNR {
							if gemmUseAsm {
								microKernel4x8AVX2(&c.Data[co], ldc, &ap[0], 1, gemmMR, &bp[0], gemmNR, kc, first)
							} else {
								microKernel4x8(c.Data, co, ldc, ap, 1, gemmMR, bp, gemmNR, kc, first)
							}
						} else {
							microKernelEdge(c.Data, co, ldc, ap, bp, kc, mr, nr, first)
						}
					}
				}
			}
		}
	}
	gemmPack.Put(bbuf)
	gemmPack.Put(abuf)
}

// packANormal stages rows [i0, i0+mc) × depth [p0, p0+kc) of a row-major
// [·, lda] A operand into MR-tall panels: panel t holds rows i0+t·MR …,
// laid out depth-major ([kc][MR]) so the micro-kernel reads MR operands
// per depth step from one unit-stride stream. Rows past mc pad with
// zeros: the padded lanes compute into accumulators that are never
// stored, so padding cannot perturb real outputs.
//
//mlperfvet:hotpath
func packANormal(dst, a []float64, lda, i0, mc, p0, kc int) {
	for t := 0; t*gemmMR < mc; t++ {
		rows := min(gemmMR, mc-t*gemmMR)
		base := t * gemmMR * kc
		r0 := (i0 + t*gemmMR) * lda
		for p := 0; p < kc; p++ {
			d := dst[base+p*gemmMR : base+p*gemmMR+gemmMR : base+p*gemmMR+gemmMR]
			src := r0 + p0 + p
			for r := 0; r < rows; r++ {
				d[r] = a[src+r*lda]
			}
			for r := rows; r < gemmMR; r++ {
				d[r] = 0
			}
		}
	}
}

// packATrans is packANormal for A = aᵀ with a stored [k, n] (lda = n):
// logical A[i, p] = a[p·lda + i], so each depth step reads MR contiguous
// elements of a row of a.
//
//mlperfvet:hotpath
func packATrans(dst, a []float64, lda, i0, mc, p0, kc int) {
	for t := 0; t*gemmMR < mc; t++ {
		rows := min(gemmMR, mc-t*gemmMR)
		base := t * gemmMR * kc
		c0 := i0 + t*gemmMR
		for p := 0; p < kc; p++ {
			d := dst[base+p*gemmMR : base+p*gemmMR+gemmMR : base+p*gemmMR+gemmMR]
			src := a[(p0+p)*lda+c0 : (p0+p)*lda+c0+rows]
			for r, v := range src {
				d[r] = v
			}
			for r := rows; r < gemmMR; r++ {
				d[r] = 0
			}
		}
	}
}

// packBNormal stages depth [p0, p0+kc) × columns [j0, j0+nc) of a
// row-major [·, ldb] B operand into NR-wide strips, depth-major
// ([kc][NR]), zero-padding columns past nc.
//
//mlperfvet:hotpath
func packBNormal(dst, b []float64, ldb, p0, kc, j0, nc int) {
	for s := 0; s*gemmNR < nc; s++ {
		w := min(gemmNR, nc-s*gemmNR)
		base := s * gemmNR * kc
		c0 := j0 + s*gemmNR
		for p := 0; p < kc; p++ {
			d := dst[base+p*gemmNR : base+p*gemmNR+gemmNR : base+p*gemmNR+gemmNR]
			src := b[(p0+p)*ldb+c0 : (p0+p)*ldb+c0+w]
			for q, v := range src {
				d[q] = v
			}
			for q := w; q < gemmNR; q++ {
				d[q] = 0
			}
		}
	}
}

// packBTrans is packBNormal for B = bᵀ with b stored [m, k] (ldb = k):
// logical B[p, j] = b[j·ldb + p]. Columns iterate outermost so each
// source row of b is read once, contiguously.
//
//mlperfvet:hotpath
func packBTrans(dst, b []float64, ldb, p0, kc, j0, nc int) {
	for s := 0; s*gemmNR < nc; s++ {
		w := min(gemmNR, nc-s*gemmNR)
		base := s * gemmNR * kc
		for q := 0; q < gemmNR; q++ {
			if q >= w {
				for p := 0; p < kc; p++ {
					dst[base+p*gemmNR+q] = 0
				}
				continue
			}
			src := b[(j0+s*gemmNR+q)*ldb+p0 : (j0+s*gemmNR+q)*ldb+p0+kc]
			for p, v := range src {
				dst[base+p*gemmNR+q] = v
			}
		}
	}
}

// microKernel4x8 is the portable register-tiled micro-kernel: a full
// MR×NR = 4×8 tile of C accumulated over kc depth steps. Depth step p
// reads the tile's four A values at a[p·aDepth + r·aRow] and its eight B
// values at b[p·bDepth : +8], so the one kernel serves packed panels
// (aRow 1, aDepth MR, bDepth NR) and operands read where they lie
// (gemmDirectTiles). The 32 accumulators live in locals; each depth step
// adds exactly one mul-then-add term per element, in ascending depth
// order — the serial bits. The amd64 build replaces it with the AVX2
// assembly kernel (gemm_amd64.s), which takes the same strides and
// performs the same lane-wise IEEE operations.
//
//mlperfvet:hotpath
func microKernel4x8(cd []float64, co, ldc int, a []float64, aRow, aDepth int, b []float64, bDepth, kc int, first bool) {
	var c00, c01, c02, c03, c04, c05, c06, c07 float64
	var c10, c11, c12, c13, c14, c15, c16, c17 float64
	var c20, c21, c22, c23, c24, c25, c26, c27 float64
	var c30, c31, c32, c33, c34, c35, c36, c37 float64
	if !first {
		r := cd[co : co+gemmNR : co+gemmNR]
		c00, c01, c02, c03, c04, c05, c06, c07 = r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
		r = cd[co+ldc : co+ldc+gemmNR : co+ldc+gemmNR]
		c10, c11, c12, c13, c14, c15, c16, c17 = r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
		r = cd[co+2*ldc : co+2*ldc+gemmNR : co+2*ldc+gemmNR]
		c20, c21, c22, c23, c24, c25, c26, c27 = r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
		r = cd[co+3*ldc : co+3*ldc+gemmNR : co+3*ldc+gemmNR]
		c30, c31, c32, c33, c34, c35, c36, c37 = r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
	}
	ai, bi := 0, 0
	for p := 0; p < kc; p++ {
		br := b[bi : bi+gemmNR : bi+gemmNR]
		b0, b1, b2, b3, b4, b5, b6, b7 := br[0], br[1], br[2], br[3], br[4], br[5], br[6], br[7]
		av := a[ai]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		c04 += av * b4
		c05 += av * b5
		c06 += av * b6
		c07 += av * b7
		av = a[ai+aRow]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		c14 += av * b4
		c15 += av * b5
		c16 += av * b6
		c17 += av * b7
		av = a[ai+2*aRow]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		c24 += av * b4
		c25 += av * b5
		c26 += av * b6
		c27 += av * b7
		av = a[ai+3*aRow]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
		c34 += av * b4
		c35 += av * b5
		c36 += av * b6
		c37 += av * b7
		ai += aDepth
		bi += bDepth
	}
	r := cd[co : co+gemmNR : co+gemmNR]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = c00, c01, c02, c03, c04, c05, c06, c07
	r = cd[co+ldc : co+ldc+gemmNR : co+ldc+gemmNR]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = c10, c11, c12, c13, c14, c15, c16, c17
	r = cd[co+2*ldc : co+2*ldc+gemmNR : co+2*ldc+gemmNR]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = c20, c21, c22, c23, c24, c25, c26, c27
	r = cd[co+3*ldc : co+3*ldc+gemmNR : co+3*ldc+gemmNR]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = c30, c31, c32, c33, c34, c35, c36, c37
}

// microKernelEdge handles partial tiles at the right/bottom block edges:
// it computes the full padded MR×NR tile (padded lanes accumulate zeros)
// but loads and stores only the real mr×nr elements. Same ascending-depth
// accumulation, so edge tiles match the serial bits too.
//
//mlperfvet:hotpath
func microKernelEdge(cd []float64, co, ldc int, ap, bp []float64, kc, mr, nr int, first bool) {
	var acc [gemmMR * gemmNR]float64
	if !first {
		for r := 0; r < mr; r++ {
			row := cd[co+r*ldc : co+r*ldc+nr]
			for q, v := range row {
				acc[r*gemmNR+q] = v
			}
		}
	}
	for p := 0; p < kc; p++ {
		a := ap[p*gemmMR : p*gemmMR+gemmMR : p*gemmMR+gemmMR]
		b := bp[p*gemmNR : p*gemmNR+gemmNR : p*gemmNR+gemmNR]
		for r := 0; r < mr; r++ {
			av := a[r]
			row := acc[r*gemmNR : r*gemmNR+gemmNR : r*gemmNR+gemmNR]
			row[0] += av * b[0]
			row[1] += av * b[1]
			row[2] += av * b[2]
			row[3] += av * b[3]
			row[4] += av * b[4]
			row[5] += av * b[5]
			row[6] += av * b[6]
			row[7] += av * b[7]
		}
	}
	for r := 0; r < mr; r++ {
		row := cd[co+r*ldc : co+r*ldc+nr]
		for q := range row {
			row[q] = acc[r*gemmNR+q]
		}
	}
}
