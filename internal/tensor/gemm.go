package tensor

// Blocked, packed, register-tiled GEMM engine — the hot path under every
// workload in the suite (the dense layers of NCF and the Transformer, the
// heads of ResNet and detection, whose convolutions run the direct kernels
// in conv.go). It is one generic source
// over float64 and float32: the reference regime and the reduced-precision
// ones (dtype.go) run the same dispatch, the same loops and the same
// contract below, each in its own element type from the first product to
// the last sum (float32 accumulators under float32 operands), and differ
// only in the assembly micro-kernel and the register tile's height
// (microKernelAVX2, gemmMR). The two are not bit-equal to each other; that gap is
// what core.StatCheck gates statistically.
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
// (matMul*Rows) on finite inputs at every worker count and block size, in
// either element type; gemm_test.go asserts it across adversarial shapes.
// FMA is deliberately not used — fusing would change the rounding of every
// product.
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
// scalar kernels and the assembly kernels may select different source
// NaNs) — the bit-identity contract is for finite data.

import (
	"unsafe"

	"repro/internal/arena"
	"repro/internal/parallel"
)

// Register/cache blocking parameters. MR×NR is the register tile, and MR
// is the one parameter that depends on the element type (gemmMR): a
// micro-kernel row is one 32-byte YMM register's worth of A broadcasts, so
// float64 tiles are 4×8 (two registers a row, eight accumulators) and
// float32 tiles 8×8 (one register a row, the same eight accumulators,
// twice the elements per vector op). The cache blocks are counted in
// elements, so float32 halves their bytes: KC×NR B strips (16 KiB f64) and
// KC×MR A panels (8 KiB) stay L1-resident; MC×KC A blocks (128 KiB f64)
// target L2; KC×NC B panels (1 MiB f64) the LLC.
const (
	gemmNR    = 8
	gemmMaxMR = 8 // the float32 tile height, the larger of the two
	gemmMC    = 64
	gemmKC    = 256
	gemmNC    = 512
)

// gemmMR is the register tile's height for element type T: 4 rows of
// float64, 8 of float32, a YMM register's worth of bytes either way. It is
// written from T's size so that the compiler folds it to a constant in
// each instantiation: read from a field at run time it costs the pack-free
// path's tile loop 2-3 % on the products the models run.
func gemmMR[T arena.Elem]() int {
	var z T
	return int(32 / unsafe.Sizeof(z))
}

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
// elements (32 KiB of float64, the L1) runs the micro-kernel on the
// operands where they lie and packs nothing. Packing pays when a panel is
// reused from cache many times; here every panel would be read once or a
// few times from memory that is already in L1, so the copy is pure cost:
// operand packing was 19 % of the transformer step's CPU samples and a
// fifth of the NCF step. BENCH_gemm.json's small_shapes rows time the
// packed and the direct path on every product the models run (the largest
// holds 3744 elements), in both element types: direct is 1.5-5.3× faster
// on all of them (36×24×24 2.4×, NCF's 40×16×8 4×). It is still 1.4-1.9×
// ahead at 48×24×48 and 64×64×64, the rows on the far side, so the line is
// not where direct stops winning; it is where a product becomes worth the
// pool's 2-D tiling, which the direct run does not do. That is a count of
// work, not of bytes, so float32 shares the number. Like the first line it
// is a property of the input, and the bits are the same on either side.
const gemmDirectMaxElems = 4096

// gemmDirect reports whether a product the engine takes runs pack-free.
func gemmDirect(n, k, m, mr int) bool {
	return n%mr == 0 && m%gemmNR == 0 && n*k+k*m+n*m <= gemmDirectMaxElems
}

// gemmBlocked reports whether an n×k×m product belongs on the blocked
// engine with mr×NR micro-tiles. Narrow outputs (m < NR) stay on the naive
// kernels: every strip would pad to NR lanes and waste most of the
// micro-kernel. Short outputs (n < mr) do NOT opt out once past
// gemmMinWork — the edge tiles compute only the real rows, and ForTiles
// splits columns so even a 2-row product keeps the whole pool busy.
func gemmBlocked(n, k, m, mr int) bool {
	if k == 0 || m < gemmNR {
		return false
	}
	if n%mr == 0 && m%gemmNR == 0 {
		return n*k*m >= gemmMinAlignedWork
	}
	return n*k*m >= gemmMinWork
}

// gemmVariant selects how the logical A and B operands map onto the
// stored matrices: C[n,m] = A[n,k]·B[k,m] with A or B stored transposed.
type gemmVariant uint8

const (
	gemmNN gemmVariant = iota // a [n,k],  b [k,m]
	gemmTA                    // a [k,n]:  A = aᵀ
	gemmTB                    // b [m,k]:  B = bᵀ
)

// lds returns the leading dimensions of the stored a and b of an n×k×m
// product. Every operand is a dense row-major matrix, so the variant and
// the logical dims fix them (and c's is m).
func (v gemmVariant) lds(n, k, m int) (lda, ldb int) {
	switch v {
	case gemmTA:
		return n, m
	case gemmTB:
		return k, k
	}
	return k, m
}

// gemmPack and gemmPack32 pool the A/B pack buffers across calls and
// goroutines, so warm steady-state steps stage panels without touching the
// heap. With microKernelAVX2's two arms they are everything in the engine
// that is written per element type; the typed entry points (matmul.go)
// pass theirs in.
var (
	gemmPack   = arena.New()
	gemmPack32 = arena.New32()
)

// microKernelAVX2 runs T's assembly micro-kernel (gemm_amd64.s): it
// accumulates the MR×NR C tile at c (row stride ldc elements) over kc >= 1
// depth steps. Depth step p reads MR A values at a[p·aDepth + r·aRow] and
// NR contiguous B values at b[p·bDepth]; strides are in elements. The
// packed engine passes panels ([kc][MR] and [kc][NR]: aRow 1, aDepth MR,
// bDepth NR), the pack-free path the operands themselves. When first is
// true the accumulators start at zero, otherwise at the current C values.
//
// The switch is per tile on purpose. It costs a compare of two type words
// (a pointer boxes without allocating, which is also why this function
// goes without the hotpath mark: the analyzer cannot tell, and
// TestMatMulIntoAllocFree holds the claim), and each arm is a direct call
// the compiler marshals for the assembly's stack ABI itself. A kernel
// resolved once per product into a func value is reached through the
// linker's register-ABI wrapper instead, an extra call per tile that
// measured +1-4 % on every pack-free product the models run and +7 % on
// the NCF step over TCP.
func microKernelAVX2[T arena.Elem](c *T, ldc int, a *T, aRow, aDepth int, b *T, bDepth, kc int, first bool) {
	switch c := any(c).(type) {
	case *float64:
		microKernel4x8AVX2(c, ldc, any(a).(*float64), aRow, aDepth, any(b).(*float64), bDepth, kc, first)
	case *float32:
		microKernel8x8AVX2F32(c, ldc, any(a).(*float32), aRow, aDepth, any(b).(*float32), bDepth, kc, first)
	}
}

// gemmInto computes the dense row-major [n,m] product into c for the given
// variant, choosing between the naive reference kernels (tiny or
// degenerate shapes), the pack-free run of an L1-resident whole-tile
// product, a serial blocked run, and a 2-D tiled parallel blocked run. All
// four produce bit-identical results, so the dispatch — and the worker
// count — never changes the output bits.
func gemmInto[T arena.Elem](pack *arena.PoolOf[T], v gemmVariant, c, a, b []T, n, k, m int) {
	if n == 0 || m == 0 {
		return
	}
	mr := gemmMR[T]()
	if !gemmBlocked(n, k, m, mr) {
		gemmNaive(v, c, a, b, n, k, m)
		return
	}
	if gemmDirect(n, k, m, mr) {
		gemmDirectTiles(pack, v, c, a, b, n, k, m)
		return
	}
	if !parallel.Worth(float64(n * k * m)) {
		gemmTile(pack, v, c, a, b, n, k, m, 0, n, 0, m)
		return
	}
	parallel.ForTiles(n, m, float64(k), func(r0, r1, c0, c1 int) {
		gemmTile(pack, v, c, a, b, n, k, m, r0, r1, c0, c1)
	})
}

// gemmNaive runs the retained reference kernels, sharding rows over the
// pool only when the shape is worth forking for (the serial branch calls
// the kernel directly so hot small-shape callers allocate no closure).
func gemmNaive[T arena.Elem](v gemmVariant, c, a, b []T, n, k, m int) {
	if !parallel.Worth(float64(n * k * m)) {
		gemmNaiveRows(v, c, a, b, n, k, m, 0, n)
		return
	}
	parallel.ForCost(n, float64(k*m), func(lo, hi int) {
		gemmNaiveRows(v, c, a, b, n, k, m, lo, hi)
	})
}

//mlperfvet:hotpath
func gemmNaiveRows[T arena.Elem](v gemmVariant, c, a, b []T, n, k, m, lo, hi int) {
	switch v {
	case gemmNN:
		matMulRows(c, a, b, k, m, lo, hi)
	case gemmTA:
		matMulTransARows(c, a, b, k, n, m, lo, hi)
	default:
		matMulTransBRows(c, a, b, k, m, lo, hi)
	}
}

// gemmDirectTiles runs a whole-tile product (gemmDirect) with the
// micro-kernel reading its operands in place through element strides: the
// kernel's A operand is MR values per depth step, one per output row
// (stride aRow), and its B operand NR contiguous values per depth step
// (stride bDepth), which a row-major a, aᵀ and b all provide without a
// copy. Only bᵀ does not (a B row would be eight values a whole source
// row apart, and summing along the contiguous depth instead would
// reassociate the sum), so gemmTB packs B once for the whole product and
// still reads A in place. Every tile is one ascending run over the full
// depth from +0: the determinism contract above, with no panels at all.
//
//mlperfvet:hotpath
func gemmDirectTiles[T arena.Elem](pack *arena.PoolOf[T], v gemmVariant, c, a, b []T, n, k, m int) {
	mr := gemmMR[T]()
	lda, ldb := v.lds(n, k, m)
	// gemmNN: A[i,p] = a[i·lda+p], B[p,j] = b[p·ldb+j].
	aRow, aDepth, aTile := lda, 1, mr*lda
	bDepth, bStrip := ldb, gemmNR
	var bbuf []T
	switch v {
	case gemmTA: // A[i,p] = a[p·lda+i]
		aRow, aDepth, aTile = 1, lda, mr
	case gemmTB: // B[p,j] = b[j·ldb+p]
		bbuf = pack.GetRaw(k * m)
		packLanesT(bbuf, b, ldb, 0, k, 0, m, gemmNR)
		b, bDepth, bStrip = bbuf, gemmNR, gemmNR*k
	}
	for s := 0; s*gemmNR < m; s++ {
		bs := b[s*bStrip:]
		for t := 0; t*mr < n; t++ {
			co := t*mr*m + s*gemmNR
			if gemmUseAsm {
				microKernelAVX2(&c[co], m, &a[t*aTile], aRow, aDepth, &bs[0], bDepth, k, true)
			} else {
				microKernelGo(c, co, m, a[t*aTile:], aRow, aDepth, bs, bDepth, k, mr, gemmNR, true)
			}
		}
	}
	if bbuf != nil {
		pack.Put(bbuf)
	}
}

// gemmTile computes the output tile [r0, r1) × [c0, c1) of the blocked
// n×k×m product. Tiles are independent — each worker of a ForTiles loop
// owns one and draws its own pack buffers — and the depth (pc) loop runs
// in ascending order inside the tile, so any tiling yields the serial bits.
//
//mlperfvet:hotpath
func gemmTile[T arena.Elem](pack *arena.PoolOf[T], v gemmVariant, c, a, b []T, n, k, m, r0, r1, c0, c1 int) {
	if k == 0 {
		for i := r0; i < r1; i++ {
			clear(c[i*m+c0 : i*m+c1])
		}
		return
	}
	mr := gemmMR[T]()
	lda, ldb := v.lds(n, k, m)
	// Pack buffers sized to this tile's largest panels (rounded up to
	// whole micro-tiles), so small products draw small arena classes.
	kcMax := min(gemmKC, k)
	mcMax := (min(gemmMC, r1-r0) + mr - 1) / mr * mr
	ncMax := (min(gemmNC, c1-c0) + gemmNR - 1) / gemmNR * gemmNR
	abuf := pack.GetRaw(mcMax * kcMax)
	bbuf := pack.GetRaw(ncMax * kcMax)
	for jc := c0; jc < c1; jc += gemmNC {
		nc := min(gemmNC, c1-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			if v == gemmTB {
				packLanesT(bbuf, b, ldb, pc, kc, jc, nc, gemmNR)
			} else {
				packLanes(bbuf, b, ldb, pc, kc, jc, nc, gemmNR)
			}
			first := pc == 0
			for ic := r0; ic < r1; ic += gemmMC {
				mc := min(gemmMC, r1-ic)
				if v == gemmTA {
					packLanes(abuf, a, lda, pc, kc, ic, mc, mr)
				} else {
					packLanesT(abuf, a, lda, pc, kc, ic, mc, mr)
				}
				for s := 0; s*gemmNR < nc; s++ {
					cols := min(gemmNR, nc-s*gemmNR)
					bp := bbuf[s*gemmNR*kc:]
					for t := 0; t*mr < mc; t++ {
						rows := min(mr, mc-t*mr)
						ap := abuf[t*mr*kc:]
						co := (ic+t*mr)*m + jc + s*gemmNR
						if gemmUseAsm && rows == mr && cols == gemmNR {
							microKernelAVX2(&c[co], m, &ap[0], 1, mr, &bp[0], gemmNR, kc, first)
						} else {
							microKernelGo(c, co, m, ap, 1, mr, bp, gemmNR, kc, rows, cols, first)
						}
					}
				}
			}
		}
	}
	pack.Put(bbuf)
	pack.Put(abuf)
}

// The two pack routines stage a block of an operand into panels the
// micro-kernel streams: panel s holds w adjacent lanes (w = MR rows of A,
// or NR columns of B), laid out depth-major ([kc][w]) so each depth step
// reads its w operands from one unit-stride run. Lanes past n pad with
// zeros: the padded lanes compute into accumulators that are never stored,
// so padding cannot perturb real outputs. Which routine an operand takes
// depends only on whether its lanes or its depth run along its rows.

// packLanes packs lanes [j0, j0+n) × depth [p0, p0+kc) of a row-major
// [·, ld] source whose rows are depth steps: element (p, j) is
// src[p·ld + j]. That is B as stored (gemmNN, gemmTA) and A = aᵀ
// (gemmTA). Depth runs outermost so each source row is read once,
// contiguously.
//
//mlperfvet:hotpath
func packLanes[T arena.Elem](dst, src []T, ld, p0, kc, j0, n, w int) {
	for p := 0; p < kc; p++ {
		row := src[(p0+p)*ld+j0 : (p0+p)*ld+j0+n]
		for s := 0; s*w < n; s++ {
			base := (s*kc + p) * w
			d := dst[base : base+w : base+w]
			lanes := row[s*w : min(s*w+w, n)]
			for q, v := range lanes {
				d[q] = v
			}
			for q := len(lanes); q < w; q++ {
				d[q] = 0
			}
		}
	}
}

// packLanesT is packLanes for a source whose rows are lanes: element
// (p, j) is src[j·ld + p]. That is A as stored (gemmNN, gemmTB) and
// B = bᵀ (gemmTB). Lanes run outermost so, again, each source row is read
// once, contiguously.
//
//mlperfvet:hotpath
func packLanesT[T arena.Elem](dst, src []T, ld, p0, kc, j0, n, w int) {
	for s := 0; s*w < n; s++ {
		for q := 0; q < w; q++ {
			o := s*w*kc + q
			if s*w+q >= n {
				for p := 0; p < kc; p++ {
					dst[o] = 0
					o += w
				}
				continue
			}
			lane := src[(j0+s*w+q)*ld+p0 : (j0+s*w+q)*ld+p0+kc]
			for _, v := range lane {
				dst[o] = v
				o += w
			}
		}
	}
}

// microKernelGo is the portable micro-kernel, for both jobs the assembly
// kernels do not do: every tile where they are unavailable, and the
// partial tiles at a block's right and bottom edges everywhere. It
// accumulates the rows×cols corner of an MR×NR tile of C over kc depth
// steps, reading its operands through the same element strides as
// microKernelAVX2. A partial tile comes from packed panels (aRow 1,
// aDepth MR, bDepth NR), whose zero padding stands in for the columns
// past cols: those lanes accumulate zeros and are never stored, and the
// rows past rows are not computed at all. Each depth step adds exactly
// one mul-then-add term per element, in ascending depth order — the
// serial bits, and the same lane-wise IEEE operations the assembly
// kernels perform.
//
//mlperfvet:hotpath
func microKernelGo[T arena.Elem](cd []T, co, ldc int, a []T, aRow, aDepth int, b []T, bDepth, kc, rows, cols int, first bool) {
	var acc [gemmMaxMR * gemmNR]T
	if !first {
		for r := 0; r < rows; r++ {
			copy(acc[r*gemmNR:r*gemmNR+cols], cd[co+r*ldc:])
		}
	}
	ai, bi := 0, 0
	for p := 0; p < kc; p++ {
		br := b[bi : bi+gemmNR : bi+gemmNR]
		b0, b1, b2, b3, b4, b5, b6, b7 := br[0], br[1], br[2], br[3], br[4], br[5], br[6], br[7]
		for r, ar := 0, ai; r < rows; r, ar = r+1, ar+aRow {
			av := a[ar]
			row := acc[r*gemmNR : r*gemmNR+gemmNR : r*gemmNR+gemmNR]
			row[0] += av * b0
			row[1] += av * b1
			row[2] += av * b2
			row[3] += av * b3
			row[4] += av * b4
			row[5] += av * b5
			row[6] += av * b6
			row[7] += av * b7
		}
		ai += aDepth
		bi += bDepth
	}
	for r := 0; r < rows; r++ {
		copy(cd[co+r*ldc:co+r*ldc+cols], acc[r*gemmNR:])
	}
}
