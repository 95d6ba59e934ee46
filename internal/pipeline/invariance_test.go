package pipeline_test

import (
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/arena"
	"repro/internal/autograd"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The invariance matrix is the engine's determinism contract enumerated
// rather than sampled. A class is a benchmark at one seed, global batch,
// microbatch count M and regime; every cell of a class trains the same
// bits whatever its K × S shape, mesh (the engine's own fabric;
// one engine per rank over a LocalFabric, as grid.Reference runs a grid;
// or one per rank over DialTCPMesh on loopback), kernel pool size, and
// whether it ran straight through or was checkpointed to ckpt files at
// step `at` and resumed in a fresh launch of the same S, at its own K or
// at the row's next K (a checkpoint is a training position, not a grid
// shape). Every engine
// is core.NewEngine's. Each cell's fingerprint is checked against its
// class's reference cell (K = S = 1 on the engine's own fabric, one kernel
// worker, uninterrupted), which TestDPMatchesPlainSerialLoop anchors
// outside the engine.
//
// -short runs a diagonal, cell i taking value i mod n of every n-valued
// axis, in which every axis value appears at least once
// (TestInvarianceDiagonal); the full run sweeps every combination that
// means something: the shard meshes vary only where there is a second
// rank, before or after a resume.

// row is a benchmark at one seed, global batch and microbatch count, in
// each of its regimes (one class each), over the shapes its K and S
// values cross.
type row struct {
	id        string
	seed      uint64
	batch, m  int
	ks, ss    []int
	steps, at int // steps per cell; the step a resumed cell is checkpointed at
	regimes   []tensor.DType
}

var (
	one = []int{1}
	f64 = []tensor.DType{tensor.Float64}
)

var matrix = []row{
	{"recommendation", 7, 64, 8, []int{1, 2, 4, 8}, one, 12, 6, f64},
	// Ragged: 6 microbatches do not divide 50, and the epoch's last batch
	// (1152 = 23·50 + 2) leaves four empty; resumed at the epoch's end.
	{"recommendation", 13, 50, 6, []int{1, 2, 3, 6}, one, 26, 24, f64},
	// bf16 grows its loss scale before the resume point (train primes it).
	{"recommendation", 11, 64, 4, []int{1, 2, 4}, one, 14, 7, []tensor.DType{tensor.Float64, tensor.Float32, tensor.BFloat16}},
	// The serial run, K = S = M = 1.
	{"recommendation", 11, 64, 1, one, one, 14, 7, []tensor.DType{tensor.Float64, tensor.BFloat16}},
	{"object_detection_ssd", 7, 16, 2, []int{1, 2}, one, 3, 2, f64},
	{"instance_segmentation_maskrcnn", 7, 8, 2, []int{1, 2}, one, 3, 2, f64},
	// Resumed through the Adam state GNMT's clipped optimizer forwards.
	{"translation_gnmt", 7, 16, 2, []int{1, 2}, one, 3, 2, f64},
	{"image_classification", 7, 32, 8, []int{1, 2, 4}, []int{1, 2, 4}, 3, 2, f64},
	// Ragged pipeline: 16 microbatches do not divide 63, the epoch's last
	// batch (320 = 5·63 + 5) leaves eleven empty, step 7 opens the next
	// epoch, and the resume is at the epoch's end.
	{"image_classification", 11, 63, 16, []int{2}, []int{2}, 7, 6, f64},
	// S = 3, 8 and 12 cut inside blocks (12 is one sublayer per stage, the
	// default model's deepest).
	{"translation_transformer", 5, 16, 4, []int{1, 2}, []int{1, 2, 3, 4, 8, 12}, 2, 1, f64},
	{"translation_transformer", 5, 16, 4, []int{1, 2}, []int{2}, 2, 1, []tensor.DType{tensor.Float32}},
}

type class struct {
	row
	num precision.Numerics
}

func (c class) String() string {
	return fmt.Sprintf("%s_seed%d_b%d_m%d_%dsteps_%s", c.id, c.seed, c.batch, c.m, c.steps, core.NumericsTag(c.num))
}

type cell struct {
	k, s   int
	mesh   string // "own", "local" or "tcp"
	pool   int
	resume int // the K it resumes at from its step-`at` checkpoint; 0 runs straight through
}

func (x cell) String() string {
	r := "false"
	if x.resume > 0 {
		r = fmt.Sprintf("K%d", x.resume)
	}
	return fmt.Sprintf("K%dxS%d_%s_pool%d_resume=%s", x.k, x.s, x.mesh, x.pool, r)
}

var (
	meshForms = []string{"own", "local", "tcp"}
	pools     = []int{1, 2}
	refCell   = cell{1, 1, "own", 1, 0}
)

// cells lists r's cells, the reference first: under short the diagonal,
// otherwise the full product. The resume axis runs straight through,
// resumes at the cell's K, or resumes at the row's next K. A cell with
// one rank before and after a resume has no shard mesh, so that axis
// collapses there.
func cells(r row, short bool) []cell {
	dims := []int{len(r.ks), len(r.ss), len(meshForms), len(pools), 3}
	n := 1
	for _, d := range dims {
		if short {
			n = max(n, d)
		} else {
			n *= d
		}
	}
	out := []cell{refCell}
	for i := range n {
		var at [5]int
		for j, q := 0, i; j < len(dims); j, q = j+1, q/dims[j] {
			if at[j] = q % dims[j]; short {
				at[j] = i % dims[j]
			}
		}
		x := cell{r.ks[at[0]], r.ss[at[1]], meshForms[at[2]], pools[at[3]], 0}
		switch at[4] {
		case 1:
			x.resume = x.k
		case 2:
			x.resume = r.ks[(at[0]+1)%len(r.ks)]
		}
		if max(x.k, x.resume)*x.s == 1 {
			x.mesh = "own"
		}
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}

// fingerprint is what a cell trained: its parameters folded in name order
// over the union of its shards (Params is in stage-concatenation order at
// S > 1), the bits of each step's global loss where one process computes
// it, the final Evaluate where one process holds a whole replica, and the
// mixed regime's loss-scale position.
type fingerprint struct {
	params       string
	losses, eval []uint64
	mp           precision.MPState
}

func (want fingerprint) check(t *testing.T, got fingerprint) {
	t.Helper()
	switch {
	case got.params != want.params:
		t.Fatalf("parameter digest %s, reference %s", got.params, want.params)
	case got.losses != nil && !slices.Equal(got.losses, want.losses):
		t.Fatalf("loss bits %x, reference %x", got.losses, want.losses)
	case got.eval != nil && !slices.Equal(got.eval, want.eval):
		t.Fatalf("eval bits %x, reference %x", got.eval, want.eval)
	case got.mp != want.mp:
		t.Fatalf("loss-scale state %+v, reference %+v", got.mp, want.mp)
	}
}

// bnEvalDrifts is the one exclusion: BatchNorm running statistics are not
// training state (core.NewEngine's caveat). Each replica updates them from
// its own microbatches and a resume starts them afresh, so ResNet's and
// SSD's scored quality is not yet invariant at K > 1 or across a resume.
func bnEvalDrifts(c class, x cell) bool {
	return (c.id == "image_classification" || c.id == "object_detection_ssd") && (x.k > 1 || x.resume > 0)
}

// launch builds cell x's engines: one on its own fabric, or one per rank
// of a fresh shard mesh, all closed with the test. eval is the quality
// metric of rank 0 where it holds a whole replica, else nil.
func launch(t *testing.T, c class, x cell) (engs []*pipeline.Engine, eval func() float64) {
	t.Helper()
	meshes := []transport.Mesh{nil}
	if x.mesh != "own" {
		meshes = make([]transport.Mesh, x.k*x.s)
	}
	t.Cleanup(func() {
		for _, m := range meshes {
			if m != nil {
				m.Close()
			}
		}
	})
	switch x.mesh {
	case "local":
		fab := transport.NewLocalFabric(len(meshes), arena.New())
		for r := range meshes {
			meshes[r] = fab.Endpoint(r)
		}
	case "tcp":
		loopback(t, meshes)
	}
	for r, m := range meshes {
		cfg := shape(x.k, x.s, c.m, c.batch, c.seed)
		cfg.Mesh, cfg.Rank, cfg.Numerics = m, r, c.num
		eng, ev, err := core.NewEngine(core.V05, c.id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		engs = append(engs, eng)
		if r == 0 && (m == nil || x.s == 1) {
			eval = ev
		}
	}
	return engs, eval
}

// loopback dials a TCP mesh of len(meshes) ranks inside this process into
// meshes.
func loopback(t *testing.T, meshes []transport.Mesh) {
	t.Helper()
	lns := make([]net.Listener, len(meshes))
	addrs := make([]string, len(meshes))
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	var wg sync.WaitGroup
	for r := range meshes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m, err := transport.DialTCPMesh(transport.TCPConfig{Rank: r, Addrs: addrs, Listener: lns[r]}); err != nil {
				t.Errorf("rank %d: %v", r, err)
			} else {
				meshes[r] = m
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// stepAll steps every engine once, shards at once (they rendezvous inside
// the step), and appends the global loss where one engine computes it.
func stepAll(t *testing.T, engs []*pipeline.Engine, losses []uint64) []uint64 {
	t.Helper()
	var wg sync.WaitGroup
	for _, e := range engs[1:] {
		wg.Add(1)
		go func() { defer wg.Done(); e.StepNext() }()
	}
	loss := engs[0].StepNext()
	wg.Wait()
	for _, e := range engs {
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if len(engs) > 1 {
		return nil
	}
	if !engs[0].InSync() {
		t.Fatalf("replicas out of sync after step %d", engs[0].Steps())
	}
	return append(losses, math.Float64bits(loss))
}

// resume writes every rank's state at step c.at through ckpt files and
// restores them into a fresh launch of the cell at K = x.resume, which
// must come back at the state's step and epoch counters. Rank r of the
// launch reads the file of rank r mod K·S: rank k·S + s hosts stage s,
// and every replica of a stage holds the same state. The cells step with StepNext,
// which leaves the harness's epoch counter (TrainEpoch's) at 0, so the
// written state counts one epoch: a restore that drops the counter is
// seen.
func resume(t *testing.T, c class, x cell, engs []*pipeline.Engine) ([]*pipeline.Engine, func() float64) {
	t.Helper()
	dir := t.TempDir()
	w, err := ckpt.NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const epoch = 1
	for r, e := range engs {
		st := e.CaptureTrainState()
		if c.num.Mixed() && st.MP.Growths == 0 {
			t.Fatalf("the loss scale has not grown by step %d", c.at)
		}
		st.Epoch = epoch
		if _, _, err := w.Write(st, r); err != nil {
			t.Fatal(err)
		}
		e.Close()
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	y := x
	y.k = x.resume
	next, eval := launch(t, c, y)
	for r, e := range next {
		st, err := ckpt.LoadAt(dir, c.at, r%len(engs))
		if err == nil {
			err = e.RestoreTrainState(st)
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Steps() != c.at || e.Epoch() != epoch || !e.InSync() {
			t.Fatalf("rank %d restored at step/epoch %d/%d (in sync %v), want %d/%d", r, e.Steps(), e.Epoch(), e.InSync(), c.at, epoch)
		}
	}
	return next, eval
}

// train runs cell x of class c and returns its fingerprint, with the
// Evaluate bits only if score.
func train(t *testing.T, c class, x cell, score bool) (fp fingerprint) {
	t.Helper()
	parallel.SetWorkers(x.pool)
	engs, eval := launch(t, c, x)
	for _, e := range engs {
		// The recipe doubles the loss scale after 200 good steps, so it
		// grows before the resume point: a resume that drops it ends
		// elsewhere.
		if c.num.Mixed() {
			st := e.CaptureTrainState()
			st.MP.Good = 197
			if err := e.RestoreTrainState(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range c.steps {
		if x.resume > 0 && i == c.at {
			engs, eval = resume(t, c, x, engs)
		}
		fp.losses = stepAll(t, engs, fp.losses)
	}
	if len(fp.losses) < c.steps { // the steps before the resume ran on several ranks
		fp.losses = nil
	}

	fp.params = nameDigest(t, engs...)
	if score && eval != nil && !bnEvalDrifts(c, x) {
		fp.eval = []uint64{math.Float64bits(eval())}
	}
	if c.num.Mixed() {
		fp.mp = *engs[0].CaptureTrainState().MP
	}
	return fp
}

// nameDigest folds the engines' parameters in name order, once per name:
// Params is in stage-concatenation order at S > 1, and the replicas of a
// stage on other ranks must hold the same bits.
func nameDigest(t *testing.T, engs ...*pipeline.Engine) string {
	t.Helper()
	var ps []*autograd.Param
	for _, e := range engs {
		ps = append(ps, e.Params()...)
	}
	slices.SortStableFunc(ps, func(a, b *autograd.Param) int { return strings.Compare(a.Name, b.Name) })
	ps = slices.CompactFunc(ps, func(a, b *autograd.Param) bool {
		if a.Name == b.Name && !autograd.ParamsEqual([]*autograd.Param{a}, []*autograd.Param{b}) {
			t.Fatalf("the replicas of %s differ across ranks", a.Name)
		}
		return a.Name == b.Name
	})
	d := grid.NewDigest()
	d.Add(ps)
	return d.Sum()
}

// refs caches each class's reference fingerprint across the tests.
var refs = map[string]fingerprint{}

func reference(t *testing.T, c class) fingerprint {
	t.Helper()
	fp, ok := refs[c.String()]
	if !ok {
		fp = train(t, c, refCell, true)
		refs[c.String()] = fp
	}
	return fp
}

// sweep checks, in every class, each non-reference cell keep selects
// against the class reference. A class whose reference scores 0 (Mask
// R-CNN's AP and the translators' BLEU this early) has no eval bits worth
// comparing, and its cells skip the Evaluate.
func sweep(t *testing.T, keep func(class, cell) bool) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, r := range matrix {
		for _, d := range r.regimes {
			c := class{r, precision.Numerics{Compute: d}}
			for _, x := range cells(r, testing.Short())[1:] {
				if keep(c, x) {
					t.Run(c.String()+"/"+x.String(), func(t *testing.T) {
						want := reference(t, c)
						want.check(t, train(t, c, x, math.Float64frombits(want.eval[0]) != 0))
					})
				}
			}
		}
	}
}

func TestInvariance(t *testing.T) {
	sweep(t, func(c class, x cell) bool { return c.num == precision.Numerics{} && x.resume == 0 })
}

// TestInvarianceNumerics also requires each reduced regime to train other
// bits than float64 does in the same class otherwise: it is engaged.
func TestInvarianceNumerics(t *testing.T) {
	sweep(t, func(c class, x cell) bool { return c.num != precision.Numerics{} && x.resume == 0 })
	defer parallel.SetWorkers(parallel.Workers())
	for _, r := range matrix {
		for _, d := range r.regimes {
			c := class{r, precision.Numerics{Compute: d}}
			if d != tensor.Float64 && reference(t, c).params == reference(t, class{r, precision.Numerics{}}).params {
				t.Errorf("%s trains float64's bits: the regime is not engaged", c)
			}
		}
	}
}

func TestInvarianceResume(t *testing.T) {
	sweep(t, func(_ class, x cell) bool { return x.resume > 0 })
}

// TestInvarianceDiagonal checks that the -short diagonal reaches every
// value of every axis the full sweep does, each where it means something.
func TestInvarianceDiagonal(t *testing.T) {
	values := func(short bool) map[string]bool {
		seen := map[string]bool{}
		for i, r := range matrix {
			for _, x := range cells(r, short) {
				for _, v := range []string{fmt.Sprintf("row %d K=%d", i, x.k), fmt.Sprintf("row %d S=%d", i, x.s),
					fmt.Sprintf("row %d resumed %v, at its K %v", i, x.resume > 0, x.resume == x.k), x.mesh, fmt.Sprintf("pool %d", x.pool)} {
					seen[v] = true
				}
			}
		}
		return seen
	}
	short := values(true)
	for v := range values(false) {
		if !short[v] {
			t.Errorf("the -short diagonal never reaches %s", v)
		}
	}
}
