package tensor_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// planGeom is one convolution: batch n, c input and f output channels, an
// h x w image, a k x k kernel.
type planGeom struct{ n, c, h, w, f, k, stride, pad int }

// planGeoms are more geometries than the plan table holds, each with plans
// of its own ((h, w) differs for every one).
func planGeoms() []planGeom {
	var geoms []planGeom
	for i := range tensor.ConvPlanCap + 1 {
		k := 1 + i%3
		geoms = append(geoms, planGeom{2, 1 + i%5, 3 + i%7, 2 + i/7, 1 + i%4, k, 1 + i%2, (k-1)/2 + i%2})
	}
	return geoms
}

// checkPlanGeom runs g forward, and backward unless forwardOnly, through
// the public entry points, and returns an error unless every result equals
// the naive references bit for bit.
func checkPlanGeom(g planGeom, seed uint64, forwardOnly bool) error {
	rng := tensor.NewRNG(seed)
	x := tensor.Randn(rng, 1, g.n, g.c, g.h, g.w)
	w := tensor.Randn(rng, 1, g.f, g.c, g.k, g.k)
	b := tensor.Randn(rng, 1, g.f)
	out := tensor.Conv2D(x, w, b, g.stride, g.pad)
	pairs := [][2]*tensor.Tensor{{out, tensor.Conv2DNaiveRef(x, w, b, g.stride, g.pad)}}
	if !forwardOnly {
		dout := tensor.Randn(rng, 1, out.Shape...)
		dout.Data[0] = 0 // one sample's dx on the zero-skipping loop
		dx, dw, db := tensor.Conv2DBackward(x, w, dout, g.stride, g.pad, true)
		wantDx, wantDw, wantDb := tensor.Conv2DBackwardNaiveRef(x, w, dout, g.stride, g.pad, true)
		pairs = append(pairs, [2]*tensor.Tensor{dx, wantDx}, [2]*tensor.Tensor{dw, wantDw}, [2]*tensor.Tensor{db, wantDb})
	}
	for k, p := range pairs {
		for i, v := range p[1].Data {
			if math.Float64bits(p[0].Data[i]) != math.Float64bits(v) {
				return fmt.Errorf("%+v: result %d (forward, dx, dw, db) element %d is %v, reference %v", g, k, i, p[0].Data[i], v)
			}
		}
	}
	return nil
}

// TestConvPlanTable drives more geometries than the plan table holds
// through the public entry points, A, B, … and then A, B, … again, so
// plans are built, dropped and rebuilt: every result must equal the naive
// references, and the second round must build again (the table does not
// grow to hold them all). Then, warm at the five ResNet convolutions, a
// step's worth of calls and an eval forward at another batch build no
// pass list at all.
func TestConvPlanTable(t *testing.T) {
	geoms := planGeoms()
	for round := range 2 {
		before := tensor.ConvPlanBuilds()
		for i, g := range geoms {
			if err := checkPlanGeom(g, uint64(i), false); err != nil {
				t.Fatal(err)
			}
		}
		if built := tensor.ConvPlanBuilds() - before; round == 1 && built == 0 {
			t.Fatalf("the second round over %d geometries built no plan: the table held them all", len(geoms))
		}
	}

	resnet := []planGeom{
		{2, 3, 10, 10, 6, 3, 1, 1},  // stem
		{2, 6, 10, 10, 6, 3, 1, 1},  // stage 1
		{2, 6, 10, 10, 12, 3, 2, 1}, // stage 2 entry, strided
		{2, 12, 5, 5, 12, 3, 1, 1},  // stage 2
		{2, 6, 10, 10, 12, 1, 2, 0}, // 1x1 strided skip projection
	}
	// Two warm-up rounds: the first may find the table full and empty it
	// partway, dropping plans it had just built; the second puts those back.
	for round := range 2 {
		for i, g := range resnet {
			if err := checkPlanGeom(g, uint64(100*round+i), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := tensor.ConvPlanBuilds()
	for i, g := range resnet {
		if err := checkPlanGeom(g, uint64(200+i), false); err != nil {
			t.Fatal(err)
		}
		g.n = 3 // an eval batch of another size: the batch is not in the key
		if err := checkPlanGeom(g, uint64(300+i), true); err != nil {
			t.Fatal(err)
		}
	}
	if built := tensor.ConvPlanBuilds() - before; built != 0 {
		t.Fatalf("warm calls at the ResNet shapes built %d pass lists, want 0", built)
	}
}

// TestConvPlanTableConcurrent runs the geometries of TestConvPlanTable
// from four goroutines at once, each starting at another one, so lookups,
// builds and the table's emptying overlap (run it under -race): every
// result must still equal the naive references.
func TestConvPlanTableConcurrent(t *testing.T) {
	geoms := planGeoms()
	var wg sync.WaitGroup
	for gr := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range geoms {
				j := (i + gr*len(geoms)/4) % len(geoms)
				if err := checkPlanGeom(geoms[j], uint64(j), false); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
