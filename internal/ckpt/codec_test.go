package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// refHashWriter and refSave are the version-1 encoder this codec replaced,
// kept as the oracle: one reflective binary.Write per value, folded
// through a byte-at-a-time FNV-1a on its way to the writer. The bulk codec
// must reproduce its bytes, as ckpt.ImageV2 transforms them, bit for bit.
// The embedded version-1 snapshot is written the same way; its trailer is
// Snapshot.Digest, which internal/models checks against its own oracle.
type refHashWriter struct {
	w   io.Writer
	h   uint64
	err error
}

func (hw *refHashWriter) Write(p []byte) (int, error) {
	if hw.err != nil {
		return 0, hw.err
	}
	for _, b := range p {
		hw.h ^= uint64(b)
		hw.h *= 1099511628211
	}
	n, err := hw.w.Write(p)
	hw.err = err
	return n, err
}

func refSave(w io.Writer, st *models.TrainState) (string, error) {
	hw := &refHashWriter{w: w, h: 14695981039346656037}
	put := func(v any) {
		if hw.err == nil {
			hw.err = binary.Write(hw, binary.LittleEndian, v)
		}
	}
	str := func(t string) {
		put(uint32(len(t)))
		if hw.err == nil {
			_, hw.err = io.WriteString(hw, t)
		}
	}
	floats := func(f []float64) {
		put(uint32(len(f)))
		for _, v := range f {
			put(math.Float64bits(v))
		}
	}
	rng := func(s tensor.RNGState) {
		put(s.State)
		put(s.Inc)
		put(math.Float64bits(s.Spare))
		if s.HasSpare {
			put(uint8(1))
		} else {
			put(uint8(0))
		}
	}

	if _, err := io.WriteString(hw, "MLPCKPT1"); err != nil {
		return "", err
	}
	put(uint64(st.Step))
	put(uint64(st.Epoch))
	if hw.err == nil {
		_, hw.err = io.WriteString(hw, "MLPSNAP1")
	}
	str(st.Params.Benchmark)
	put(uint32(len(st.Params.Params)))
	for _, p := range st.Params.Params {
		str(p.Name)
		put(uint32(len(p.Shape)))
		for _, d := range p.Shape {
			put(uint32(d))
		}
		floats(p.Data)
	}
	inner, err := strconv.ParseUint(st.Params.Digest(), 16, 64)
	if err != nil {
		return "", err
	}
	put(inner)
	put(uint32(len(st.Opts)))
	for _, o := range st.Opts {
		str(o.Kind)
		put(math.Float64bits(o.LR))
		put(uint64(o.T))
		put(uint32(len(o.Slots)))
		for _, s := range o.Slots {
			floats(s)
		}
	}
	if st.MP != nil {
		put(uint8(1))
		put(math.Float64bits(st.MP.Scale))
		put(uint64(st.MP.Good))
		put(st.MP.Steps)
		put(st.MP.Skipped)
		put(st.MP.Growths)
		put(st.MP.Backoffs)
	} else {
		put(uint8(0))
	}
	if st.Loader != nil {
		put(uint8(1))
		put(uint32(len(st.Loader.Order)))
		for _, i := range st.Loader.Order {
			put(uint32(i))
		}
		put(uint32(st.Loader.Pos))
		put(uint32(st.Loader.Epoch))
		rng(st.Loader.RNG)
	} else {
		put(uint8(0))
	}
	put(uint32(len(st.RNGs)))
	for _, e := range st.RNGs {
		str(e.Label)
		rng(e.State)
	}
	meta := append([]models.MetaEntry(nil), st.Meta...)
	sort.Slice(meta, func(i, j int) bool { return meta[i].Key < meta[j].Key })
	put(uint32(len(meta)))
	for _, m := range meta {
		str(m.Key)
		str(m.Value)
	}
	digest := fmt.Sprintf("%016x", hw.h)
	put(hw.h)
	return digest, hw.err
}

// engineState builds spec's engine, steps it so optimizer slots and the
// loader cursor are live, and captures its training state.
func engineState(t *testing.T, spec grid.Spec) *models.TrainState {
	t.Helper()
	eng, err := grid.Build(spec, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 3; i++ {
		eng.StepNext()
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	return eng.CaptureTrainState()
}

// codecStates covers the three models the grid trains and every section
// of the format in both its present and absent form.
func codecStates(t *testing.T) map[string]*models.TrainState {
	states := map[string]*models.TrainState{
		"ncf_adam":         engineState(t, grid.Spec{Benchmark: "recommendation", DP: 2, Seed: 5}),
		"resnet_sgd":       engineState(t, grid.Spec{Benchmark: "image_classification", Seed: 5}),
		"resnet_lars_pp2":  engineState(t, grid.Spec{Benchmark: "image_classification", Version: "v0.6", PP: 2, Seed: 5}),
		"transformer_adam": engineState(t, grid.Spec{Benchmark: "translation_transformer", PP: 2, Microbatches: 4, Schedule: "1f1b", Seed: 5}),
	}
	kinds := map[string]bool{}
	for _, st := range states {
		for _, o := range st.Opts {
			kinds[o.Kind] = true
		}
	}
	if len(kinds) < 3 {
		t.Fatalf("the engines captured optimizer kinds %v, want SGD, Adam and LARS", kinds)
	}

	// Serial NCF in the mixed bf16 regime: loss-scale state. No engine saves
	// an auxiliary RNG stream, so the sample carries the one the serial NCF
	// loop of earlier versions saved (a Norm draw leaves a spare in it).
	eng, _, err := core.NewEngine(core.V05, "recommendation", pipeline.Config{
		Endpoint: transport.Endpoint{Workers: 1}, Stages: 1, Microbatches: 1, Seed: 5,
		Numerics: precision.Numerics{Compute: tensor.BFloat16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 3; i++ {
		eng.StepNext()
	}
	mixed := eng.CaptureTrainState()
	sampling := tensor.NewRNG(5)
	sampling.Norm()
	mixed.RNGs = []models.RNGEntry{{Label: "ncf_negative_sampling", State: sampling.State()}}
	if mixed.MP == nil || mixed.Loader == nil || !mixed.RNGs[0].State.HasSpare {
		t.Fatalf("mixed NCF state lacks a section: %+v", mixed)
	}
	states["ncf_bf16_mixed"] = mixed

	variant := func(name string, edit func(*models.TrainState)) {
		st := *mixed
		edit(&st)
		states[name] = &st
	}
	variant("no_mp_no_loader_no_rngs_no_opts", func(st *models.TrainState) {
		st.MP, st.Loader, st.RNGs, st.Opts = nil, nil, nil, nil
	})
	variant("meta_nil", func(st *models.TrainState) { st.Meta = nil })
	variant("meta_empty", func(st *models.TrainState) { st.Meta = []models.MetaEntry{} })
	variant("meta_sorted", func(st *models.TrainState) {
		st.Meta = nil
		st.SetMeta("digest_n", "12")
		st.SetMeta("digest_h", "00ff")
	})
	variant("meta_out_of_order", func(st *models.TrainState) {
		st.Meta = []models.MetaEntry{{Key: "z", Value: "last"}, {Key: "a", Value: ""}, {Key: "m", Value: "mid"}}
	})
	return states
}

// TestCodecMatchesReference: Save writes the reference encoder's
// version-1 image made version 2, byte for byte, and both the version-2
// file and the reference's version-1 file load to a state that re-saves
// to it.
func TestCodecMatchesReference(t *testing.T) {
	for name, st := range codecStates(t) {
		var v1, got bytes.Buffer
		if _, err := refSave(&v1, st); err != nil {
			t.Fatalf("%s: reference save: %v", name, err)
		}
		ref := ckpt.ImageV2(t, v1.Bytes())
		refDigest := fmt.Sprintf("%016x", binary.LittleEndian.Uint64(ref[len(ref)-8:]))
		digest, err := ckpt.Save(&got, st)
		if err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), ref) {
			t.Errorf("%s: Save wrote %d bytes that differ from the reference encoder's %d, made version 2", name, got.Len(), len(ref))
		}
		if digest != refDigest {
			t.Errorf("%s: digest %s, reference %s", name, digest, refDigest)
		}
		if d, err := ckpt.Digest(st); err != nil || d != refDigest {
			t.Errorf("%s: Digest = %s, %v; reference %s", name, d, err, refDigest)
		}
		// Append continues a caller's buffer and leaves the prefix alone.
		img, err := ckpt.Append([]byte("prefix"), st)
		if err != nil || !bytes.Equal(img, append([]byte("prefix"), ref...)) {
			t.Errorf("%s: Append after a prefix differs from the reference image (err %v)", name, err)
		}

		dir := t.TempDir()
		w, err := ckpt.NewWriter(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Flush() })
		if _, _, err := w.Write(st, 0); err != nil {
			t.Fatalf("%s: Write: %v", name, err)
		}
		// Rank 1's file is the reference's version-1 image.
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("ckpt-%09d-r001.mlpckpt", st.Step)), v1.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		for rank, version := range []string{"written", "version-1"} {
			back, err := ckpt.LoadAt(dir, st.Step, rank)
			if err != nil {
				t.Fatalf("%s: LoadAt of the %s image: %v", name, version, err)
			}
			// The format carries every field, so equal bytes are equal states.
			var again bytes.Buffer
			if d, err := ckpt.Save(&again, back); err != nil || d != refDigest || !bytes.Equal(again.Bytes(), ref) {
				t.Errorf("%s: the loaded %s state re-saved to different bytes (digest %s, err %v)", name, version, d, err)
			}
		}
	}
}
