package repro

// Sealed-state codec benchmarks: what saving and loading the largest
// training state in the benchmark costs (the PP-2 transformer's rank-0
// state after 25 steps, 620 139 bytes as a checkpoint, 207 271 as a bare
// snapshot), in MB/s of image and allocs/op. BENCH_ckpt.json holds the
// checked-in before/after rows; `make bench-ckpt` regenerates them.
//
// BenchmarkCkptSaveDiscard is load-bearing: the bench-smoke awk gate
// requires the warm encoder to report 0 allocs/op.

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchwarm"
	"repro/internal/ckpt"
	"repro/internal/grid"
	"repro/internal/models"
)

// pp2TransformerState is the state transformer_pp2_ckpt_steps checkpoints
// (bench/wl_ckpt.go): same spec, seed 1, captured after 25 steps.
func pp2TransformerState(b *testing.B) *models.TrainState {
	b.Helper()
	eng, err := grid.Build(grid.Spec{
		Benchmark: "translation_transformer", PP: 2, Microbatches: 4, Schedule: "1f1b", Seed: 1,
	}, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 25; i++ {
		eng.StepNext()
	}
	if err := eng.Err(); err != nil {
		b.Fatal(err)
	}
	return eng.CaptureTrainState()
}

// BenchmarkCkptSaveDiscard is the encoder alone, warm: the image built
// and sealed in a reused buffer and handed to a writer that drops it. It
// is the first benchmark of the process and follows an engine's teardown,
// so the runtime is settled first (benchwarm.Parking) and its own
// late start-up allocations stay out of the count.
func BenchmarkCkptSaveDiscard(b *testing.B) {
	st := pp2TransformerState(b)
	buf, err := ckpt.Append(nil, st)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	benchwarm.Parking()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = ckpt.Append(buf[:0], st); err != nil {
			b.Fatal(err)
		}
		io.Discard.Write(buf)
	}
}

// writtenFile makes a warm Writer in a temp directory and returns it with
// the size of st's checkpoint file, written and flushed.
func writtenFile(b *testing.B, dir string, st *models.TrainState) (*ckpt.Writer, int64) {
	b.Helper()
	w, err := ckpt.NewWriter(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Flush() })
	path, _, err := w.Write(st, 0)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		b.Fatal(err)
	}
	return w, fileSize(b, path)
}

// BenchmarkCkptWrite is the checkpoint stall but the capture: a warm
// Writer.Write, which returns once the image is encoded and sealed. The
// persist it starts is flushed outside the timer.
func BenchmarkCkptWrite(b *testing.B) {
	st := pp2TransformerState(b)
	w, size := writtenFile(b, b.TempDir(), st)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Write(st, 0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkCkptSaveFile is the durable cost: a warm Writer.Write and the
// Flush that returns once file and directory are synced.
func BenchmarkCkptSaveFile(b *testing.B) {
	st := pp2TransformerState(b)
	w, size := writtenFile(b, b.TempDir(), st)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := w.Write(st, 0)
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCkptLoad is the resume read: file, seal check, decode.
func BenchmarkCkptLoad(b *testing.B) {
	st := pp2TransformerState(b)
	dir := b.TempDir()
	_, size := writtenFile(b, dir, st)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ckpt.LoadAt(dir, st.Step, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotSave is Snapshot.Save as SaveFile calls it, minus the
// file: one image allocated, encoded, and written in one piece.
func BenchmarkSnapshotSave(b *testing.B) {
	snap := pp2TransformerState(b).Params
	b.SetBytes(int64(len(snap.AppendTo(nil))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snap.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad is the serving hand-off read, LoadSnapshotFile.
func BenchmarkSnapshotLoad(b *testing.B) {
	snap := pp2TransformerState(b).Params
	path := filepath.Join(b.TempDir(), "pp2.mlpsnap")
	if err := snap.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fileSize(b, path))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := models.LoadSnapshotFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

func fileSize(b *testing.B, path string) int64 {
	b.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return fi.Size()
}
