package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// runHeader records where and how a result was measured.
type runHeader struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds_per_workload"`
	Counts     string  `json:"counts"`
}

// document is the -json form of a whole-set run, the shape of
// bench/baseline/seed1.json.
type document struct {
	Header  runHeader `json:"header"`
	Results []result  `json:"results"`
}

func header(opt options) runHeader {
	return runHeader{
		Commit:     commit(),
		GoVersion:  runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        procField("/proc/cpuinfo", "model name"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Counts: fmt.Sprintf("set-up x%d-%d; *_ttt >= %d runs; warm-up %d steps (ncf) / %d (transformer); checkpoint every %d steps; >= %d restores, %d steps checked after each; serve phases %v QPS",
			setupReps, maxSetupReps, minTTTRuns, ncfWarmup, transformerWarmup, ckptEvery, minResumes, resumeCheckSteps, serveRates),
	}
}

// commit reads the revision the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printHeader(w io.Writer, h runHeader) {
	fmt.Fprintf(w, "commit %s  %s\ncpu %s  nproc %d  GOMAXPROCS %d\nseed %d  %g s per workload\n%s\n",
		h.Commit, h.GoVersion, h.CPU, h.NProc, h.GOMAXPROCS, h.Seed, h.Seconds, h.Counts)
}

// processMetrics fills the process.* rows other than trace overhead.
func processMetrics(rc *runCtx) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rc.set("process.gc_cycles", float64(ms.NumGC))
	// "VmHWM:    123456 kB"
	if f := strings.Fields(procField("/proc/self/status", "VmHWM")); len(f) > 0 {
		if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
			rc.set("process.peak_rss_mb", kb/1024)
		}
	}
}
