// Command mlperf-compliance checks an MLLOG training-session log for rule
// compliance (§4.1) with submission.CheckLog, the rules peer review
// applies to every run: required markers, quality-target consistency with
// the round's suite definition, and final-accuracy support for a
// convergence claim.
//
// Usage:
//
//	mlperf -benchmark recommendation -mllog > run.log
//	mlperf-compliance -version v0.5 run.log
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/mlog"
	"repro/internal/submission"
)

func main() {
	version := flag.String("version", "v0.5", "benchmark round the log claims")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mlperf-compliance [-version v0.5] <logfile>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	events, err := mlog.Parse(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	violations := submission.CheckLog(core.Version(*version), events)
	if d, ok := mlog.RunDurationMS(events); ok {
		fmt.Printf("time-to-train: %d ms\n", d)
	}
	if len(violations) == 0 {
		fmt.Println("COMPLIANT")
		return
	}
	for _, v := range violations {
		fmt.Printf("VIOLATION: %s\n", v.Message)
	}
	os.Exit(1)
}
