// Command selbench is the socket-to-socket benchmark of selestd: it
// starts the real daemon binary, drives it over loopback with one of
// four workloads generated from a seed, checks every answer, and
// reports the end-to-end metrics a caller sees; a traced run reports
// the per-layer ledger instead. bench/README.md has the metric and
// workload definitions; bench/run.sh builds both binaries and is the
// way to run it:
//
//	bash bench/run.sh                                   # all workloads, seed 1
//	bash bench/run.sh --workload point_hot --seed 7 --seconds 10 --trace 1
//	bash bench/run.sh -compare before/ after/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var cfg config
	root := flag.String("root", ".", "repository checkout (holds BENCHMARK.json)")
	flag.StringVar(&cfg.work, "work", "", "directory for binaries, fixtures and temporary files (default <root>/.bench_build/selbench); must hold the selestd binary")
	flag.StringVar(&cfg.out, "out", "", "directory for run records and span files (default <work>/out)")
	name := flag.String("workload", "all", "workload to run: point_serial, point_hot, batch_scan, update_mixed, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request, probe and update streams")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics and span files")
	compare := flag.Bool("compare", false, "compare two run records, or two directories of them: selbench -compare A B")
	printManifest := flag.Int("manifest", 0, "print BENCHMARK.json for the given run_seconds and exit")
	flag.Parse()

	if *printManifest > 0 {
		os.Stdout.Write(manifest(*printManifest))
		return
	}
	cfg.root = *root
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: selbench -compare A B (run records, or directories of them)")
		}
		regressed, err := compareRuns(filepath.Join(cfg.root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(2, "%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if cfg.work == "" {
		cfg.work = filepath.Join(cfg.root, ".bench_build", "selbench")
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.work, "out")
	}
	cfg.trace = *trace != 0
	if cfg.seconds < 1 {
		fatal(2, "-seconds must be at least 1, got %g", cfg.seconds)
	}
	if _, err := os.Stat(cfg.daemonBin()); err != nil {
		fatal(2, "no selestd binary at %s: run through bench/run.sh, which builds it", cfg.daemonBin())
	}

	run := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fatal(2, "unknown workload %q", *name)
		}
		run = []workload{*w}
	}
	var last *record
	for i := range run {
		rec, err := runWorkload(cfg, &run[i])
		if err != nil {
			fatal(1, "%s: %v", run[i].name, err)
		}
		report(rec)
		if err := writeRecord(cfg, rec); err != nil {
			fatal(1, "%v", err)
		}
		last = rec
	}
	// The acceptance driver runs one workload at a time and reads the
	// last line.
	fmt.Println(lastLine(last))
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "selbench: "+format+"\n", args...)
	os.Exit(code)
}
