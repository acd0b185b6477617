// Command benchmark is the repo's campaign ledger: it runs whole
// libspector campaigns over six workloads, checks their outputs, and prints
// end-to-end and per-layer metrics by name. README.md in this directory
// says how to run it and what every number means; BENCHMARK.json at the
// repo root declares the same names to the driver.
//
// Usage (from the repo root, through the wrapper that builds it):
//
//	bash benchmark/run.sh [-seed N] [-reps N] [-seconds S] [-out dir]
//	bash benchmark/run.sh -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	// SIGINT/SIGTERM cancel the campaign in flight; deferred clean-up then
	// removes the temp dirs before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name        = fs.String("workload", "", "run this one workload once in this process and print its result as the last line (the driver's mode); empty runs every workload in child processes")
		seed        = fs.Uint64("seed", 42, "workload seed: the same seed gives the same corpora")
		seconds     = fs.Float64("seconds", 20, "how long an untraced run measures")
		trace       = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		reps        = fs.Int("reps", 3, "untraced runs per workload when running every workload")
		out         = fs.String("out", filepath.Join("benchmark", "out"), "directory for results.json, trace-<workload>.jsonl and temp campaign dirs")
		compare     = fs.Bool("compare", false, "compare two results.json files given as arguments and exit non-zero on a regression")
		writeGolden = fs.Bool("write-golden", false, "after running every workload at the golden seed, rewrite benchmark/golden.json from the outputs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two results.json files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds <= 0 || *reps < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("need -seconds > 0, -reps >= 1 and -trace 0 or 1"))
	}
	pins, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	tmpRoot := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return fail(err)
	}

	if *name == "" {
		return runAll(ctx, allOptions{
			seed: *seed, seconds: *seconds, reps: *reps, outDir: *out,
			pins: pins, writeGolden: *writeGolden, stdout: stdout, stderr: stderr,
		})
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	o := runOptions{
		w: w, seed: *seed, seconds: *seconds, tmpRoot: tmpRoot, outDir: *out,
		minCampaigns: 3, setupReps: 200, pins: pins,
	}
	var rep *runReport
	if *trace == 1 {
		rep, err = runTraced(ctx, o)
	} else {
		rep, err = runEndToEnd(ctx, o)
	}
	if err != nil {
		// No result line: the driver must see a failed run, not numbers
		// from half a measurement.
		return fail(err)
	}
	if err := printRun(stdout, rep); err != nil {
		return fail(err)
	}
	if !rep.result.Correct {
		return 1
	}
	return 0
}

// printRun writes a run's metrics by name with their units, then the
// detail line, then — last — the driver's result line.
func printRun(w io.Writer, rep *runReport) error {
	d := rep.detail
	fmt.Fprintf(w, "workload %s seed %d: %d campaign(s), %d apps, measured %.1f s\n",
		d.Workload, d.Seed, len(d.Campaigns), rep.result.Attempted, rep.elapsed.Seconds())
	names := make([]string, 0, len(rep.result.Metrics))
	for n := range rep.result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rep.result.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.4f %-8s", n, v.Value, v.Unit)
		if s := d.Samples[n]; len(s) > 1 {
			sm := summarize(v.Unit, s)
			line += fmt.Sprintf(" over %d samples (min %.4f, max %.4f)", sm.N, sm.Min, sm.Max)
		}
		fmt.Fprintln(w, line)
	}
	if !d.Traced {
		for _, m := range ledgerOnly {
			if s := d.Samples[m.Name]; len(s) > 0 {
				fmt.Fprintf(w, "  %-34s %14.4f %-8s (ledger only)\n", m.Name, m.of(s), m.Unit)
			}
		}
	}
	for _, p := range d.Problems {
		fmt.Fprintln(w, "  FAILED CHECK:", p)
	}
	detail, err := json.Marshal(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", detailPrefix, detail)
	result, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", result)
	return err
}

// detailPrefix marks the line that carries a run's runDetail.
const detailPrefix = "detail "
