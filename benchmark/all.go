package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// allOptions parameterize an invocation over every workload.
type allOptions struct {
	seed        uint64
	seconds     float64
	reps        int
	outDir      string
	pins        *golden
	writeGolden bool
	stdout      io.Writer
	stderr      io.Writer
}

// childDeadline bounds one child run: about ten times a default run, and
// inside the driver's own per-run limit.
const childDeadline = 170 * time.Second

// childRun is what the parent keeps of one child process.
type childRun struct {
	result driverResult
	detail runDetail
	err    error
}

// spawn re-executes this binary for one (workload, seed, trace) run. Each
// timed run gets a process of its own so that peak_rss_mb means something
// and one run's heap cannot skew the next. A child that exits non-zero,
// dies, or overruns its deadline is a failed run.
func spawn(ctx context.Context, o allOptions, w workload, trace int) childRun {
	self, err := os.Executable()
	if err != nil {
		return childRun{err: err}
	}
	ctx, cancel := context.WithTimeout(ctx, childDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-out", o.outDir)
	// On cancellation ask the child to clean its temp dirs up before it is
	// killed outright.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 5 * time.Second
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = o.stderr
	runErr := cmd.Run()
	c, parseErr := parseChild(stdout.Bytes())
	switch {
	case runErr != nil && parseErr != nil:
		c.err = fmt.Errorf("child failed: %w", runErr)
	case parseErr != nil:
		c.err = parseErr
	case runErr != nil && c.result.Correct:
		// A non-zero exit with a passing result line contradicts itself.
		c.err = fmt.Errorf("child failed after reporting: %w", runErr)
	}
	return c
}

// parseChild reads a child's standard output: the last line is the driver
// result, and the line that starts with detailPrefix carries the detail.
func parseChild(out []byte) (childRun, error) {
	var c childRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &c.detail); err != nil {
				return c, fmt.Errorf("child detail line: %w", err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	if err := json.Unmarshal([]byte(last), &c.result); err != nil || c.result.Metrics == nil {
		return c, fmt.Errorf("child printed no result line (last line %q)", last)
	}
	return c, nil
}

// runAll runs every workload — reps untraced child runs and one traced one
// each — checks outputs across runs and workloads, prints the ledger and
// writes it to results.json. It returns the process exit code.
func runAll(ctx context.Context, o allOptions) int {
	led := ledger{
		Schema: ledgerSchema, Seed: o.seed, Seconds: o.seconds, Reps: o.reps,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	failed := false
	for _, w := range workloads {
		if ctx.Err() != nil {
			break
		}
		wl := workloadLedger{Name: w.name, EndToEnd: map[string]summary{}}
		values := map[string][]float64{}
		for r := 0; r < o.reps && ctx.Err() == nil; r++ {
			fmt.Fprintf(o.stderr, "%s: run %d of %d\n", w.name, r+1, o.reps)
			c := spawn(ctx, o, w, 0)
			if c.err != nil {
				wl.FailedReps++
				wl.Problems = append(wl.Problems, fmt.Sprintf("run %d: %v", r+1, c.err))
				values["failed_frac"] = append(values["failed_frac"], 1)
				continue
			}
			for _, p := range c.detail.Problems {
				wl.Problems = append(wl.Problems, fmt.Sprintf("run %d: %s", r+1, p))
			}
			for _, m := range endToEnd {
				values[m.Name] = append(values[m.Name], c.result.Metrics[m.Name].Value)
			}
			for _, m := range ledgerOnly {
				values[m.Name] = append(values[m.Name], m.of(c.detail.Samples[m.Name]))
			}
			wl.Problems = append(wl.Problems, wl.adopt(c.detail.Campaigns, fmt.Sprintf("run %d", r+1))...)
		}
		for _, m := range judged() {
			wl.EndToEnd[m.Name] = summarize(m.Unit, values[m.Name])
		}
		if ctx.Err() == nil {
			fmt.Fprintf(o.stderr, "%s: traced run\n", w.name)
			c := spawn(ctx, o, w, 1)
			if c.err != nil {
				wl.FailedReps++
				wl.Problems = append(wl.Problems, fmt.Sprintf("traced run: %v", c.err))
			} else {
				wl.PerLayer = c.result.Metrics
				for _, p := range c.detail.Problems {
					wl.Problems = append(wl.Problems, "traced run: "+p)
				}
				wl.Problems = append(wl.Problems, wl.adopt(c.detail.Campaigns, "traced run")...)
			}
		}
		led.Workloads = append(led.Workloads, wl)
	}

	// Workloads over one corpus must agree on what they found in it.
	var ref *workloadLedger
	for i := range led.Workloads {
		wl := &led.Workloads[i]
		if w, _ := workloadByName(wl.Name); !w.sameCorpus || wl.FiguresSHA == "" {
			continue
		}
		if ref == nil {
			ref = wl
		} else if wl.FiguresSHA != ref.FiguresSHA {
			wl.Problems = append(wl.Problems, fmt.Sprintf("figures_sha %s differs from %s's %s over the same corpus", wl.FiguresSHA, ref.Name, ref.FiguresSHA))
		}
	}

	printLedger(o.stdout, &led)
	for _, wl := range led.Workloads {
		if len(wl.Problems) > 0 || wl.FailedReps > 0 {
			failed = true
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(o.stderr, "benchmark: interrupted")
		failed = true
	}
	if err := writeJSON(filepath.Join(o.outDir, "results.json"), &led); err != nil {
		fmt.Fprintln(o.stderr, "benchmark:", err)
		failed = true
	}
	if o.writeGolden && !failed {
		if err := writeGoldenFile(&led, o.pins.Seed); err != nil {
			fmt.Fprintln(o.stderr, "benchmark:", err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// adopt records campaign 0's outputs as the workload's, or — when a
// previous run already set them — requires this run to have reproduced
// them.
func (wl *workloadLedger) adopt(campaigns []campaignDetail, who string) []string {
	if len(campaigns) == 0 {
		return []string{who + ": no campaign reported"}
	}
	c := campaigns[0]
	if wl.FiguresSHA == "" {
		wl.FiguresSHA, wl.StoreSHA, wl.Attempts, wl.Retried = c.FiguresSHA, c.StoreSHA, c.Attempts, c.Retried
		return nil
	}
	if c.FiguresSHA != wl.FiguresSHA || c.StoreSHA != wl.StoreSHA || c.Attempts != wl.Attempts || c.Retried != wl.Retried {
		return []string{fmt.Sprintf("%s: outputs of campaign 0 differ from the first run's (figures %s vs %s, store %s vs %s, attempts %d/%d vs %d/%d)",
			who, c.FiguresSHA, wl.FiguresSHA, c.StoreSHA, wl.StoreSHA, c.Attempts, c.Retried, wl.Attempts, wl.Retried)}
	}
	return nil
}

func printLedger(w io.Writer, led *ledger) {
	fmt.Fprintf(w, "campaign ledger: seed %d, %d run(s) of %.0f s per workload, nproc %d, %s\n",
		led.Seed, led.Reps, led.Seconds, led.NProc, led.GoVersion)
	for _, wl := range led.Workloads {
		fmt.Fprintf(w, "\n%s  figures %.12s  store %.12s  attempts %d retried %d\n", wl.Name, wl.FiguresSHA, wl.StoreSHA, wl.Attempts, wl.Retried)
		for _, m := range judged() {
			s := wl.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-34s %14.4f %-8s median of %d (min %.4f, max %.4f)\n", m.Name, s.Median, s.Unit, s.N, s.Min, s.Max)
		}
		for _, m := range perLayer() {
			if v, ok := wl.PerLayer[m.Name]; ok && v.Value != 0 {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, v.Value, v.Unit)
			}
		}
		for _, p := range wl.Problems {
			fmt.Fprintln(w, "  FAILED CHECK:", p)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeGoldenFile pins what this invocation produced. Only a run at the
// golden seed may do so.
func writeGoldenFile(led *ledger, goldenSeed uint64) error {
	if led.Seed != goldenSeed {
		return fmt.Errorf("-write-golden needs -seed %d", goldenSeed)
	}
	g := golden{Seed: led.Seed, Workloads: map[string]pin{}}
	for _, wl := range led.Workloads {
		p := pin{FiguresSHA: wl.FiguresSHA, StoreSHA: wl.StoreSHA}
		if wl.Retried > 0 {
			p.Attempts, p.Retried = wl.Attempts, wl.Retried
		}
		g.Workloads[wl.Name] = p
	}
	return writeJSON(filepath.Join("benchmark", "golden.json"), &g)
}
