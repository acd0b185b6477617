package libspector_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"libspector"
	"libspector/internal/art"
	"libspector/internal/attribution"
	"libspector/internal/corpus"
	"libspector/internal/dex"
	"libspector/internal/dispatch"
	"libspector/internal/emulator"
	"libspector/internal/libradar"
	"libspector/internal/monkey"
	"libspector/internal/report"
	"libspector/internal/synth"
	"libspector/internal/xposed"
)

var updateRecord = flag.Bool("update", false, "rewrite the generated blocks of EXPERIMENTS.md")

const (
	recordPath  = "EXPERIMENTS.md"
	recordOpen  = "<!-- record:"
	recordClose = "<!-- /record -->"
)

// TestReproductionRecord runs the seed-42, 300-app reference campaign
// once and checks every generated block of EXPERIMENTS.md — a fenced text
// between a "<!-- record:ID -->" and a "<!-- /record -->" line — against
// its rendering: one block per report section, exactly as `libspector
// -apps 300` prints it, plus the experiments no CLI renders. With -update
// it rewrites the insides of the blocks and nothing else.
func TestReproductionRecord(t *testing.T) {
	doc, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for id, body := range referenceRecord(t) {
		want[id] = "```\n" + body + "```\n"
	}
	got, err := syncRecord(string(doc), want, *updateRecord)
	if err != nil {
		t.Fatalf("%v\nregenerate with: go test -run TestReproductionRecord -update .", err)
	}
	if got != string(doc) {
		if err := os.WriteFile(recordPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecordBlocks runs the record's checks over an in-memory copy of
// EXPERIMENTS.md: each damaged copy fails naming the block, and -update
// restores a stale copy and rewrites a current one not at all.
func TestRecordBlocks(t *testing.T) {
	data, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	blocks, err := recordBlocks(doc)
	if err != nil || len(blocks) == 0 {
		t.Fatalf("EXPERIMENTS.md holds %d blocks: %v", len(blocks), err)
	}
	current := make(map[string]string)
	at := make(map[string]recordBlock)
	for _, b := range blocks {
		current[b.id], at[b.id] = doc[b.start:b.end], b
	}
	f2, e4, f5 := at["F2"], at["E4"], at["F5"]
	digit := f2.start + strings.IndexAny(doc[f2.start:f2.end], "0123456789")
	stale := doc[:digit] + string('0'+(doc[digit]-'0'+1)%10) + doc[digit+1:]
	for _, tc := range []struct{ name, doc, block string }{
		{"changed digit", stale, "F2"},
		{"missing block", doc[:strings.LastIndex(doc[:f5.start], recordOpen)] + doc[f5.end+len(recordClose):], "F5"},
		{"unknown block", doc + recordOpen + "F99 -->\n```\n1\n```\n" + recordClose + "\n", "F99"},
		{"unterminated marker", doc[:e4.end] + doc[e4.end+len(recordClose):], "E4"},
	} {
		if _, err := syncRecord(tc.doc, current, false); err == nil || !strings.Contains(err.Error(), "block "+tc.block+" ") {
			t.Errorf("%s: error %v, want one naming block %s", tc.name, err, tc.block)
		}
	}
	if got, err := syncRecord(stale, current, true); err != nil || got != doc {
		t.Errorf("-update over a stale digit: %v, restored the file: %t", err, got == doc)
	}
	if got, err := syncRecord(doc, current, true); err != nil || got != doc {
		t.Errorf("second -update: %v, rewrote nothing: %t", err, got == doc)
	}
}

// recordBlock is one generated block: its id and the byte range of its
// inside.
type recordBlock struct {
	id         string
	start, end int
}

// recordBlocks finds every generated block of doc. A marker is a line of
// its own, so prose may quote one.
func recordBlocks(doc string) ([]recordBlock, error) {
	var blocks []recordBlock
	for pos := 0; ; {
		i := strings.Index(doc[pos:], "\n"+recordOpen)
		if i < 0 {
			return blocks, nil
		}
		i += pos + 1 + len(recordOpen)
		j := strings.Index(doc[i:], " -->\n")
		if j < 0 {
			return nil, fmt.Errorf("record marker at byte %d is not closed", i)
		}
		b := recordBlock{id: doc[i : i+j], start: i + j + len(" -->\n")}
		// Both searches start at the newline that ends the marker line.
		end := strings.Index(doc[b.start-1:], "\n"+recordClose)
		if next := strings.Index(doc[b.start-1:], "\n"+recordOpen); end < 0 || (next >= 0 && next < end) {
			return nil, fmt.Errorf("record block %s is not terminated", b.id)
		}
		b.end = b.start + end
		blocks = append(blocks, b)
		pos = b.end + len(recordClose)
	}
}

// syncRecord checks the inside of every block of doc against want, keyed
// by block id; with update it rewrites the insides that differ instead.
// A block doc lacks, or one want does not know, fails either way.
func syncRecord(doc string, want map[string]string, update bool) (string, error) {
	blocks, err := recordBlocks(doc)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	var errs []error
	seen := make(map[string]bool)
	last := 0
	for _, b := range blocks {
		inside, ok := want[b.id]
		if !ok {
			errs = append(errs, fmt.Errorf("record block %s is unknown", b.id))
			continue
		}
		seen[b.id] = true
		if have := doc[b.start:b.end]; have != inside && !update {
			h, w := strings.Split(have, "\n"), strings.Split(inside, "\n")
			n := 0
			for n < len(h)-1 && n < len(w)-1 && h[n] == w[n] {
				n++
			}
			errs = append(errs, fmt.Errorf("record block %s is stale at line %d:\n  have %q\n  want %q", b.id, n+1, h[n], w[n]))
		}
		out.WriteString(doc[last:b.start] + inside)
		last = b.end
	}
	out.WriteString(doc[last:])
	var missing []string
	for id := range want {
		if !seen[id] {
			missing = append(missing, id)
		}
	}
	sort.Strings(missing)
	for _, id := range missing {
		errs = append(errs, fmt.Errorf("record block %s is missing", id))
	}
	return out.String(), errors.Join(errs...)
}

// referenceRecord renders every block of the record, keyed by block id.
func referenceRecord(t *testing.T) map[string]string {
	t.Helper()
	cfg := libspector.DefaultConfig()
	cfg.Apps, cfg.Seed = 300, 42
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The campaign keeps no runs, so the supervisor reports its flows
	// matched are gathered as the runs stream past.
	var reports []*xposed.Report
	err = exp.RunContext(context.Background(), dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind == dispatch.EventRun {
			for _, f := range ev.Run.Flows {
				if f.Report != nil {
					reports = append(reports, f.Report)
				}
			}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	ag := exp.Aggregates()
	in := report.Inputs{Aggregates: ag, DomainCounts: exp.TableICounts(), TopN: 15}
	record := make(map[string]string)
	for _, s := range report.Sections {
		record[s.ID] = s.Render(in)
	}
	acct := exp.Result().Accounting
	record["campaign"] = fmt.Sprintf("%d apps, %d monkey events each: %d runs analyzed, %d ARM-only apps skipped, %d failed\n"+
		"%d flows joined to a supervisor report, %d without one\n",
		cfg.Apps, cfg.MonkeyEvents, acct.Completed, acct.SkippedARMOnly, acct.Failed, len(reports), ag.UnattributedFlows)

	// The attribution ablations over the reference campaign's reports:
	// the share of sockets for which counts holds, given the origin and
	// built-in verdict attr attributes and the paper's attribution's
	// origin.
	share := func(attr *attribution.Attributor, counts func(origin, paper string, builtin bool) bool) string {
		paper, n := attribution.NewAttributor(nil), 0
		for _, rep := range reports {
			origin, builtin, err := attr.OriginOf(rep)
			want, _, perr := paper.OriginOf(rep)
			if err != nil || perr != nil {
				t.Fatal(errors.Join(err, perr))
			}
			if counts(origin, want, builtin) {
				n++
			}
		}
		return pct(n, len(reports))
	}
	filter := corpus.NewBuiltinFilter()
	framework := func(origin, _ string, builtin bool) bool { return builtin || filter.IsBuiltin(origin+".X") }
	unfiltered, top := attribution.NewAttributor(nil), attribution.NewAttributor(nil)
	unfiltered.DisableBuiltinFilter, top.TopOfStack = true, true
	record["ablation-filter"] = fmt.Sprintf("the reference campaign's %d supervisor reports\n"+
		"sockets attributed to framework code: %s with the §III-C filter, %s without it\n",
		len(reports), share(attribution.NewAttributor(nil), framework), share(unfiltered, framework))
	record["ablation-origin"] = fmt.Sprintf("the reference campaign's %d supervisor reports\n"+
		"sockets whose origin changes under top-of-stack attribution: %s\n",
		len(reports), share(top, func(origin, paper string, _ bool) bool { return origin != paper }))

	var origins []string
	for _, r := range ag.Fig3TopOrigins(0) {
		if !r.Builtin {
			origins = append(origins, r.Name)
		}
	}
	unknown := func(det *libradar.Detector) string {
		n := 0
		for _, origin := range origins {
			if det.Categorize(origin) == corpus.LibUnknown {
				n++
			}
		}
		return pct(n, len(origins))
	}
	record["ablation-voting"] = fmt.Sprintf("the reference campaign's %d non-builtin origin-libraries\n"+
		"in the Unknown category: %s with the §III-D database and majority voting, %s with exact database matches only\n",
		len(origins), unknown(exp.Detector()), unknown(libradar.NewDetector(nil)))

	// The emulator experiments, each over a small corpus of its own.
	// exercise runs a freshly generated app i of w once, returning the
	// run's artifacts and method coverage.
	exercise := func(w *synth.World, i int, opts emulator.Options) (*emulator.Artifacts, attribution.Coverage) {
		app, err := w.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		arts, err := emulator.Run(emulator.Installation{Program: app.Program, APKSHA256: app.SHA256}, w.Resolver, opts)
		if err != nil {
			t.Fatal(err)
		}
		return arts, attribution.ComputeCoverage(arts.Trace, dex.DisassembleFile(app.Program.Dex))
	}
	// meanCoverage is the mean over the first eight apps of w.
	meanCoverage := func(w *synth.World, opts emulator.Options) (percent, methods float64) {
		for i := 0; i < 8; i++ {
			_, cov := exercise(w, i, opts)
			percent, methods = percent+cov.Percent()/8, methods+float64(cov.ExecutedMethods)/8
		}
		return percent, methods
	}

	opts := emulator.DefaultOptions(61)
	opts.Monkey.Events, opts.Instrumented = 200, false
	plain, _ := exercise(testWorld(t, 61, 2), 0, opts)
	opts.Instrumented = true
	hooked, _ := exercise(testWorld(t, 61, 2), 0, opts)
	added := hooked.VirtualDuration - plain.VirtualDuration
	record["E3"] = fmt.Sprintf("app 0 of corpus seed 61, 200 monkey events\n"+
		"virtual time %v uninstrumented, %v instrumented: %v added by %d supervisor reports, %v each\n",
		plain.VirtualDuration, hooked.VirtualDuration, added, hooked.ReportsSent, added/time.Duration(hooked.ReportsSent))

	e5 := testWorld(t, 63, 8)
	record["E5"] = "8 apps of corpus seed 63 (no ARM-only apps), monkey seed 63\nevents  mean coverage  mean methods hit\n"
	for _, events := range []int{10, 100, 500, 1000, 5000} {
		opts := emulator.DefaultOptions(63)
		opts.Monkey.Events = events
		percent, methods := meanCoverage(e5, opts)
		record["E5"] += fmt.Sprintf("%-6d  %-13s  %.1f\n", events, fmt.Sprintf("%.2f%%", percent), methods)
	}

	// A budget tight enough that the monkey seed decides which handlers
	// fire.
	seeds := testWorld(t, 66, 2)
	var covs []float64
	var mean float64
	for seed := uint64(1000); seed < 1008; seed++ {
		opts := emulator.DefaultOptions(seed)
		opts.Monkey.Events = 12
		_, cov := exercise(seeds, 0, opts)
		covs, mean = append(covs, cov.Percent()), mean+cov.Percent()/8
	}
	sort.Float64s(covs)
	record["monkey-seeds"] = fmt.Sprintf("app 0 of corpus seed 66, 12 monkey events, monkey seeds 1000…1007\n"+
		"coverage mean %.2f%%, min %.2f%%, max %.2f%%\n", mean, covs[0], covs[len(covs)-1])

	profiler := testWorld(t, 64, 2)
	record["ablation-profiler"] = "app 0 of corpus seed 64, 500 monkey events, trace buffer of 256 entries\n"
	for _, p := range []struct {
		name string
		mode art.ProfilerMode
	}{{"stock bounded buffer", art.ProfilerBounded}, {"unique-method modification", art.ProfilerUnique}} {
		opts := emulator.DefaultOptions(64)
		opts.Monkey.Events, opts.ProfilerMode, opts.ProfilerCapacity = 500, p.mode, 256
		arts, _ := exercise(profiler, 0, opts)
		record["ablation-profiler"] += fmt.Sprintf("%s: %d unique methods recorded, %d entries dropped\n",
			p.name, arts.ProfilerUniqueMethods, arts.ProfilerDroppedEntries)
	}

	input := testWorld(t, 67, 8)
	record["ablation-input"] = "8 apps of corpus seed 67 (no ARM-only apps), 40 events, monkey seed 67\n"
	for _, g := range []struct {
		name     string
		strategy monkey.Strategy
	}{{"random (monkey)", monkey.StrategyRandom}, {"systematic", monkey.StrategySystematic}} {
		opts := emulator.DefaultOptions(67)
		opts.Monkey.Events, opts.Monkey.Strategy = 40, g.strategy
		percent, _ := meanCoverage(input, opts)
		record["ablation-input"] += fmt.Sprintf("%s: mean coverage %.2f%%\n", g.name, percent)
	}
	return record
}

// testWorld is a corpus of apps apps under seed, none of them ARM-only.
func testWorld(tb testing.TB, seed uint64, apps int) *synth.World {
	tb.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed, cfg.NumApps, cfg.ARMOnlyRate = seed, apps, 0
	world, err := synth.NewWorld(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return world
}

func pct(n, of int) string { return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(of)) }
