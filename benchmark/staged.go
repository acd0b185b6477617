package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"libspector"
	"libspector/internal/analysis"
	"libspector/internal/attribution"
	"libspector/internal/dex"
	"libspector/internal/dispatch"
	"libspector/internal/emulator"
	"libspector/internal/journal"
	"libspector/internal/nets"
	"libspector/internal/obs"
	"libspector/internal/resultstore"
	"libspector/internal/synth"
)

// The staged pass. The facade is a black box, so the layer table comes
// from re-driving the per-app pipeline on one goroutine, calling each
// layer's exported function in the order dispatch's runOne does and
// wrapping each call in a span. The pass must end with the same figures
// (and result store) as the facade run of the same seed — that equality is
// the proof that the mirror is faithful — and its allocation total must
// stay close to a Workers: 1 facade run (trace.alloc_drift).

// campaignTrace is the trace id of spans that happen once per campaign.
const campaignTrace = "campaign"

// drainPoll mirrors dispatch's collector drain poll interval.
const drainPoll = time.Millisecond

// drainBudget bounds the wait for one app's datagrams.
const drainBudget = 5 * time.Second

type stagedResult struct {
	rec        *recorder
	apps       int
	wall       time.Duration
	polls      int
	figuresSHA string
	storeSHA   string
	// shas lists the analysed apps' checksums, the keys of the result
	// store's point lookups.
	shas []string
}

// stagedPass holds the wiring shared by the live and the replay variant.
type stagedPass struct {
	cfg      libspector.Config
	exp      *libspector.Experiment
	tel      *obs.Telemetry
	builder  *analysis.DatasetBuilder
	records  *dispatch.RecordSink
	res      *stagedResult
	storeOut string
}

func newStagedPass(w workload, seed uint64, apps int, files campaignFiles) (*stagedPass, error) {
	cfg, _ := w.config(seed, apps, 1, files, telVirtual)
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return nil, err
	}
	builder, err := analysis.NewDatasetBuilder(exp.Domains())
	if err != nil {
		return nil, err
	}
	p := &stagedPass{
		cfg: cfg, exp: exp, tel: cfg.Telemetry,
		builder: builder,
		// At most eleven spans per app and four per campaign.
		res: &stagedResult{apps: apps, rec: newRecorder(apps*12 + 8)},
	}
	if w.durable {
		p.records = dispatch.NewRecordSink()
		p.storeOut = files.store(w.resume)
	}
	return p, nil
}

// header is the journal identity the facade gives this campaign.
func (p *stagedPass) header() journal.Header {
	return journal.Header{Seed: p.cfg.Seed, Fingerprint: p.cfg.Fingerprint(), Apps: p.res.apps}
}

// timed wraps one call into a layer in a span under parent.
func (p *stagedPass) timed(trace, layer string, parent int, call func() error) error {
	s := p.res.rec.begin(trace, layer, parent)
	err := call()
	s.end()
	if err != nil {
		return fmt.Errorf("%s: %w", layer, err)
	}
	return nil
}

// analyze is the shared tail of both variants: disassemble, attribute,
// fold, and hand the event to the persistence sinks.
func (p *stagedPass) analyze(trace string, parent, i int, in attribution.RunInput, program *dex.File, evidence *dispatch.RunEvidence, artifacts *dispatch.ArtifactStore, commit func(*attribution.RunResult) error) error {
	if err := p.timed(trace, "dex.disassemble", parent, func() error {
		in.Disassembly = dex.DisassembleFile(program)
		return nil
	}); err != nil {
		return err
	}
	in.LocalAddr = nets.DefaultLocalAddr
	in.CollectorAddr = nets.DefaultCollectorAddr
	in.CollectorPort = nets.DefaultCollectorPort
	var run *attribution.RunResult
	if err := p.timed(trace, "attribution.analyze", parent, func() (err error) {
		run, err = p.exp.Attributor().AnalyzeRun(in)
		return err
	}); err != nil {
		return err
	}
	if err := commit(run); err != nil {
		return err
	}
	ev := dispatch.RunEvent{Kind: dispatch.EventRun, AppIndex: i, Run: run, Evidence: evidence}
	if err := p.timed(trace, "analysis.fold", parent, func() error {
		// The facade's worker fold records the same obs span and counters.
		fold := p.tel.Trace(trace).Span(obs.SpanAnalysisFold, p.tel.Now())
		err := p.builder.Consume(ev)
		fold.AttrInt("flows", int64(len(run.Flows))).End(p.tel.Now())
		p.tel.Counter(obs.MAnalysisFolds).Inc()
		p.tel.Counter(obs.MAnalysisFlowsFolded).Add(int64(len(run.Flows)))
		return err
	}); err != nil {
		return err
	}
	if artifacts != nil && evidence != nil {
		if err := p.timed(trace, "artifacts.save", parent, func() error { return artifacts.Consume(ev) }); err != nil {
			return err
		}
	}
	if p.records != nil {
		if err := p.timed(trace, "resultstore.write", parent, func() error { return p.records.Consume(ev) }); err != nil {
			return err
		}
	}
	p.res.shas = append(p.res.shas, run.AppSHA)
	return nil
}

// finish mirrors the tail of Experiment.RunContext: detector finalisation,
// dataset build, result-store flush, and the figures the run is judged by.
func (p *stagedPass) finish() error {
	if err := p.timed(campaignTrace, "analysis.finish", 0, func() error {
		p.exp.Detector().Finalize(2)
		ds, err := p.builder.Finish(p.exp.Detector())
		if err == nil {
			p.res.figuresSHA, err = figuresSHA(ds)
		}
		return err
	}); err != nil {
		return err
	}
	if p.records != nil {
		if err := p.timed(campaignTrace, "resultstore.write", 0, func() error {
			seg, err := p.records.Seal()
			if err == nil {
				_, err = resultstore.WriteSegments(p.storeOut, [][]byte{seg})
			}
			return err
		}); err != nil {
			return err
		}
		sha, err := fileSHA(p.storeOut)
		if err != nil {
			return err
		}
		p.res.storeSHA = sha
	}
	return nil
}

// runStagedLive mirrors dispatch's runOne for every app of the corpus.
func runStagedLive(ctx context.Context, w workload, seed uint64, apps int, files campaignFiles) (res *stagedResult, err error) {
	p, err := newStagedPass(w, seed, apps, files)
	if err != nil {
		return nil, err
	}
	world, detector, tel := p.exp.World(), p.exp.Detector(), p.tel

	collector, err := dispatch.NewCollector(tel)
	if err != nil {
		return nil, err
	}
	defer func() { _ = collector.Close() }()
	client, err := dispatch.NewClient(collector.Addr())
	if err != nil {
		return nil, err
	}
	defer func() { _ = client.Close() }()
	store := dispatch.NewStore()
	meters := obs.NewMeters()

	var jw *journal.Writer
	var artifacts *dispatch.ArtifactStore
	if w.durable {
		if artifacts, err = dispatch.NewArtifactStore(files.artifacts()); err != nil {
			return nil, err
		}
		if jw, err = journal.Create(files.journal(), p.header(), journal.Options{}); err != nil {
			return nil, err
		}
		defer func() {
			// Only the error path leaves the journal open.
			if err != nil {
				_ = jw.Close()
			}
		}()
	}

	emu := emulator.DefaultOptions(p.cfg.Seed)
	emu.Monkey.Events = p.cfg.MonkeyEvents
	emu.Monkey.Throttle = p.cfg.Throttle

	start := time.Now()
	for i := 0; i < apps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		trace := dispatch.TraceID(i)
		appSpan := p.res.rec.begin(trace, "app", 0)
		if jw != nil {
			if err := p.timed(trace, "journal.append", appSpan.id, func() error { return jw.RunStarted(i) }); err != nil {
				return nil, err
			}
		}
		root := tel.Trace(trace).Span(obs.SpanDispatch, tel.Now())
		root.AttrInt("app", int64(i))

		var app *synth.App
		if err := p.timed(trace, "synth.generate", appSpan.id, func() (err error) {
			app, err = world.GenerateApp(i)
			return err
		}); err != nil {
			return nil, err
		}
		pack := app.APK
		if err := p.timed(trace, "apkstore.roundtrip", appSpan.id, func() error {
			if err := store.Put(dispatch.StoreEntry{
				Package: pack.Manifest.Package, Encoded: app.Encoded, SHA256: app.SHA256,
				DexDate: pack.DexDate, VTScanDate: pack.VTScanDate,
			}); err != nil {
				return err
			}
			selected, err := store.Select(pack.Manifest.Package)
			if err == nil && selected.SHA256 != app.SHA256 {
				err = fmt.Errorf("store selected unexpected version of %s", pack.Manifest.Package)
			}
			return err
		}); err != nil {
			return nil, err
		}
		if !pack.SupportsX86() {
			if jw != nil {
				if err := p.timed(trace, "journal.append", appSpan.id, func() error {
					return jw.RunCompleted(i, journal.OutcomeSkip, "", 1, 0, 0, "")
				}); err != nil {
					return nil, err
				}
			}
			root.Attr("outcome", "skip").AttrInt("attempts", 1).End(tel.Now())
			appSpan.end()
			continue
		}
		if err := p.timed(trace, "libradar.observe", appSpan.id, func() error {
			return detector.ObserveApp(pack.Manifest.Package, app.Program.Dex.Packages())
		}); err != nil {
			return nil, err
		}

		opts := emu
		opts.Seed = p.cfg.Seed + uint64(i)*2654435761
		opts.Telemetry = tel
		opts.Meters = meters
		opts.Span = root
		opts.ReportSink = client.Send
		var arts *emulator.Artifacts
		if err := p.timed(trace, "emulator.run", appSpan.id, func() (err error) {
			arts, err = emulator.RunContext(ctx, emulator.Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, opts)
			return err
		}); err != nil {
			return nil, err
		}
		if arts.HookErrors > 0 || len(arts.RawReports) < arts.ReportsSent {
			return nil, fmt.Errorf("app %d: %d hook errors, %d of %d reports delivered", i, arts.HookErrors, len(arts.RawReports), arts.ReportsSent)
		}

		in := attribution.RunInput{
			AppSHA: app.SHA256, AppPackage: pack.Manifest.Package, AppCategory: pack.Manifest.Category,
			Capture: bytes.NewReader(arts.CaptureBytes), Trace: arts.Trace,
		}
		if err := p.timed(trace, "collector.drain", appSpan.id, func() error {
			drain := root.Child(obs.SpanDrain, tel.Now())
			deadline := time.Now().Add(drainBudget)
			for {
				got := collector.ReportsFor(app.SHA256)
				if len(got) == len(arts.RawReports) {
					in.Reports = got
					drain.AttrInt("reports", int64(len(got))).End(tel.Now())
					return nil
				}
				if len(got) > len(arts.RawReports) || time.Now().After(deadline) {
					return fmt.Errorf("collector holds %d of %d reports for app %d", len(got), len(arts.RawReports), i)
				}
				p.res.polls++
				time.Sleep(drainPoll)
			}
		}); err != nil {
			return nil, err
		}

		var evidence *dispatch.RunEvidence
		if artifacts != nil {
			evidence = &dispatch.RunEvidence{
				Meta: dispatch.RunMeta{
					Package: pack.Manifest.Package, SHA256: app.SHA256, Category: pack.Manifest.Category,
					Events: arts.EventsInjected, RecordedAt: arts.FinishedAt.UTC(),
				},
				APK: app.Encoded, Capture: arts.CaptureBytes, RawReports: arts.RawReports, Trace: arts.Trace,
			}
		}
		commit := func(run *attribution.RunResult) error {
			meters.Flush(tel)
			if jw != nil {
				if err := p.timed(trace, "journal.append", appSpan.id, func() error {
					return jw.RunCompletedMetered(i, journal.OutcomeRun, run.AppSHA, 1, 0, 0, "", &journal.RunMeters{
						Runs: 1, Events: int64(arts.EventsInjected), VirtualMS: arts.VirtualDuration.Milliseconds(),
						TCPWireBytes: arts.NetStats.TCPWireBytes, UDPWireBytes: arts.NetStats.UDPWireBytes,
						DNSWireBytes: arts.NetStats.DNSWireBytes, Packets: arts.NetStats.PacketCount,
						CaptureBytes: int64(len(arts.CaptureBytes)), BlockedConns: arts.BlockedConnections,
						DroppedGrams: arts.DroppedDatagrams, ReportsSent: int64(arts.ReportsSent),
						HookErrors: int64(arts.HookErrors), CollectorReceived: int64(len(in.Reports)),
					})
				}); err != nil {
					return err
				}
			}
			root.Attr("outcome", "run").AttrInt("attempts", 1).End(tel.Now())
			return nil
		}
		if err := p.analyze(trace, appSpan.id, i, in, app.Program.Dex, evidence, artifacts, commit); err != nil {
			return nil, fmt.Errorf("app %d: %w", i, err)
		}
		appSpan.end()
	}
	if jw != nil {
		if err := p.timed(campaignTrace, "journal.append", 0, jw.Close); err != nil {
			return nil, err
		}
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	p.res.wall = time.Since(start)
	return p.res, nil
}

// runStagedReplay mirrors dispatch's replayApp over the journal and
// artifact store a finished durable campaign left in files.
func runStagedReplay(ctx context.Context, w workload, seed uint64, apps int, files campaignFiles) (*stagedResult, error) {
	p, err := newStagedPass(w, seed, apps, files)
	if err != nil {
		return nil, err
	}
	world, detector, tel := p.exp.World(), p.exp.Detector(), p.tel
	artifacts, err := dispatch.NewArtifactStore(files.artifacts())
	if err != nil {
		return nil, err
	}

	start := time.Now()
	var jw *journal.Writer
	var replay *journal.Replay
	if err := p.timed(campaignTrace, "journal.replay", 0, func() (err error) {
		if jw, replay, err = journal.Recover(files.journal(), journal.Options{}); err != nil {
			return err
		}
		return replay.Header.Match(p.header())
	}); err != nil {
		if jw != nil {
			_ = jw.Close()
		}
		return nil, err
	}
	// Nothing is appended on replay; the writer is only held, as the
	// facade holds it, until the fleet is done.
	defer func() { _ = jw.Close() }()

	for i := 0; i < apps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec, ok := replay.Outcomes[i]
		if !ok {
			return nil, fmt.Errorf("app %d has no journaled outcome", i)
		}
		if rec.Outcome != journal.OutcomeRun {
			continue // skips replay without touching the corpus or the store
		}
		trace := dispatch.TraceID(i)
		appSpan := p.res.rec.begin(trace, "app", 0)
		root := tel.Trace(trace).Span(obs.SpanDispatch, tel.Now())
		root.AttrInt("app", int64(i)).Attr("resume", "replay")

		var app *synth.App
		if err := p.timed(trace, "synth.generate", appSpan.id, func() (err error) {
			app, err = world.GenerateApp(i)
			return err
		}); err != nil {
			return nil, err
		}
		if rec.ArtifactSHA != app.SHA256 {
			return nil, fmt.Errorf("app %d: journaled sha %s, regenerated %s", i, rec.ArtifactSHA, app.SHA256)
		}
		var stored *dispatch.StoredRun
		if err := p.timed(trace, "artifacts.load", appSpan.id, func() (err error) {
			stored, err = artifacts.Load(rec.ArtifactSHA)
			return err
		}); err != nil {
			return nil, err
		}
		pack := app.APK
		if err := p.timed(trace, "libradar.observe", appSpan.id, func() error {
			return detector.ObserveApp(pack.Manifest.Package, app.Program.Dex.Packages())
		}); err != nil {
			return nil, err
		}
		in := attribution.RunInput{
			AppSHA: app.SHA256, AppPackage: pack.Manifest.Package, AppCategory: pack.Manifest.Category,
			Capture: bytes.NewReader(stored.Capture), Reports: stored.Reports, Trace: stored.Trace,
		}
		commit := func(*attribution.RunResult) error {
			root.Attr("outcome", "run").AttrInt("attempts", int64(rec.Attempts)).End(tel.Now())
			return nil
		}
		if err := p.analyze(trace, appSpan.id, i, in, app.Program.Dex, nil, nil, commit); err != nil {
			return nil, fmt.Errorf("app %d: %w", i, err)
		}
		appSpan.end()
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	p.res.wall = time.Since(start)
	return p.res, nil
}
