package dispatch

import (
	"errors"
	"fmt"

	"libspector/internal/attribution"
	"libspector/internal/dex"
	"libspector/internal/journal"
	"libspector/internal/nets"
	"libspector/internal/obs"
	"libspector/internal/pcap"
	"libspector/internal/synth"
)

// Resume: replaying journaled outcomes back into a restarted stream.
//
// A resumed campaign must end byte-identical to an uninterrupted same-seed
// run. A replayed app therefore walks the same lifecycle as a live one —
// its journaled transitions go through the same apply (lifecycle.go) — and
// this file holds only what is replay's own: rebuilding a completed run's
// result from its stored evidence (the same offline analysis the live run
// performed, over the same bytes), and never trusting silently — the
// stored run's seal is checked and its apk re-hashed against the
// journal-recorded sha, and any missing or corrupt evidence demotes the
// replay to a live requeued run.

// replayApp reads one app's journaled transitions — its retries, then its
// terminal outcome — back into the stream without re-running the app.
func (f *fleetRun) replayApp(env *runEnv, i int, rec journal.AppOutcome, retries []journal.RetryInfo) {
	last := transition{attempt: rec.Attempts, backoff: rec.Backoff, backoffMS: rec.BackoffMS, meters: rec.Meters}
	env.release()
	switch {
	case rec.Outcome == journal.OutcomeRun:
		app, run, err := f.reconstructRun(env, i, rec)
		if err != nil {
			// The journal says done but the evidence doesn't back it up:
			// requeue the run live rather than fabricate a result. The
			// requeued run re-saves fresh evidence over the damaged entry
			// and walks its own lifecycle, so none of the journaled one is
			// applied.
			now := f.tel.Now()
			f.tel.Trace(TraceID(i)).Span(obs.SpanDispatch, now).AttrInt("app", int64(i)).
				Attr("resume", "replay").Attr("outcome", "requeue").Attr("reason", err.Error()).End(now)
			f.tel.Counter(obs.MResumeRequeued).Inc()
			f.runApp(env, i, true)
			return
		}
		last.kind, last.run, env.app = outcomeRun, run, app
	case rec.Outcome == journal.OutcomeSkip:
		last.kind = outcomeSkip
	default:
		last.kind, last.err = outcomeFailed, errors.New(rec.Error)
		if rec.Quarantined {
			last.kind = outcomeQuarantined
		}
		// Failed and quarantined apps were observed by the detector on
		// their live first attempt too. Generation failures are tolerated:
		// if the app cannot be generated now, it could not have been
		// observed then either.
		if f.cfg.Detector != nil {
			if app, err := env.generate(i); err == nil && app.APK.SupportsX86() {
				env.app = app
			}
		}
	}
	a := f.begin(env, i, true, false)
	for _, r := range retries {
		chargeMeters(env.meters, r.Meters)
		a.apply(transition{kind: outcomeRetry, attempt: r.Attempt, err: errors.New(r.Error), meters: r.Meters})
	}
	chargeMeters(env.meters, last.meters)
	a.apply(last)
}

// reconstructRun rebuilds a completed run's attribution result from the
// artifact store: regenerate the app (the corpus is deterministic),
// cross-check the journal-recorded sha against both the regenerated apk
// and the stored evidence, and re-run the same offline analysis over the
// stored bytes. Any integrity failure is returned for the caller to
// requeue.
func (f *fleetRun) reconstructRun(env *runEnv, i int, rec journal.AppOutcome) (*synth.App, *attribution.RunResult, error) {
	app, err := env.generate(i)
	if err != nil {
		return nil, nil, fmt.Errorf("regenerating app: %w", err)
	}
	if rec.ArtifactSHA == "" {
		return nil, nil, fmt.Errorf("journaled run has no artifact sha")
	}
	if rec.ArtifactSHA != app.SHA256 {
		return nil, nil, fmt.Errorf("journaled sha %s does not match regenerated apk %s", rec.ArtifactSHA, app.SHA256)
	}
	stored, err := f.cfg.Artifacts.Load(rec.ArtifactSHA)
	if err != nil {
		return nil, nil, fmt.Errorf("loading evidence: %w", err)
	}
	pack := app.APK
	attrSpan := f.tel.Trace(TraceID(i)).Span(obs.SpanAttribution, f.tel.Now())
	run, err := f.cfg.Attributor.AnalyzeRun(attribution.RunInput{
		AppSHA:        app.SHA256,
		AppPackage:    pack.Manifest.Package,
		AppCategory:   pack.Manifest.Category,
		Capture:       pcap.InPlace(stored.Capture),
		Reports:       stored.Reports,
		Trace:         stored.Trace,
		Disassembly:   dex.DisassembleFile(app.Program.Dex),
		LocalAddr:     nets.DefaultLocalAddr,
		CollectorAddr: nets.DefaultCollectorAddr,
		CollectorPort: nets.DefaultCollectorPort,
	})
	if err != nil {
		attrSpan.Attr("outcome", "error").End(f.tel.Now())
		return nil, nil, fmt.Errorf("reattributing stored evidence: %w", err)
	}
	attrSpan.AttrInt("flows", int64(len(run.Flows))).End(f.tel.Now())
	return app, run, nil
}
