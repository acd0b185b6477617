package dispatch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"libspector/internal/apk"
	"libspector/internal/attribution"
	"libspector/internal/codec"
	"libspector/internal/corpus"
	"libspector/internal/dex"
	"libspector/internal/faults"
	"libspector/internal/journal"
	"libspector/internal/libradar"
	"libspector/internal/nets"
	"libspector/internal/pcap"
	"libspector/internal/xposed"
)

// ErrCorruptArtifact marks a stored run whose content fails integrity
// verification — a seal that no longer matches its bytes, an apk whose
// sha256 is not the run's key, or a section that does not decode.
// Callers separate it from plain I/O errors with errors.Is; resume
// requeues the affected run instead of attributing from silently wrong
// evidence.
var ErrCorruptArtifact = errors.New("dispatch: corrupt artifact")

// corruptf wraps a content-integrity failure of one stored run with the
// typed sentinel.
func corruptf(sha, format string, args ...any) error {
	return fmt.Errorf("%w %s: %s", ErrCorruptArtifact, sha, fmt.Sprintf(format, args...))
}

// Artifact persistence: the paper's workers send each run's packet capture
// and method trace "to a central database for later evaluation" (§II-B3).
// ArtifactStore materializes that database on disk so experiments can be
// re-analyzed offline — different heuristics, same raw evidence.
//
// Layout: one file per run, <dir>/<sha>.run, keyed by the apk's sha256
// and sealed in the codec envelope (DESIGN.md §13):
//
//	"LSEVID01" | body | crc32c(body) LE
//
// where the body is, in codec.Reader fields:
//
//	meta     string package | string sha256 | string category |
//	         varint monkey events | varint unix seconds | uvarint nanoseconds
//	apk      bytes — the exact apk under analysis
//	capture  bytes — the emulator's packet capture
//	reports  uvarint count | bytes datagram ...  (supervisor reports)
//	trace    uvarint count | string signature ... (strictly ascending)
//
// One checksum covers every byte resume and Reanalyze read.

// EvidenceMagic opens every stored run file.
const EvidenceMagic = "LSEVID01"

// runExt names a stored run's file: <sha>.run.
const runExt = ".run"

// RunMeta is the per-run metadata record.
type RunMeta struct {
	Package    string
	SHA256     string
	Category   corpus.AppCategory
	Events     int
	RecordedAt time.Time
}

// ArtifactStore reads and writes run artifacts under a root directory.
type ArtifactStore struct {
	dir string
	// faults, when armed via SetFaults, injects silent bit rot into stored
	// runs for crash-recovery testing (faults.ArtifactFlip).
	faults *faults.Injector
}

// NewArtifactStore creates the root directory if needed.
func NewArtifactStore(dir string) (*ArtifactStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("dispatch: empty artifact directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dispatch: creating artifact dir: %w", err)
	}
	return &ArtifactStore{dir: dir}, nil
}

// Dir returns the store root.
func (s *ArtifactStore) Dir() string { return s.dir }

// path is the run file of sha.
func (s *ArtifactStore) path(sha string) string { return filepath.Join(s.dir, sha+runExt) }

// Save persists one run's raw evidence as one sealed file, committed by
// journal.WriteFileAtomic like every other campaign output: a crash
// mid-save leaves the previous file or none, never a torn run.
//
// Saves of distinct shas may run concurrently: each writes its own temp
// file and publishes it with one rename. A fleet's workers save that way
// and never the same sha at once: every app's package name carries its
// index, so no two apps share an apk. Saving a sha that is already
// stored — a requeued run's fresh evidence over a damaged entry —
// replaces it; two concurrent saves of one sha are not supported.
func (s *ArtifactStore) Save(meta RunMeta, apkBytes, capture []byte, rawReports [][]byte, trace map[string]struct{}) error {
	if meta.SHA256 == "" {
		return fmt.Errorf("dispatch: artifact save without sha")
	}
	err := journal.WriteFileAtomic(s.path(meta.SHA256), func(w io.Writer) error {
		return writeEvidence(w, meta, apkBytes, capture, rawReports, trace)
	})
	if err != nil {
		return fmt.Errorf("dispatch: saving run %s: %w", meta.SHA256, err)
	}
	return nil
}

// writeEvidence streams one run file to w. The meta and the small
// sections are framed in buffers of their own; the apk and the capture
// are written as they are, and the seal's checksum accumulates across
// every part.
func writeEvidence(w io.Writer, meta RunMeta, apkBytes, capture []byte, rawReports [][]byte, trace map[string]struct{}) error {
	head := binary.AppendUvarint(appendMeta(nil, meta), uint64(len(apkBytes)))
	mid := binary.AppendUvarint(nil, uint64(len(capture)))

	sigs := make([]string, 0, len(trace))
	for sig := range trace {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	size := 2 * binary.MaxVarintLen64
	for _, raw := range rawReports {
		size += binary.MaxVarintLen64 + len(raw)
	}
	for _, sig := range sigs {
		size += binary.MaxVarintLen64 + len(sig)
	}
	tail := appendReports(make([]byte, 0, size), rawReports)
	tail = binary.AppendUvarint(tail, uint64(len(sigs)))
	for _, sig := range sigs {
		tail = codec.AppendString(tail, sig)
	}
	return codec.SealTo(w, EvidenceMagic, head, apkBytes, mid, capture, tail)
}

// appendMeta frames a run file's meta section.
func appendMeta(b []byte, meta RunMeta) []byte {
	b = codec.AppendString(b, meta.Package)
	b = codec.AppendString(b, meta.SHA256)
	b = codec.AppendString(b, meta.Category)
	b = binary.AppendVarint(b, int64(meta.Events))
	b = binary.AppendVarint(b, meta.RecordedAt.Unix())
	return binary.AppendUvarint(b, uint64(meta.RecordedAt.Nanosecond()))
}

// readMeta reads the meta section appendMeta framed.
func readMeta(r *codec.Reader) RunMeta {
	meta := RunMeta{Package: r.String(), SHA256: r.String(), Category: corpus.AppCategory(r.String()), Events: int(r.Varint())}
	sec, nsec := r.Varint(), r.Uvarint()
	if nsec >= uint64(time.Second) {
		r.Failf("recorded-at nanoseconds %d out of range", nsec)
	}
	meta.RecordedAt = time.Unix(sec, int64(nsec)).UTC()
	return meta
}

// appendReports frames a run file's reports section: the count, then
// each supervisor datagram length-prefixed.
func appendReports(b []byte, rawReports [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(rawReports)))
	for _, raw := range rawReports {
		b = codec.AppendString(b, raw)
	}
	return b
}

// readReports reads the reports section appendReports framed, decoding
// each datagram.
func readReports(r *codec.Reader) []*xposed.Report {
	var reports []*xposed.Report
	for n := r.Length(); n > 0 && r.Err() == nil; n-- {
		rep, err := xposed.DecodeReport(r.Bytes())
		if err != nil {
			r.Failf("stored report: %v", err)
		}
		reports = append(reports, rep)
	}
	return reports
}

// EncodeMeta is a run file's meta section on its own: the bytes
// writeEvidence writes first.
func EncodeMeta(meta RunMeta) []byte { return appendMeta(nil, meta) }

// DecodeMeta reads data as exactly one meta section, as DecodeEvidence
// reads it in place. Failures wrap ErrCorruptArtifact.
func DecodeMeta(data []byte) (RunMeta, error) {
	r := codec.NewReader(data, ErrCorruptArtifact)
	meta := readMeta(r)
	return meta, r.Finish()
}

// EncodeReports is a run file's reports section on its own.
func EncodeReports(rawReports [][]byte) []byte { return appendReports(nil, rawReports) }

// DecodeReports reads data as exactly one reports section, as
// DecodeEvidence reads it in place. Failures wrap ErrCorruptArtifact.
func DecodeReports(data []byte) ([]*xposed.Report, error) {
	r := codec.NewReader(data, ErrCorruptArtifact)
	reports := readReports(r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return reports, nil
}

// DecodeEvidence reads one run file back: the seal, every section, and
// the apk's sha256 against the meta's. Every failure wraps
// ErrCorruptArtifact. The run's byte fields alias data.
func DecodeEvidence(data []byte) (*StoredRun, error) {
	body, err := codec.Open(EvidenceMagic, data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
	}
	r := codec.NewReader(body, ErrCorruptArtifact)
	run := &StoredRun{Meta: readMeta(r), APK: r.Bytes(), Capture: r.Bytes()}
	run.Reports = readReports(r)
	n := r.Length()
	run.Trace = make(map[string]struct{}, n)
	for prev := ""; n > 0 && r.Err() == nil; n-- {
		sig := r.String()
		if len(run.Trace) > 0 && sig <= prev {
			r.Failf("trace signature %q out of order", sig)
		}
		run.Trace[sig], prev = struct{}{}, sig
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if got := apk.Checksum(run.APK); got != run.Meta.SHA256 {
		return nil, corruptf(run.Meta.SHA256, "stored apk checksum %s does not match the run's", got)
	}
	return run, nil
}

// Consume implements Sink: it commits the evidence an EventRun carries.
// Only events a caller builds itself carry any; a fleet's workers commit
// their own runs.
func (s *ArtifactStore) Consume(ev RunEvent) error {
	if ev.Kind != EventRun || ev.Evidence == nil {
		return nil
	}
	return s.commit(ev.AppIndex, ev.Evidence)
}

// commit is the one way a completed run's evidence enters the store: Save,
// then the artifact-flip injection when app i's plan draws it. A fleet
// worker calls it for each run it completes.
func (s *ArtifactStore) commit(i int, e *RunEvidence) error {
	if err := s.Save(e.Meta, e.APK, e.Capture, e.RawReports, e.Trace); err != nil {
		return err
	}
	if s.faults != nil && s.faults.Enabled(faults.ArtifactFlip) {
		// First-attempt plan only: the flip models post-commit disk rot,
		// not a retryable run fault, so it must not depend on how many
		// attempts the run itself took.
		if plan := s.faults.For(i, 1); plan.Class == faults.ArtifactFlip {
			if err := s.flipStoredBit(e.Meta.SHA256, plan.Param); err != nil {
				return fmt.Errorf("dispatch: injecting artifact flip: %w", err)
			}
		}
	}
	return nil
}

// List returns the stored run checksums, sorted, split into complete runs
// (<sha>.run files) and incomplete entries: "*.tmp-*" residue of an
// interrupted save, and <sha>/ directories of the five-file layout this
// store no longer reads. Incomplete entries are reported rather than
// silently skipped so a torn or stale store is visible to its operator.
func (s *ArtifactStore) List() (complete, incomplete []string, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("dispatch: listing artifacts: %w", err)
	}
	// ReadDir sorts by name, so both lists come out sorted.
	for _, e := range entries {
		name := e.Name()
		sha, isRun := strings.CutSuffix(name, runExt)
		switch {
		case strings.Contains(name, ".tmp-") || (e.IsDir() && len(name) == 64):
			incomplete = append(incomplete, name)
		case isRun && len(sha) == 64 && !e.IsDir():
			complete = append(complete, sha)
		}
	}
	return complete, incomplete, nil
}

// StoredRun is one run loaded back from disk.
type StoredRun struct {
	Meta RunMeta
	// APK is the stored apk's bytes, verified by Load: they hash to the
	// run's key, and the seal proves them the bytes the live apk store
	// checked. A reader that needs the program decodes them itself
	// (Reanalyze).
	APK     []byte
	Capture []byte
	Reports []*xposed.Report
	Trace   map[string]struct{}
}

// Load reads one run back with one decode (DecodeEvidence) and checks that
// it is the run stored under sha. Content-integrity failures wrap the
// typed ErrCorruptArtifact so callers never mistake bit rot for an I/O
// hiccup — and never analyze silently wrong evidence; a missing run file
// is a plain error.
func (s *ArtifactStore) Load(sha string) (*StoredRun, error) {
	data, err := os.ReadFile(s.path(sha))
	if err != nil {
		return nil, fmt.Errorf("dispatch: reading run %s: %w", sha, err)
	}
	run, err := DecodeEvidence(data)
	switch {
	case err != nil:
		return nil, fmt.Errorf("%w (run %s)", err, sha)
	case run.Meta.SHA256 != sha:
		return nil, corruptf(sha, "file holds the run of %s", run.Meta.SHA256)
	}
	return run, nil
}

// Verify audits one stored run: it is Load, result discarded.
func (s *ArtifactStore) Verify(sha string) error {
	_, err := s.Load(sha)
	return err
}

// AuditEntry is one damaged store entry in an AuditReport.
type AuditEntry struct {
	SHA string
	Err error
}

// AuditReport is the store-wide integrity verdict.
type AuditReport struct {
	// OK lists entries that passed verification, sorted.
	OK []string
	// Corrupt lists entries whose content failed verification, sorted by
	// sha; each Err wraps ErrCorruptArtifact for content damage.
	Corrupt []AuditEntry
	// Incomplete lists the temp-file residue of interrupted saves and
	// directories of the retired five-file layout (from List), sorted.
	Incomplete []string
}

// Clean reports whether the audit found nothing wrong.
func (r *AuditReport) Clean() bool {
	return len(r.Corrupt) == 0 && len(r.Incomplete) == 0
}

// Audit verifies every entry of the store and returns the typed
// corruption report — the offline integrity sweep behind the
// `libspector audit` subcommand and the resume cross-check.
func (s *ArtifactStore) Audit() (*AuditReport, error) {
	complete, incomplete, err := s.List()
	if err != nil {
		return nil, err
	}
	report := &AuditReport{Incomplete: incomplete}
	for _, sha := range complete {
		if err := s.Verify(sha); err != nil {
			report.Corrupt = append(report.Corrupt, AuditEntry{SHA: sha, Err: err})
		} else {
			report.OK = append(report.OK, sha)
		}
	}
	return report, nil
}

// SetFaults arms the store's crash-class fault hook: after the save of a
// completed run whose app's plan is faults.ArtifactFlip, one bit of the
// run file is flipped in place — silent bit rot for the audit and resume
// paths to detect.
func (s *ArtifactStore) SetFaults(inj *faults.Injector) { s.faults = inj }

// flipStoredBit corrupts one byte of a stored run file, deterministically
// derived from the plan parameter. A run file is never empty: the seal
// alone is twelve bytes.
func (s *ArtifactStore) flipStoredBit(sha string, param uint64) error {
	data, err := os.ReadFile(s.path(sha))
	if err != nil {
		return err
	}
	data[param%uint64(len(data))] ^= 1 << ((param >> 32) % 8)
	return os.WriteFile(s.path(sha), data, 0o644)
}

// Reanalyze runs the offline analysis over every stored run — the "later
// evaluation" half of the paper's pipeline, decoupled from execution. It
// is the one reader of a stored apk's program, so it decodes each apk
// Load verified; in the same pass it feeds the apk to detector's LibRadar
// observation (nil skips it), so one load and one decode serve both.
func (s *ArtifactStore) Reanalyze(attributor *attribution.Attributor, detector *libradar.Detector) ([]*attribution.RunResult, error) {
	if attributor == nil {
		return nil, fmt.Errorf("dispatch: nil attributor")
	}
	shas, _, err := s.List()
	if err != nil {
		return nil, err
	}
	out := make([]*attribution.RunResult, 0, len(shas))
	for _, sha := range shas {
		stored, err := s.Load(sha)
		if err != nil {
			return nil, fmt.Errorf("dispatch: loading %s: %w", sha, err)
		}
		pack, err := apk.Decode(stored.APK)
		if err != nil {
			return nil, corruptf(sha, "decoding stored apk: %v", err)
		}
		if detector != nil {
			if err := detector.ObserveApp(stored.Meta.Package, pack.Dex.Packages()); err != nil {
				return nil, err
			}
		}
		run, err := attributor.AnalyzeRun(attribution.RunInput{
			AppSHA:        stored.Meta.SHA256,
			AppPackage:    stored.Meta.Package,
			AppCategory:   stored.Meta.Category,
			Capture:       pcap.InPlace(stored.Capture),
			Reports:       stored.Reports,
			Trace:         stored.Trace,
			Disassembly:   dex.DisassembleFile(pack.Dex),
			LocalAddr:     nets.DefaultLocalAddr,
			CollectorAddr: nets.DefaultCollectorAddr,
			CollectorPort: nets.DefaultCollectorPort,
		})
		if err != nil {
			return nil, fmt.Errorf("dispatch: reanalyzing %s: %w", sha, err)
		}
		out = append(out, run)
	}
	return out, nil
}
