package dispatch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
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
	"libspector/internal/nets"
	"libspector/internal/xposed"
)

// ErrCorruptArtifact marks stored evidence whose content fails integrity
// verification — an apk whose sha256 no longer matches its directory key,
// undecodable metadata, or torn report framing. Callers separate it from
// plain I/O errors with errors.Is; resume requeues the affected run
// instead of attributing from silently wrong evidence.
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
// Layout (one directory per run, keyed by apk sha256):
//
//	<dir>/<sha>/app.apk       — the exact apk under analysis
//	<dir>/<sha>/capture.pcap  — the emulator's packet capture
//	<dir>/<sha>/reports.bin   — length-prefixed supervisor datagrams
//	<dir>/<sha>/trace.txt     — Method Monitor trace (one signature/line)
//	<dir>/<sha>/meta.json     — run metadata

// RunMeta is the per-run metadata record.
type RunMeta struct {
	Package    string             `json:"package"`
	SHA256     string             `json:"sha256"`
	Category   corpus.AppCategory `json:"category"`
	Events     int                `json:"monkey_events"`
	RecordedAt time.Time          `json:"recorded_at"`
}

// ArtifactStore reads and writes run artifacts under a root directory.
type ArtifactStore struct {
	dir string
	// faults, when armed via SetFaults, injects silent bit rot into stored
	// apks for crash-recovery testing (faults.ArtifactFlip).
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

// Save persists one run's raw evidence atomically: everything is written
// into a hidden temp directory first, then renamed into place, so a crash
// (or an injected fault) mid-save can never leave a partial run directory
// that passes for a complete one.
func (s *ArtifactStore) Save(meta RunMeta, apkBytes, capture []byte, rawReports [][]byte, trace map[string]struct{}) error {
	if meta.SHA256 == "" {
		return fmt.Errorf("dispatch: artifact save without sha")
	}
	runDir, err := os.MkdirTemp(s.dir, tmpPrefix)
	if err != nil {
		return fmt.Errorf("dispatch: creating run temp dir: %w", err)
	}
	committed := false
	defer func() {
		if !committed {
			_ = os.RemoveAll(runDir)
		}
	}()
	metaJSON, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("dispatch: marshaling meta: %w", err)
	}
	if err := writeFileSync(filepath.Join(runDir, "meta.json"), metaJSON); err != nil {
		return fmt.Errorf("dispatch: writing meta: %w", err)
	}
	if err := writeFileSync(filepath.Join(runDir, "app.apk"), apkBytes); err != nil {
		return fmt.Errorf("dispatch: writing apk: %w", err)
	}
	if err := writeFileSync(filepath.Join(runDir, "capture.pcap"), capture); err != nil {
		return fmt.Errorf("dispatch: writing capture: %w", err)
	}

	if err := writeFileSync(filepath.Join(runDir, "reports.bin"), EncodeReports(rawReports)); err != nil {
		return fmt.Errorf("dispatch: writing reports: %w", err)
	}

	sigs := make([]string, 0, len(trace))
	for sig := range trace {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	var traceBuf bytes.Buffer
	for _, sig := range sigs {
		traceBuf.WriteString(sig)
		traceBuf.WriteByte('\n')
	}
	if err := writeFileSync(filepath.Join(runDir, "trace.txt"), traceBuf.Bytes()); err != nil {
		return fmt.Errorf("dispatch: writing trace: %w", err)
	}

	// MkdirTemp creates the directory 0o700; open it up to match the old
	// in-place layout before publishing.
	if err := os.Chmod(runDir, 0o755); err != nil {
		return fmt.Errorf("dispatch: chmod run dir: %w", err)
	}
	// The five entries must be durable in the run directory before the
	// rename publishes it — fsyncing the files alone pins their contents,
	// not their names.
	if err := journal.SyncDir(runDir); err != nil {
		return fmt.Errorf("dispatch: syncing run dir: %w", err)
	}
	target := filepath.Join(s.dir, meta.SHA256)
	if err := os.Rename(runDir, target); err != nil {
		// Re-saving the same sha: rename onto a non-empty directory fails
		// on POSIX, so clear the stale run and publish again.
		if rmErr := os.RemoveAll(target); rmErr != nil {
			return fmt.Errorf("dispatch: replacing run dir: %w", rmErr)
		}
		if err := os.Rename(runDir, target); err != nil {
			return fmt.Errorf("dispatch: publishing run dir: %w", err)
		}
	}
	committed = true
	// Rename makes the run visible; only the store-root fsync makes the
	// commit durable. Skipping it is how a "saved" artifact vanishes in a
	// crash and resume finds a journal that promises evidence the disk
	// never kept.
	return journal.SyncDir(s.dir)
}

// writeFileSync is os.WriteFile plus the fsync it omits: artifact
// evidence backs journal replay, so its contents must be on disk before
// the run directory is published, not merely in the page cache.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	return err
}

// Consume implements Sink: every completed run with attached evidence
// (Config.Artifacts set) is persisted as it streams past, making the store a
// plain stream consumer instead of a dispatcher special case.
func (s *ArtifactStore) Consume(ev RunEvent) error {
	if ev.Kind != EventRun || ev.Evidence == nil {
		return nil
	}
	e := ev.Evidence
	if err := s.Save(e.Meta, e.APK, e.Capture, e.RawReports, e.Trace); err != nil {
		return err
	}
	if s.faults != nil && s.faults.Enabled(faults.ArtifactFlip) {
		// First-attempt plan only: the flip models post-commit disk rot,
		// not a retryable run fault, so it must not depend on how many
		// attempts the run itself took.
		if plan := s.faults.For(ev.AppIndex, 1); plan.Class == faults.ArtifactFlip {
			if err := s.flipStoredBit(e.Meta.SHA256, plan.Param); err != nil {
				return fmt.Errorf("dispatch: injecting artifact flip: %w", err)
			}
		}
	}
	return nil
}

// tmpPrefix marks in-flight Save directories; anything still carrying it is
// an abandoned partial save.
const tmpPrefix = ".tmp-run-"

// runFiles is the complete set a run directory must hold.
var runFiles = [...]string{"meta.json", "app.apk", "capture.pcap", "reports.bin", "trace.txt"}

// List returns the stored run checksums, sorted, split into complete runs
// and incomplete entries (abandoned temp dirs, or run dirs missing any
// artifact file). Incomplete entries are reported rather than silently
// skipped so a torn store is visible to its operator.
func (s *ArtifactStore) List() (complete, incomplete []string, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("dispatch: listing artifacts: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			incomplete = append(incomplete, name)
			continue
		}
		if len(name) != 64 {
			continue
		}
		whole := true
		for _, f := range runFiles {
			if _, statErr := os.Stat(filepath.Join(s.dir, name, f)); statErr != nil {
				whole = false
				break
			}
		}
		if whole {
			complete = append(complete, name)
		} else {
			incomplete = append(incomplete, name)
		}
	}
	sort.Strings(complete)
	sort.Strings(incomplete)
	return complete, incomplete, nil
}

// StoredRun is one run loaded back from disk.
type StoredRun struct {
	Meta    RunMeta
	APK     *apk.APK
	Capture []byte
	Reports []*xposed.Report
	Trace   map[string]struct{}
}

// DecodeMeta parses and validates one stored meta.json against its run
// directory key. Content failures wrap ErrCorruptArtifact.
func DecodeMeta(data []byte, sha string) (RunMeta, error) {
	var meta RunMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return RunMeta{}, corruptf(sha, "parsing meta: %v", err)
	}
	if meta.SHA256 != sha {
		return RunMeta{}, corruptf(sha, "meta sha %s does not match directory key", meta.SHA256)
	}
	if meta.Package == "" {
		return RunMeta{}, corruptf(sha, "meta has no package name")
	}
	return meta, nil
}

// EncodeReports builds a reports.bin image: the run's supervisor
// datagrams, each length-prefixed.
func EncodeReports(rawReports [][]byte) []byte {
	size := 0
	for _, raw := range rawReports {
		size += binary.MaxVarintLen16 + len(raw)
	}
	b := make([]byte, 0, size)
	for _, raw := range rawReports {
		b = codec.AppendString(b, raw)
	}
	return b
}

// DecodeReports parses a reports.bin image. Framing or decode failures
// wrap ErrCorruptArtifact.
func DecodeReports(data []byte, sha string) ([]*xposed.Report, error) {
	var out []*xposed.Report
	r := codec.NewReader(data, ErrCorruptArtifact)
	for r.Remaining() > 0 {
		raw := r.Bytes()
		if r.Err() != nil {
			return nil, fmt.Errorf("%w (reports of %s)", r.Err(), sha)
		}
		rep, err := xposed.DecodeReport(raw)
		if err != nil {
			return nil, corruptf(sha, "decoding stored report: %v", err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// Load reads one run's artifacts back, verifying the on-disk apk's
// sha256 against its directory key. Content-integrity failures wrap the
// typed ErrCorruptArtifact so callers never mistake bit rot for an I/O
// hiccup — and never analyze silently wrong evidence.
func (s *ArtifactStore) Load(sha string) (*StoredRun, error) {
	runDir := filepath.Join(s.dir, sha)
	metaJSON, err := os.ReadFile(filepath.Join(runDir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("dispatch: reading meta: %w", err)
	}
	run := &StoredRun{}
	if run.Meta, err = DecodeMeta(metaJSON, sha); err != nil {
		return nil, err
	}

	apkBytes, err := os.ReadFile(filepath.Join(runDir, "app.apk"))
	if err != nil {
		return nil, fmt.Errorf("dispatch: reading apk: %w", err)
	}
	if got := apk.Checksum(apkBytes); got != sha {
		return nil, corruptf(sha, "stored apk checksum %s does not match directory key", got)
	}
	if run.APK, err = apk.Decode(apkBytes); err != nil {
		return nil, corruptf(sha, "decoding stored apk: %v", err)
	}

	if run.Capture, err = os.ReadFile(filepath.Join(runDir, "capture.pcap")); err != nil {
		return nil, fmt.Errorf("dispatch: reading capture: %w", err)
	}

	reportBytes, err := os.ReadFile(filepath.Join(runDir, "reports.bin"))
	if err != nil {
		return nil, fmt.Errorf("dispatch: reading reports: %w", err)
	}
	if run.Reports, err = DecodeReports(reportBytes, sha); err != nil {
		return nil, err
	}

	traceFile, err := os.Open(filepath.Join(runDir, "trace.txt"))
	if err != nil {
		return nil, fmt.Errorf("dispatch: opening trace: %w", err)
	}
	defer func() { _ = traceFile.Close() }()
	run.Trace = make(map[string]struct{})
	sc := bufio.NewScanner(traceFile)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			run.Trace[line] = struct{}{}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dispatch: scanning trace: %w", err)
	}
	return run, nil
}

// Verify audits one stored run without decoding the apk into a program:
// every artifact file must exist, the apk must hash to the directory key,
// the metadata must parse and agree with the key, and the report framing
// must decode. Missing files surface as plain errors; content damage
// wraps ErrCorruptArtifact.
func (s *ArtifactStore) Verify(sha string) error {
	runDir := filepath.Join(s.dir, sha)
	for _, f := range runFiles {
		if _, err := os.Stat(filepath.Join(runDir, f)); err != nil {
			return fmt.Errorf("dispatch: artifact %s missing %s: %w", sha, f, err)
		}
	}
	metaJSON, err := os.ReadFile(filepath.Join(runDir, "meta.json"))
	if err != nil {
		return fmt.Errorf("dispatch: reading meta: %w", err)
	}
	if _, err := DecodeMeta(metaJSON, sha); err != nil {
		return err
	}
	apkBytes, err := os.ReadFile(filepath.Join(runDir, "app.apk"))
	if err != nil {
		return fmt.Errorf("dispatch: reading apk: %w", err)
	}
	if got := apk.Checksum(apkBytes); got != sha {
		return corruptf(sha, "stored apk checksum %s does not match directory key", got)
	}
	reportBytes, err := os.ReadFile(filepath.Join(runDir, "reports.bin"))
	if err != nil {
		return fmt.Errorf("dispatch: reading reports: %w", err)
	}
	if _, err := DecodeReports(reportBytes, sha); err != nil {
		return err
	}
	return nil
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
	// Incomplete lists abandoned temp dirs and run dirs missing artifact
	// files (from List), sorted.
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

// SetFaults arms the store's crash-class fault hook: after a Save
// triggered by an EventRun whose app's plan is faults.ArtifactFlip, one
// bit of the stored apk is flipped in place — silent bit rot for the
// audit and resume paths to detect.
func (s *ArtifactStore) SetFaults(inj *faults.Injector) { s.faults = inj }

// flipStoredBit corrupts one stored apk byte, deterministically derived
// from the plan parameter.
func (s *ArtifactStore) flipStoredBit(sha string, param uint64) error {
	path := filepath.Join(s.dir, sha, "app.apk")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	data[param%uint64(len(data))] ^= 1 << ((param >> 32) % 8)
	return os.WriteFile(path, data, 0o644)
}

// Reanalyze runs the offline analysis over every stored run — the "later
// evaluation" half of the paper's pipeline, decoupled from execution.
func (s *ArtifactStore) Reanalyze(attributor *attribution.Attributor) ([]*attribution.RunResult, error) {
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
		run, err := attributor.AnalyzeRun(attribution.RunInput{
			AppSHA:        stored.Meta.SHA256,
			AppPackage:    stored.Meta.Package,
			AppCategory:   stored.Meta.Category,
			Capture:       bytes.NewReader(stored.Capture),
			Reports:       stored.Reports,
			Trace:         stored.Trace,
			Disassembly:   dex.DisassembleFile(stored.APK.Dex),
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
