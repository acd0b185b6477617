// Package journal is the campaign's durable write-ahead log. The paper's
// measurement runs 25,000 apps over roughly three months on a worker
// fleet (§II-B3, §III) — a timescale where host reboots, OOM kills, and
// disk faults are certainties — yet a crash must not restart the campaign
// from app #1. The journal records one append-only, checksummed record
// per campaign lifecycle event (campaign header, run-started,
// run-completed, run-quarantined) so a restarted dispatcher can replay
// exactly what the dead one had finished and resume from there.
//
// Durability discipline:
//
//   - Every record is framed as [length uint32][crc32c uint32][payload]
//     (little-endian, CRC32C Castagnoli over the payload), so torn writes
//     and bit rot are detectable per record.
//   - Appends are buffered and fsynced in batches (Options.SyncEvery);
//     the header, explicit Sync calls, and Close always reach the disk.
//   - The replay reader tolerates a torn tail — a record cut short by a
//     crash mid-write is dropped and the file is truncatable at the last
//     good record — but corruption strictly *before* the tail (a bad
//     record with valid bytes after it) is a typed, non-recoverable
//     error: the journal's history itself is damaged and silently
//     dropping interior records would fabricate campaign state.
//
// That discipline is held once, by the generic record log (Log, log.go),
// which the run journal and the coordinator WAL both instantiate. The
// package imports only the standard library and internal/codec (for the
// shared CRC32C), so every layer can import it without cycles.
package journal

import (
	"errors"
	"fmt"
	"os"
	"time"
)

// Typed errors. ErrCorrupt marks mid-file corruption (a damaged record
// followed by more journal data — unrecoverable without fabricating
// history); ErrNoHeader a journal whose first record is not a campaign
// header; ErrFingerprintMismatch a resume attempt against a journal
// recorded under a different seed or configuration; ErrTornWrite an
// injected torn append (the writer's crash-fault hook).
var (
	ErrCorrupt             = errors.New("journal: corrupt record")
	ErrNoHeader            = errors.New("journal: missing campaign header")
	ErrFingerprintMismatch = errors.New("journal: campaign fingerprint mismatch")
	ErrTornWrite           = errors.New("journal: torn write injected")
)

// CorruptError carries the location of mid-file corruption. It wraps
// ErrCorrupt for errors.Is.
type CorruptError struct {
	// Offset is the byte offset of the damaged record's frame.
	Offset int64
	// Record is the zero-based index of the damaged record.
	Record int
	// Reason describes what failed (crc mismatch, oversized frame,
	// undecodable payload, ...).
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: corrupt record %d at offset %d: %s", e.Record, e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorrupt) hold.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// frameHeaderSize is the per-record framing overhead: length + crc32c.
const frameHeaderSize = 8

// maxRecordSize bounds one record's payload; anything larger in a frame
// header is corruption, not a record (the largest legitimate record is a
// few hundred bytes of JSON).
const maxRecordSize = 1 << 20

// Type discriminates journal records.
type Type string

const (
	// TypeCampaign is the mandatory first record: campaign identity.
	TypeCampaign Type = "campaign"
	// TypeStarted marks a run handed to a worker.
	TypeStarted Type = "started"
	// TypeRetry marks one failed attempt before a retry: the attempt
	// number and its error text, so a resumed campaign can reproduce the
	// run's retry history (and its logged run.retry events) exactly.
	TypeRetry Type = "retry"
	// TypeCompleted marks a run that finished (outcome run, skip, or
	// failed) after the collector drain.
	TypeCompleted Type = "completed"
	// TypeQuarantined marks an app that exhausted its retry budget.
	TypeQuarantined Type = "quarantined"
)

// Outcome is the terminal state of one app recorded by a TypeCompleted
// record.
type Outcome string

const (
	// OutcomeRun is a successfully attributed run (artifact sha recorded).
	OutcomeRun Outcome = "run"
	// OutcomeSkip is an app excluded by the §III-A ABI filter.
	OutcomeSkip Outcome = "skip"
	// OutcomeFailed is an app whose final attempt failed without
	// quarantine (single-attempt or fail-fast fleets).
	OutcomeFailed Outcome = "failed"
)

// Header identifies a campaign: the seed, the configuration fingerprint
// (a hash over every config field that shapes results), and the corpus
// size. Resume refuses a journal whose header does not match the
// restarted campaign's.
type Header struct {
	Seed        uint64 `json:"seed"`
	Fingerprint string `json:"fingerprint"`
	Apps        int    `json:"apps"`
	// ShardLo/ShardHi bound the contiguous app-index range this journal
	// covers when the campaign is sharded ([lo, hi)). Both zero for a
	// whole-corpus journal, so pre-sharding journals keep matching.
	ShardLo int `json:"shard_lo,omitempty"`
	ShardHi int `json:"shard_hi,omitempty"`
}

// Match checks campaign identity, returning ErrFingerprintMismatch
// (wrapped with the differing fields) when the journal belongs to a
// different seed/flag-set.
func (h Header) Match(want Header) error {
	if h == want {
		return nil
	}
	return fmt.Errorf("%w: journal has seed=%d apps=%d fingerprint=%s, campaign has seed=%d apps=%d fingerprint=%s",
		ErrFingerprintMismatch, h.Seed, h.Apps, h.Fingerprint, want.Seed, want.Apps, want.Fingerprint)
}

// Record is one journal entry. Only the fields relevant to its Type are
// set; the JSON encoding omits the rest.
type Record struct {
	Type Type `json:"type"`

	// Campaign header fields (TypeCampaign).
	Seed        uint64 `json:"seed,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Apps        int    `json:"apps,omitempty"`
	ShardLo     int    `json:"shard_lo,omitempty"`
	ShardHi     int    `json:"shard_hi,omitempty"`

	// Per-app fields.
	App     int     `json:"app,omitempty"`
	Outcome Outcome `json:"outcome,omitempty"`
	// ArtifactSHA is the run's apk sha256 — the key of its <sha>.run file
	// in the artifact store — for OutcomeRun records, so resume can
	// cross-check the evidence on disk.
	ArtifactSHA string `json:"artifact_sha,omitempty"`
	// Attempts, BackoffNS, and BackoffMS replicate the run's retry
	// accounting so a resumed campaign's ledger and metrics fold to the
	// same totals as an uninterrupted one (BackoffMS mirrors the
	// per-wait truncation the live metrics counter applies).
	Attempts  int   `json:"attempts,omitempty"`
	BackoffNS int64 `json:"backoff_ns,omitempty"`
	BackoffMS int64 `json:"backoff_ms,omitempty"`
	// Error is the final attempt's error text (failed/quarantined).
	Error string `json:"error,omitempty"`
	// Meters is the telemetry delta of the one attempt this record ends
	// — a retry, completed, or quarantined record each carry their own
	// attempt's — so a resumed or taken-over campaign's metrics snapshot
	// folds to the same totals as an uninterrupted one. Absent when the
	// attempt charged nothing (a skip) and on journals written before
	// failed attempts were metered, whose replays restore only what was
	// recorded.
	Meters *RunMeters `json:"meters,omitempty"`
}

// RunMeters is the telemetry delta one attempt charged to the campaign
// registry: everything a journal replay cannot re-derive from the stored
// evidence alone. All fields are additive int64 counts, so replaying
// them is commutative like every other fold in the pipeline.
type RunMeters struct {
	// Runs is the emulator run count this record covers (1 for an
	// attempt that reached the emulator).
	Runs int64 `json:"runs,omitempty"`
	// Events is the number of monkey events injected.
	Events int64 `json:"events,omitempty"`
	// VirtualMS is the run's device-time span in milliseconds — the
	// emulator_run_virtual_ms histogram observation.
	VirtualMS int64 `json:"virtual_ms,omitempty"`
	// Wire-byte and packet counters from the run's network stack.
	TCPWireBytes int64 `json:"tcp_wire_bytes,omitempty"`
	UDPWireBytes int64 `json:"udp_wire_bytes,omitempty"`
	DNSWireBytes int64 `json:"dns_wire_bytes,omitempty"`
	Packets      int64 `json:"packets,omitempty"`
	CaptureBytes int64 `json:"capture_bytes,omitempty"`
	BlockedConns int64 `json:"blocked_conns,omitempty"`
	DroppedGrams int64 `json:"dropped_grams,omitempty"`
	// Supervisor report accounting.
	ReportsSent int64 `json:"reports_sent,omitempty"`
	HookErrors  int64 `json:"hook_errors,omitempty"`
	// CollectorReceived is how many datagrams the attempt put on the wire
	// toward the collector server — reports sent minus those the wire
	// dropped (0 when the campaign runs without a collector).
	CollectorReceived int64 `json:"collector_received,omitempty"`
}

// Options parameterizes a Writer.
type Options struct {
	// SyncEvery batches fsyncs: the file is synced after every N appended
	// records (and always on Sync/Close). 0 uses DefaultSyncEvery; 1
	// syncs every record.
	SyncEvery int
}

// DefaultSyncEvery is the fsync batch size when Options.SyncEvery is 0:
// small enough that a host crash loses at most a few seconds of
// progress, large enough that the journal never bounds fleet throughput.
const DefaultSyncEvery = 16

// IsHeader marks the campaign record as the journal's header
// (LogRecord).
func (r Record) IsHeader() bool { return r.Type == TypeCampaign }

// Writer appends records to a journal file. It is safe for concurrent
// use by the fleet's workers. Framing, fsync batching, the broken-latch,
// tear injection, and recovery are Log's (Append, Sync, InjectTear, and
// Close are its methods); Writer owns only the record schema.
type Writer struct {
	*Log[Record]
}

// Create truncates (or creates) the journal at path and writes the
// campaign header as its first, immediately-synced record.
func Create(path string, hdr Header, opts Options) (*Writer, error) {
	l, err := CreateLog(path, Record{Type: TypeCampaign, Seed: hdr.Seed, Fingerprint: hdr.Fingerprint, Apps: hdr.Apps, ShardLo: hdr.ShardLo, ShardHi: hdr.ShardHi}, opts)
	if err != nil {
		return nil, err
	}
	return &Writer{l}, nil
}

// Recover replays an existing journal, truncates any torn tail left by a
// crash mid-append, and reopens the file for appending — the restart
// path for callers that own the file whatever its header says. Mid-file
// corruption is not recoverable and surfaces as a *CorruptError.
func Recover(path string, opts Options) (*Writer, *Replay, error) {
	return recoverJournal(path, opts, nil)
}

// Resume is Recover for a campaign that knows its identity: the
// journal's header is matched against want before anything is
// truncated, so a journal recorded under another seed or configuration
// is refused with ErrFingerprintMismatch and left byte-for-byte as it
// was found.
func Resume(path string, want Header, opts Options) (*Writer, *Replay, error) {
	return recoverJournal(path, opts, &want)
}

func recoverJournal(path string, opts Options, want *Header) (*Writer, *Replay, error) {
	r := newReplay()
	l, validLen, tornBytes, err := RecoverLog(path, opts, r.fold(want))
	if err != nil {
		return nil, nil, err
	}
	r.ValidLen, r.TornBytes = validLen, tornBytes
	return &Writer{l}, r, nil
}

// RunStarted records an app handed to a worker.
func (w *Writer) RunStarted(app int) error {
	return w.Append(Record{Type: TypeStarted, App: app})
}

// RunCompleted records a finished run: its outcome, the artifact sha
// backing it (OutcomeRun), and the retry accounting it consumed.
func (w *Writer) RunCompleted(app int, outcome Outcome, artifactSHA string, attempts int, backoff time.Duration, backoffMS int64, errText string) error {
	return w.RunCompletedMetered(app, outcome, artifactSHA, attempts, backoff, backoffMS, errText, nil)
}

// RunCompletedMetered is RunCompleted carrying the run's per-run
// telemetry deltas, so replay can restore the metrics a dead process took
// with it.
func (w *Writer) RunCompletedMetered(app int, outcome Outcome, artifactSHA string, attempts int, backoff time.Duration, backoffMS int64, errText string, meters *RunMeters) error {
	return w.Append(Record{
		Type: TypeCompleted, App: app, Outcome: outcome, ArtifactSHA: artifactSHA,
		Attempts: attempts, BackoffNS: int64(backoff), BackoffMS: backoffMS, Error: errText,
		Meters: meters,
	})
}

// RunQuarantined records an app that exhausted its retry budget, so it
// stays quarantined across restarts instead of poisoning the resumed
// fleet again.
func (w *Writer) RunQuarantined(app, attempts int, backoff time.Duration, backoffMS int64, errText string) error {
	return w.Append(Record{
		Type: TypeQuarantined, App: app,
		Attempts: attempts, BackoffNS: int64(backoff), BackoffMS: backoffMS, Error: errText,
	})
}

// AppOutcome is the replayed terminal state of one app.
type AppOutcome struct {
	// Outcome is OutcomeRun/OutcomeSkip/OutcomeFailed for completed
	// records and "" for quarantines (Quarantined is set instead).
	Outcome Outcome
	// Quarantined reports a TypeQuarantined record.
	Quarantined bool
	// ArtifactSHA is the recorded evidence key (OutcomeRun only).
	ArtifactSHA string
	// Attempts/Backoff/BackoffMS replicate the run's retry accounting.
	Attempts  int
	Backoff   time.Duration
	BackoffMS int64
	// Error is the recorded failure text (failed/quarantined).
	Error string
	// Meters is the final attempt's recorded telemetry delta (nil when
	// it charged nothing or the journal predates its metering).
	Meters *RunMeters
}

// RetryInfo is one replayed retry record: a failed attempt (1-based),
// its error text, and the telemetry delta it charged.
type RetryInfo struct {
	Attempt int
	Error   string
	Meters  *RunMeters
}

// Replay is the reconstructed campaign state after reading a journal.
type Replay struct {
	// Header is the campaign identity record.
	Header Header
	// Outcomes maps app index to its last recorded terminal state; an
	// app re-run after a corrupt-evidence requeue keeps only its newest
	// record (last record wins).
	Outcomes map[int]AppOutcome
	// InFlight lists apps with a started record but no terminal record —
	// runs the crash interrupted, which resume must requeue.
	InFlight map[int]bool
	// Retries maps app index to the retry records of its newest attempt
	// sequence (a fresh started record resets the app's list), so replay
	// can republish the run's retry events exactly. Absent for apps from
	// journals written before retry records, whose replays simply carry
	// no retry history.
	Retries map[int][]RetryInfo
	// Records is the number of intact records replayed.
	Records int
	// ValidLen is the byte offset after the last intact record; Recover
	// truncates the file here.
	ValidLen int64
	// TornBytes is the size of the dropped torn tail (0 for a clean
	// journal).
	TornBytes int64
}

// Read replays the journal file at path. A torn tail is tolerated and
// reported via Replay.TornBytes; mid-file corruption returns a
// *CorruptError.
func Read(path string) (*Replay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	return ReplayBytes(data)
}

// ReplayBytes replays a journal image from memory (the fuzz and test
// entry point backing Read).
func ReplayBytes(data []byte) (*Replay, error) {
	r := newReplay()
	var err error
	if r.ValidLen, r.TornBytes, err = ReplayLog(data, r.fold(nil)); err != nil {
		return nil, err
	}
	return r, nil
}

func newReplay() *Replay {
	return &Replay{
		Outcomes: make(map[int]AppOutcome),
		InFlight: make(map[int]bool),
		Retries:  make(map[int][]RetryInfo),
	}
}

// fold is the journal's ReplayLog fold: it applies one record to the
// replay state. The header (record 0) must match want when that is set.
func (r *Replay) fold(want *Header) func(off int64, index int, rec Record) error {
	return func(off int64, index int, rec Record) error {
		r.Records++
		switch rec.Type {
		case TypeCampaign:
			r.Header = Header{Seed: rec.Seed, Fingerprint: rec.Fingerprint, Apps: rec.Apps, ShardLo: rec.ShardLo, ShardHi: rec.ShardHi}
			if want != nil {
				return r.Header.Match(*want)
			}
		case TypeStarted:
			if _, done := r.Outcomes[rec.App]; !done {
				r.InFlight[rec.App] = true
			} else {
				// A restart requeued an app with a stale terminal record;
				// the newer started supersedes it until its own terminal
				// record lands.
				delete(r.Outcomes, rec.App)
				r.InFlight[rec.App] = true
			}
			// A fresh attempt sequence: retry records from a superseded
			// generation would double the replayed history.
			delete(r.Retries, rec.App)
		case TypeRetry:
			r.Retries[rec.App] = append(r.Retries[rec.App], RetryInfo{Attempt: rec.Attempts, Error: rec.Error, Meters: rec.Meters})
		case TypeCompleted:
			r.Outcomes[rec.App] = AppOutcome{
				Outcome: rec.Outcome, ArtifactSHA: rec.ArtifactSHA,
				Attempts: rec.Attempts, Backoff: time.Duration(rec.BackoffNS), BackoffMS: rec.BackoffMS,
				Error: rec.Error, Meters: rec.Meters,
			}
			delete(r.InFlight, rec.App)
		case TypeQuarantined:
			r.Outcomes[rec.App] = AppOutcome{
				Quarantined: true,
				Attempts:    rec.Attempts, Backoff: time.Duration(rec.BackoffNS), BackoffMS: rec.BackoffMS,
				Error: rec.Error, Meters: rec.Meters,
			}
			delete(r.InFlight, rec.App)
		default:
			return &CorruptError{Offset: off, Record: index, Reason: fmt.Sprintf("unknown record type %q", rec.Type)}
		}
		return nil
	}
}
