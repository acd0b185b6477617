package dispatch

// Supervised campaign execution: the coordinator's own write-ahead log.
//
// Shards became individually crash-safe with the run journal (PR 5) and
// reassignable with takeover (PR 6), but the coordinator orchestrating
// them kept its state — which shards finished, how many takeovers the
// campaign consumed — in process memory. Kill the coordinator and that
// knowledge died with it: a restart would redo finished shards and hand
// the campaign a fresh takeover budget. The WAL fixes both. It is a
// record log (journal.Log, the mechanism under the run journal too,
// fsynced per record — coordinator events are rare, so batching buys
// nothing and costs durability) holding five record types:
//
//	campaign  — header: config fingerprint + shard plan shape. A resume
//	            against a WAL recorded under a different fingerprint or
//	            plan is refused.
//	attempt   — shard i is launching attempt n. Written BEFORE the
//	            launch, so a coordinator killed mid-attempt knows on
//	            restart that the attempt may have partial shard-journal
//	            state and resumes it (without charging takeover budget —
//	            the attempt was already paid for).
//	takeover  — one unit of campaign takeover budget was consumed for
//	            shard i. Replayed on restart so the budget is NOT reset.
//	sealed    — shard i's outcome was durably persisted to the outcome dir,
//	            with the sha256 of the sealed file. On restart the file
//	            is re-verified against the recorded sha and re-decoded;
//	            verification failure demotes the shard to a resumed
//	            re-run rather than trusting damaged bytes.
//	done      — the merge completed. Purely informational (resume after
//	            done re-verifies the seals and re-merges, which is
//	            idempotent byte-for-byte), but it lets tooling tell a
//	            finished campaign from an interrupted one.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"libspector/internal/journal"
)

// WAL record types.
const (
	walCampaign = "campaign"
	walAttempt  = "attempt"
	walTakeover = "takeover"
	walSealed   = "sealed"
	walDone     = "done"
)

// WALRecord is one coordinator WAL entry. Exported so libreport can
// render a campaign's supervision history.
type WALRecord struct {
	Type string `json:"type"`
	// Header fields (campaign records only).
	Fingerprint string `json:"fingerprint,omitempty"`
	Apps        int    `json:"apps,omitempty"`
	Shards      int    `json:"shards,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	// Shard-scoped fields. Shard is -1 on campaign/done records — index
	// 0 is a valid shard, so omitempty would be ambiguous.
	Shard      int    `json:"shard"`
	Attempt    int    `json:"attempt,omitempty"`
	Error      string `json:"error,omitempty"`
	OutcomeSHA string `json:"outcome_sha,omitempty"`
}

// IsHeader marks the campaign record as the WAL's header
// (journal.LogRecord).
func (r WALRecord) IsHeader() bool { return r.Type == walCampaign }

// errWALCrash is the injected coordinator death: CrashAfterWALRecords
// makes every append past the boundary fail with it, so the durable
// prefix is exactly the configured record count.
var errWALCrash = errors.New("dispatch: injected coordinator crash at WAL record boundary")

// campaignWAL serializes appends from concurrent shard supervisors onto
// one record log (journal.Log owns framing, replay, and recovery; this
// file owns only the WAL's schema) and tracks the record count for the
// observer/crash hooks. A nil *campaignWAL is the unsupervised campaign's log: appends,
// seals, and close are no-ops, so the coordinator runs one loop whether
// or not anything is journaled.
type campaignWAL struct {
	mu  sync.Mutex
	log *journal.Log[WALRecord]
	// dir is where sealed shard outcomes are persisted.
	dir        string
	records    int
	observer   func(int)
	crashAfter int
}

func (w *campaignWAL) append(rec WALRecord) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashAfter > 0 && w.records >= w.crashAfter {
		return errWALCrash
	}
	if err := w.log.Append(rec); err != nil {
		return fmt.Errorf("dispatch: appending WAL record: %w", err)
	}
	w.records++
	if w.observer != nil {
		w.observer(w.records)
	}
	return nil
}

// seal persists a finished shard's outcome to the outcome dir and
// journals its sha256, so a restarted coordinator can verify the bytes
// before trusting them.
func (w *campaignWAL) seal(out *ShardOutcome, attempt int) error {
	if w == nil {
		return nil
	}
	path := outcomePath(w.dir, out.Index)
	if err := WriteShardOutcome(path, out); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("dispatch: rereading sealed outcome: %w", err)
	}
	sum := sha256.Sum256(data)
	return w.append(WALRecord{Type: walSealed, Shard: out.Index, Attempt: attempt, OutcomeSHA: hex.EncodeToString(sum[:])})
}

func (w *campaignWAL) close() error {
	if w == nil {
		return nil
	}
	return w.log.Close()
}

// walState is what a recovered WAL says about the campaign.
type walState struct {
	// takeovers is the budget already consumed across all prior
	// coordinator incarnations.
	takeovers int
	// nextAttempt[i] is the attempt number shard i should (re)launch at:
	// the last attempt record seen for it, which was in flight when the
	// previous coordinator died.
	nextAttempt []int
	// sealed maps shard index to the sha256 hex of its sealed outcome
	// file.
	sealed map[int]string
	// done records that a previous incarnation finished the merge.
	done bool
	// records is how many intact records the recovered image held.
	records int
}

// ReplayWAL decodes a coordinator WAL image. Exported for libreport and
// the chaos tests; the returned records are in append order, campaign
// header first. Torn tails are tolerated exactly like the run journal's;
// interior corruption returns *journal.CorruptError and a missing header
// journal.ErrNoHeader.
func ReplayWAL(data []byte) ([]WALRecord, error) {
	var recs []WALRecord
	_, _, err := journal.ReplayLog(data, func(_ int64, _ int, rec WALRecord) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// foldWAL is the coordinator's replay fold: it verifies the header
// against this coordinator's plan — before the recovery truncates
// anything — and applies every later record to st.
func (c *Coordinator) foldWAL(st *walState) func(off int64, index int, rec WALRecord) error {
	return func(_ int64, index int, rec WALRecord) error {
		st.records = index + 1
		if (rec.Type == walAttempt || rec.Type == walSealed) && (rec.Shard < 0 || rec.Shard >= c.Plan.Shards) {
			return fmt.Errorf("dispatch: WAL %s record for shard %d outside plan of %d", rec.Type, rec.Shard, c.Plan.Shards)
		}
		switch rec.Type {
		case walCampaign:
			if rec.Fingerprint != c.Fingerprint || rec.Apps != c.Plan.TotalApps || rec.Shards != c.Plan.Shards || rec.Workers != c.Plan.Workers {
				return fmt.Errorf("dispatch: WAL belongs to a different campaign (fingerprint %s, %d apps / %d shards / %d workers; want %s, %d/%d/%d)",
					rec.Fingerprint, rec.Apps, rec.Shards, rec.Workers,
					c.Fingerprint, c.Plan.TotalApps, c.Plan.Shards, c.Plan.Workers)
			}
		case walAttempt:
			st.nextAttempt[rec.Shard] = rec.Attempt
		case walTakeover:
			st.takeovers++
			// The consumed unit paid for relaunching this shard at
			// rec.Attempt: advance the attempt pointer so a coordinator
			// killed between the takeover record and the next attempt
			// record doesn't re-run the failed attempt against an
			// already-charged budget.
			if rec.Shard >= 0 && rec.Shard < c.Plan.Shards && rec.Attempt > st.nextAttempt[rec.Shard] {
				st.nextAttempt[rec.Shard] = rec.Attempt
			}
		case walSealed:
			st.sealed[rec.Shard] = rec.OutcomeSHA
		case walDone:
			st.done = true
		default:
			return fmt.Errorf("dispatch: WAL record %d has unknown type %q", index, rec.Type)
		}
		return nil
	}
}

// openWAL opens the campaign's supervision log and the state it implies.
// Without a WAL path that is the nil log and a fresh campaign's state.
// With Resume an existing WAL is recovered (torn tail dropped, appends
// continue from the intact prefix); without it an existing WAL is
// truncated — the same start-over semantics journal.Create applies to
// shard journals, so a non-resume relaunch means the same thing at every
// layer.
func (c *Coordinator) openWAL() (*campaignWAL, *walState, error) {
	st := &walState{
		nextAttempt: make([]int, c.Plan.Shards),
		sealed:      make(map[int]string),
	}
	if c.WAL == "" {
		return nil, st, nil
	}
	wal := &campaignWAL{dir: c.WAL + ".outcomes", observer: c.WALObserver, crashAfter: c.CrashAfterWALRecords}
	if err := os.MkdirAll(wal.dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("dispatch: creating outcome dir: %w", err)
	}
	// Coordinator events are rare: fsync each one.
	opts := journal.Options{SyncEvery: 1}
	if _, err := os.Stat(c.WAL); err == nil && c.Resume {
		if wal.log, _, _, err = journal.RecoverLog(c.WAL, opts, c.foldWAL(st)); err != nil {
			return nil, nil, err
		}
		wal.records = st.records
		return wal, st, nil
	} else if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("dispatch: probing WAL: %w", err)
	}
	// Fresh start (or a Resume against a WAL that never made it to disk
	// — a coordinator killed before its first fsynced record; starting
	// fresh is exactly what resuming that campaign means, and the
	// fingerprint header catches wrong-path mixups on the next resume).
	var err error
	wal.log, err = journal.CreateLog(c.WAL, WALRecord{
		Type:        walCampaign,
		Fingerprint: c.Fingerprint,
		Apps:        c.Plan.TotalApps,
		Shards:      c.Plan.Shards,
		Workers:     c.Plan.Workers,
		Shard:       -1,
	}, opts)
	if err != nil {
		return nil, nil, err
	}
	wal.records, st.records = 1, 1
	if wal.observer != nil {
		wal.observer(1)
	}
	return wal, st, nil
}

// outcomePath is where shard i's sealed outcome lives.
func outcomePath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.outcome", i))
}

// reopenSealed re-verifies and decodes a previously sealed shard
// outcome. Any mismatch — missing file, sha drift, decode failure, or
// an outcome describing the wrong shard — returns an error and the
// caller re-runs the shard instead.
func (c *Coordinator) reopenSealed(dir string, i int, wantSHA string) (*ShardOutcome, error) {
	path := outcomePath(dir, i)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dispatch: sealed outcome for shard %d: %w", i, err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != wantSHA {
		return nil, fmt.Errorf("dispatch: sealed outcome for shard %d has sha %s, WAL recorded %s", i, got, wantSHA)
	}
	out, err := DecodeShardOutcome(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if out.Index != i || out.Range != c.Plan.Range(i) {
		return nil, fmt.Errorf("dispatch: sealed outcome at %s describes shard %d range %+v, want shard %d range %+v",
			path, out.Index, out.Range, i, c.Plan.Range(i))
	}
	return out, nil
}
