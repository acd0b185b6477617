package dispatch

// Supervised campaign execution: the coordinator's own write-ahead log.
//
// Shards became individually crash-safe with the run journal (PR 5) and
// reassignable with takeover (PR 6), but the coordinator orchestrating
// them kept its state — which shards finished, how many takeovers the
// campaign consumed — in process memory. Kill the coordinator and that
// knowledge died with it: a restart would redo finished shards and hand
// the campaign a fresh takeover budget. The WAL fixes both. It is a
// CRC-framed record log (the same frame layer as the run journal,
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
	"encoding/json"
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

// errWALCrash is the injected coordinator death: CrashAfterWALRecords
// makes every append past the boundary fail with it, so the durable
// prefix is exactly the configured record count.
var errWALCrash = errors.New("dispatch: injected coordinator crash at WAL record boundary")

// campaignWAL serializes appends from concurrent shard supervisors onto
// one frame writer and tracks the record count for the observer/crash
// hooks. A nil *campaignWAL is the unsupervised campaign's log: appends,
// seals, and close are no-ops, so the coordinator runs one loop whether
// or not anything is journaled.
type campaignWAL struct {
	mu sync.Mutex
	fw *journal.FrameWriter
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
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("dispatch: encoding WAL record: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashAfter > 0 && w.records >= w.crashAfter {
		return errWALCrash
	}
	if err := w.fw.Append(payload); err != nil {
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
	return w.fw.Close()
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
// the chaos tests; the returned records are in append order. Torn tails
// are tolerated exactly like the run journal's; interior corruption
// returns *journal.CorruptError.
func ReplayWAL(data []byte) ([]WALRecord, error) {
	recs, _, err := replayWAL(data)
	return recs, err
}

// replayWAL is ReplayWAL plus the byte length of the intact prefix (the
// truncation point for reopening).
func replayWAL(data []byte) (recs []WALRecord, validLen int64, err error) {
	validLen, _, err = journal.WalkFrames(data, func(off int64, index int, payload []byte) error {
		var rec WALRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return &journal.CorruptError{Offset: off, Record: index, Reason: fmt.Sprintf("undecodable WAL payload: %v", err)}
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return recs, validLen, nil
}

// recoverWALState folds a WAL image into a fresh walState, verifying the
// header against this coordinator's plan, and returns the byte length of
// the intact prefix.
func (c *Coordinator) recoverWALState(st *walState, data []byte) (int64, error) {
	recs, validLen, err := replayWAL(data)
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("dispatch: WAL %s holds no campaign record", c.WAL)
	}
	st.records = len(recs)
	if hdr := recs[0]; hdr.Type != walCampaign {
		return 0, fmt.Errorf("dispatch: WAL does not start with a campaign record (got %q)", hdr.Type)
	} else if hdr.Fingerprint != c.Fingerprint || hdr.Apps != c.Plan.TotalApps || hdr.Shards != c.Plan.Shards || hdr.Workers != c.Plan.Workers {
		return 0, fmt.Errorf("dispatch: WAL belongs to a different campaign (fingerprint %s, %d apps / %d shards / %d workers; want %s, %d/%d/%d)",
			hdr.Fingerprint, hdr.Apps, hdr.Shards, hdr.Workers,
			c.Fingerprint, c.Plan.TotalApps, c.Plan.Shards, c.Plan.Workers)
	}
	for n, rec := range recs[1:] {
		if (rec.Type == walAttempt || rec.Type == walSealed) && (rec.Shard < 0 || rec.Shard >= c.Plan.Shards) {
			return 0, fmt.Errorf("dispatch: WAL %s record for shard %d outside plan of %d", rec.Type, rec.Shard, c.Plan.Shards)
		}
		switch rec.Type {
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
			return 0, fmt.Errorf("dispatch: WAL record %d has unknown type %q", n+1, rec.Type)
		}
	}
	return validLen, nil
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
		wal.fw, err = journal.RecoverFrameLog(c.WAL, opts, func(data []byte) (int64, error) {
			return c.recoverWALState(st, data)
		})
		if err != nil {
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
	header, err := json.Marshal(WALRecord{
		Type:        walCampaign,
		Fingerprint: c.Fingerprint,
		Apps:        c.Plan.TotalApps,
		Shards:      c.Plan.Shards,
		Workers:     c.Plan.Workers,
		Shard:       -1,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("dispatch: encoding WAL record: %w", err)
	}
	if wal.fw, err = journal.CreateFrameLog(c.WAL, header, opts); err != nil {
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
	out, err := ReadShardOutcome(path)
	if err != nil {
		return nil, err
	}
	if out.Index != i || out.Range != c.Plan.Range(i) {
		return nil, fmt.Errorf("dispatch: sealed outcome at %s describes shard %d range %+v, want shard %d range %+v",
			path, out.Index, out.Range, i, c.Plan.Range(i))
	}
	return out, nil
}
