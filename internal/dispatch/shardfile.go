package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"libspector/internal/codec"
	"libspector/internal/journal"
	"libspector/internal/obs"
)

// shardOutcomeMagic frames the outcome envelope on disk. The JSON body is
// sealed with the shared CRC framing (codec.Seal), so a coordinator reads
// exactly the bytes the shard committed: truncation, appended garbage,
// and bit rot all fail typed instead of blending into the JSON decoder's
// tolerance (bare json.Unmarshal accepts trailing whitespace and cannot
// see a cut that happens to end on a complete JSON value).
const shardOutcomeMagic = "LSSHRD01"

// ErrCorruptOutcome reports a shard outcome file that failed frame
// verification or structural validation — a crashed shard's leftovers,
// not a coordinator input.
var ErrCorruptOutcome = errors.New("dispatch: corrupt shard outcome")

// shardOutcomeFile is the JSON envelope a shard process writes for its
// coordinator (fleetflags' -shard-out). The encoded analysis partial and
// resultstore segment ride along base64-encoded; error values flatten to
// strings.
type shardOutcomeFile struct {
	Index       int                   `json:"index"`
	Lo          int                   `json:"lo"`
	Hi          int                   `json:"hi"`
	Accounting  Accounting            `json:"accounting"`
	Failures    []shardFailureFile    `json:"failures,omitempty"`
	Quarantined []shardQuarantineFile `json:"quarantined,omitempty"`
	Snapshot    obs.Snapshot          `json:"snapshot"`
	Partial     []byte                `json:"partial"`
	Records     []byte                `json:"records,omitempty"`
	Events      []obs.Event           `json:"events,omitempty"`
}

type shardFailureFile struct {
	AppIndex int    `json:"app_index"`
	Error    string `json:"error"`
	Attempts int    `json:"attempts"`
}

type shardQuarantineFile struct {
	AppIndex  int    `json:"app_index"`
	Attempts  int    `json:"attempts"`
	LastError string `json:"last_error"`
}

// WriteShardOutcome persists a shard outcome for collection by the
// coordinator process. The CRC-framed envelope is written to a temp
// sibling, fsynced, renamed into place, and the directory is fsynced —
// so a crashing shard never leaves a torn half-outcome a coordinator
// could mistake for a complete one, and a committed outcome survives the
// host dying right after.
func WriteShardOutcome(path string, out *ShardOutcome) error {
	data, err := EncodeShardOutcome(out)
	if err != nil {
		return err
	}
	err = journal.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("dispatch: writing shard outcome: %w", err)
	}
	return nil
}

// EncodeShardOutcome is the outcome file's image: the JSON envelope
// sealed in the "LSSHRD01" CRC frame.
func EncodeShardOutcome(out *ShardOutcome) ([]byte, error) {
	if out == nil {
		return nil, fmt.Errorf("dispatch: nil shard outcome")
	}
	f := shardOutcomeFile{
		Index:      out.Index,
		Lo:         out.Range.Lo,
		Hi:         out.Range.Hi,
		Accounting: out.Accounting,
		Snapshot:   out.Snapshot,
		Partial:    out.Partial,
		Records:    out.Records,
		Events:     out.Events,
	}
	for _, fl := range out.Failures {
		f.Failures = append(f.Failures, shardFailureFile{
			AppIndex: fl.AppIndex, Error: errText(fl.Err), Attempts: fl.Attempts,
		})
	}
	for _, q := range out.Quarantined {
		f.Quarantined = append(f.Quarantined, shardQuarantineFile{
			AppIndex: q.AppIndex, Attempts: q.Attempts, LastError: errText(q.LastErr),
		})
	}
	body, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dispatch: encoding shard outcome: %w", err)
	}
	return codec.Seal(shardOutcomeMagic, body), nil
}

// ReadShardOutcome loads a shard outcome file written by
// WriteShardOutcome, verifying the CRC frame strictly — trailing bytes
// after the framed body are corruption — and the envelope's structure.
func ReadShardOutcome(path string) (*ShardOutcome, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dispatch: reading shard outcome: %w", err)
	}
	out, err := DecodeShardOutcome(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// DecodeShardOutcome reverses EncodeShardOutcome. Every failure wraps
// ErrCorruptOutcome.
func DecodeShardOutcome(data []byte) (*ShardOutcome, error) {
	body, err := codec.Open(shardOutcomeMagic, data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptOutcome, err)
	}
	var f shardOutcomeFile
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptOutcome, err)
	}
	if f.Index < 0 || f.Lo < 0 || f.Hi < f.Lo {
		return nil, fmt.Errorf("%w: shard %d claims range [%d,%d)", ErrCorruptOutcome, f.Index, f.Lo, f.Hi)
	}
	// A shard logs only its own apps' lifecycle.
	for _, ev := range f.Events {
		if !ev.Type.Logged() || ev.App < f.Lo || ev.App >= f.Hi {
			return nil, fmt.Errorf("%w: shard %d over [%d,%d) carries a %q event of app %d", ErrCorruptOutcome, f.Index, f.Lo, f.Hi, ev.Type, ev.App)
		}
	}
	out := &ShardOutcome{
		Index:      f.Index,
		Range:      ShardRange{Lo: f.Lo, Hi: f.Hi},
		Accounting: f.Accounting,
		Snapshot:   f.Snapshot,
		Partial:    f.Partial,
		Records:    f.Records,
		Events:     f.Events,
	}
	for _, fl := range f.Failures {
		out.Failures = append(out.Failures, RunFailure{
			AppIndex: fl.AppIndex, Err: errors.New(fl.Error), Attempts: fl.Attempts,
		})
	}
	for _, q := range f.Quarantined {
		out.Quarantined = append(out.Quarantined, QuarantinedApp{
			AppIndex: q.AppIndex, Attempts: q.Attempts, LastErr: errors.New(q.LastError),
		})
	}
	return out, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
