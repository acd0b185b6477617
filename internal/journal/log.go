package journal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// LogRecord is what a record schema tells the log about itself: which
// of its records is the identity header every log must begin with.
type LogRecord interface {
	IsHeader() bool
}

// Log is the typed, append-only record log every crash-surviving record
// stream in the campaign is an instance of: the per-shard run journal
// (Writer, this package) and the coordinator's WAL (internal/dispatch)
// today. Records of type R are JSON payloads in CRC32C frames; the
// schema owner supplies R and the fold that gives its records meaning,
// and everything else is held here once — the payload codec, the
// durability discipline of the frame layer, "checksum held but payload
// undecodable ⇒ *CorruptError", "the header comes first and only
// first", and recovery that verifies before it truncates. Safe for
// concurrent use.
type Log[R LogRecord] struct {
	fw *frameWriter
}

// CreateLog truncates (or creates) the log at path and writes header as
// its first, immediately-synced record. The header is then durable in
// the file; the parent-directory fsync makes the file itself durable, or
// a crash right here would lose the whole log.
func CreateLog[R LogRecord](path string, header R, opts Options) (*Log[R], error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", path, err)
	}
	l := &Log[R]{fw: newFrameWriter(f, opts)}
	err = l.Append(header)
	if err == nil {
		err = l.Sync()
	}
	if err == nil {
		err = SyncParentDir(path)
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return l, nil
}

// ReplayLog decodes a log image, calling fold for every intact record in
// append order with its byte offset and zero-based index; index 0 is the
// header, which is where an owner checks the log's identity. It returns
// the byte length of the intact prefix and the size of the torn tail
// beyond it. A record cut short by a crash mid-append is tolerated as
// the tail. Interior damage — a bad frame with data after it, or a
// payload whose checksum held but which does not decode as R — is a
// *CorruptError, as is a second header; a log that does not begin with
// a header (or holds no record at all) is ErrNoHeader. An error from
// fold aborts the replay and is returned verbatim.
func ReplayLog[R LogRecord](data []byte, fold func(off int64, index int, rec R) error) (validLen, tornBytes int64, err error) {
	records := 0
	validLen, tornBytes, err = walkFrames(data, func(off int64, index int, payload []byte) error {
		var rec R
		if err := json.Unmarshal(payload, &rec); err != nil {
			// The checksum held, so these exact bytes were appended:
			// an undecodable payload is corruption (or a version skew),
			// never a tear.
			return &CorruptError{Offset: off, Record: index, Reason: fmt.Sprintf("undecodable payload: %v", err)}
		}
		if isHeader := rec.IsHeader(); index == 0 && !isHeader {
			return ErrNoHeader
		} else if index > 0 && isHeader {
			return &CorruptError{Offset: off, Record: index, Reason: "duplicate header"}
		}
		records++
		return fold(off, index, rec)
	})
	if err != nil {
		return 0, 0, err
	}
	if records == 0 {
		return 0, 0, ErrNoHeader
	}
	return validLen, tornBytes, nil
}

// RecoverLog reopens an existing log for appending — the restart path.
// The file image is replayed through fold first (see ReplayLog, whose
// validLen and tornBytes it also returns); only when the whole replay
// succeeded is the torn tail a crash mid-append left truncated and the
// writer positioned at the end of the intact prefix. So an error from
// fold — a header naming a different campaign — or interior corruption
// refuses the recovery with the file untouched: a log this campaign
// does not own is never rewritten.
func RecoverLog[R LogRecord](path string, opts Options, fold func(off int64, index int, rec R) error) (l *Log[R], validLen, tornBytes int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	if validLen, tornBytes, err = ReplayLog(data, fold); err != nil {
		return nil, 0, 0, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("journal: reopening %s: %w", path, err)
	}
	if tornBytes > 0 {
		err = f.Truncate(validLen)
	}
	if err == nil {
		_, err = f.Seek(validLen, io.SeekStart)
	}
	if err != nil {
		_ = f.Close()
		return nil, 0, 0, fmt.Errorf("journal: positioning %s at its intact prefix: %w", path, err)
	}
	return &Log[R]{fw: newFrameWriter(f, opts)}, validLen, tornBytes, nil
}

// Append encodes, frames, checksums, and writes one record, fsyncing
// when the batch budget (Options.SyncEvery) is spent. A log that has
// seen a write error refuses further appends: a durability log that
// silently drops records is worse than none.
func (l *Log[R]) Append(rec R) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	return l.fw.Append(payload)
}

// Sync flushes buffered records and fsyncs the file.
func (l *Log[R]) Sync() error { return l.fw.Sync() }

// InjectTear arms the crash-fault hook: the next Append writes a
// deliberately torn frame (header plus half the payload), fails with
// ErrTornWrite, and breaks the log — the deterministic stand-in for a
// process killed mid-write.
func (l *Log[R]) InjectTear() { l.fw.InjectTear() }

// Close syncs and releases the file. A broken log still closes the
// descriptor.
func (l *Log[R]) Close() error { return l.fw.Close() }
