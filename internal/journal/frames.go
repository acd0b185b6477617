package journal

// The byte layer under Log: length+CRC32C framing, batched fsync, a
// writer that latches broken after the first write error, torn-tail
// tolerance on read, typed corruption on interior damage. Only log.go
// calls it; record schemas sit on Log.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"libspector/internal/codec"
)

// frameWriter appends CRC32C-framed payloads to a file:
// [length uint32][crc32c uint32][payload], little-endian, checksummed
// over the payload. It batches fsyncs (Options.SyncEvery) and refuses
// further appends after the first write error — a durability log that
// silently drops records is worse than none. Safe for concurrent use.
type frameWriter struct {
	mu        sync.Mutex
	f         *os.File
	buf       *bufio.Writer
	syncEvery int
	unsynced  int
	broken    error
	tearNext  bool
}

// newFrameWriter wraps an open file positioned at its append point.
func newFrameWriter(f *os.File, opts Options) *frameWriter {
	se := opts.SyncEvery
	if se <= 0 {
		se = DefaultSyncEvery
	}
	return &frameWriter{f: f, buf: bufio.NewWriter(f), syncEvery: se}
}

// Append frames, checksums, and writes one payload, fsyncing when the
// batch budget is spent.
func (w *frameWriter) Append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if len(payload) > maxRecordSize {
		return fmt.Errorf("journal: record of %d bytes exceeds limit %d", len(payload), maxRecordSize)
	}
	var frame [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], codec.Sum(payload))
	if w.tearNext {
		// Injected crash mid-write: flush a partial frame — the header
		// plus roughly half the payload — straight to disk, then fail as
		// the dying process would. The writer stays broken.
		w.tearNext = false
		torn := append(frame[:], payload[:len(payload)/2]...)
		if _, err := w.buf.Write(torn); err == nil {
			_ = w.buf.Flush()
			_ = w.f.Sync()
		}
		w.broken = ErrTornWrite
		return w.broken
	}
	if _, err := w.buf.Write(frame[:]); err != nil {
		w.broken = fmt.Errorf("journal: writing frame: %w", err)
		return w.broken
	}
	if _, err := w.buf.Write(payload); err != nil {
		w.broken = fmt.Errorf("journal: writing payload: %w", err)
		return w.broken
	}
	w.unsynced++
	if w.unsynced >= w.syncEvery {
		return w.syncLocked()
	}
	return nil
}

// Sync flushes buffered frames and fsyncs the file.
func (w *frameWriter) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	return w.syncLocked()
}

func (w *frameWriter) syncLocked() error {
	if err := w.buf.Flush(); err != nil {
		w.broken = fmt.Errorf("journal: flushing: %w", err)
		return w.broken
	}
	if err := w.f.Sync(); err != nil {
		w.broken = fmt.Errorf("journal: fsync: %w", err)
		return w.broken
	}
	w.unsynced = 0
	return nil
}

// InjectTear arms the crash-fault hook: the next Append writes a
// deliberately torn frame, fails with ErrTornWrite, and breaks the
// writer — the deterministic stand-in for a process killed mid-write.
func (w *frameWriter) InjectTear() {
	w.mu.Lock()
	w.tearNext = true
	w.mu.Unlock()
}

// Close syncs and releases the file. A broken writer still closes the
// descriptor.
func (w *frameWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var syncErr error
	if w.broken == nil {
		syncErr = w.syncLocked()
	}
	closeErr := w.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// walkFrames scans a frame-log image, invoking fn for each intact frame
// with its byte offset, zero-based index, and payload. It returns the
// byte offset after the last intact frame (the truncation point for
// recovery) and the size of the dropped torn tail. A frame cut short by
// a crash mid-write is tolerated as the tail; a damaged frame with
// valid bytes after it is interior corruption and returns a
// *CorruptError, as does any error from fn (which propagates verbatim).
func walkFrames(data []byte, fn func(off int64, index int, payload []byte) error) (validLen, tornBytes int64, err error) {
	var off int64
	index := 0
	total := int64(len(data))
	for off < total {
		rest := total - off
		if rest < frameHeaderSize {
			// A frame header cut short can only be a torn tail.
			break
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
		end := off + frameHeaderSize + length
		if length > maxRecordSize {
			// An absurd length is not a record. If the claimed record
			// would run past EOF it is indistinguishable from a torn
			// header, so treat it as the tail; a bounded bad frame with
			// data after it is interior corruption.
			if end >= total {
				break
			}
			return 0, 0, &CorruptError{Offset: off, Record: index, Reason: fmt.Sprintf("frame length %d exceeds limit %d", length, maxRecordSize)}
		}
		if end > total {
			// Payload cut short: torn tail.
			break
		}
		payload := data[off+frameHeaderSize : end]
		if got := codec.Sum(payload); got != wantCRC {
			if end == total {
				// The final record's checksum fails: a write torn inside
				// the payload's final sectors. Recoverable.
				break
			}
			return 0, 0, &CorruptError{Offset: off, Record: index, Reason: fmt.Sprintf("crc %08x != recorded %08x", got, wantCRC)}
		}
		if err := fn(off, index, payload); err != nil {
			return 0, 0, err
		}
		index++
		off = end
	}
	return off, total - off, nil
}
