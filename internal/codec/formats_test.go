package codec_test

// The decoder-hardening harness: every format the campaign writes across
// a process or a crash boundary registers one row in formats, and the
// harness asserts once, for all of them, what hostile input must never
// achieve. FuzzFormats is the single fuzz target (`make fuzz`);
// TestFormats runs every row's seeds and its parent-written fixture as
// ordinary tier-1 unit tests.

import (
	"archive/zip"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"libspector/internal/analysis"
	"libspector/internal/apk"
	"libspector/internal/attribution"
	"libspector/internal/codec"
	"libspector/internal/corpus"
	"libspector/internal/dex"
	"libspector/internal/dispatch"
	"libspector/internal/journal"
	"libspector/internal/libradar"
	"libspector/internal/obs"
	"libspector/internal/pcap"
	"libspector/internal/resultstore"
	"libspector/internal/synth"
	"libspector/internal/xposed"
)

// format is one registered wire format.
type format struct {
	name string
	// typed reports whether a rejection carries the format's error type;
	// every error decode returns must satisfy it.
	typed func(error) bool
	// seeds builds the corpus, each seed with its verdict.
	seeds func(tb testing.TB) []seed
	// decode is the production decoder; encode is the production encoder
	// applied to decode's result.
	decode func(data []byte) (any, error)
	encode func(tb testing.TB, v any) []byte
	// canonical formats have exactly one encoding per value, so every
	// accepted input — not just encoder output — re-encodes identically.
	canonical bool
	// strict formats reject an accepted input with its last byte cut off
	// or with any byte appended. (The record logs tolerate a torn tail,
	// and JSON tolerates trailing whitespace, by design.)
	strict bool
	// concatenated marks a strict format that is a bare sequence of
	// frames: cut at a frame boundary it is a shorter valid image, so
	// only the last-byte cut is rejected, not every proper prefix.
	concatenated bool
	// check is the format's own post-condition on an accepted input.
	check func(t *testing.T, data []byte, v any)
	// magic, for a format that is one codec.Seal frame, lets the fuzzer
	// past the checksum: it also mutates bare bodies, which the harness
	// seals before decoding, so the body decoder sees hostile bytes a
	// random mutation of a sealed image would never deliver.
	magic string
	// fixture names a file under testdata/ written by the encoders of
	// commit 252e5be, before the shared cursor and record-log existed
	// (apk.bin, added with its row, is app 0 of a seed-42 world at
	// MethodScale 0.002; evidence.bin, meta.bin and reports.bin, added
	// when a stored run became one sealed file, replace that commit's
	// meta.json and reports.bin and are fixtureRun, its meta section and
	// its reports section; partial.bin, rewritten for LSPART02 and again
	// for LSPART03, folds the four flows 252e5be's image held: app sha-a
	// (GAME_PUZZLE) from com.vungle.publisher to ads.example.com and from
	// okhttp3 to api.example.com, app sha-b (TOOLS) from com.app.b.net to
	// cdn.example.net and from builtin *-Advertisement to ads.example.com;
	// the three non-builtin ones fill its three baseline cells). It must decode and re-encode to the identical
	// bytes: the guard that a refactor of the codecs moved no byte on disk
	// or on the wire. Regenerate a fixture only for a deliberate,
	// documented format bump. Empty for pcap, whose layout libpcap fixes,
	// not our encoder.
	fixture string
	// allocPerByte and allocBase, when set, bound what decoding an n-byte
	// input may allocate: allocPerByte·n + allocBase bytes. A forged count
	// or length must fail before it sizes anything; the base covers the
	// fuzzing engine's own allocations.
	allocPerByte, allocBase uint64
	// agree, when set, is a second production reader of the format that
	// must reach decode's verdict on every input: accept and reject the
	// same bytes with the same error, and agree on what it reads. It gets
	// decode's result and error and reports a disagreement.
	agree func(data []byte, v any, err error) error
}

type seed struct {
	data []byte
	want verdict
}

// verdict is what TestFormats requires of a seed.
type verdict int

const (
	// rejected input must fail decoding.
	rejected verdict = iota
	// encoded input was written by the production encoder: it must
	// decode and re-encode byte-identically.
	encoded
	// tolerated input was written by no encoder but decodes by design;
	// it must be accepted and pass the row's checks.
	tolerated
)

func is(sentinels ...error) func(error) bool {
	return func(err error) bool {
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return true
			}
		}
		return false
	}
}

func prefixed(p string) func(error) bool {
	return func(err error) bool { return strings.HasPrefix(err.Error(), p) }
}

// variants is the usual corpus around one valid image: the image, its
// first half, and the image with a byte appended.
func variants(valid []byte) []seed {
	return []seed{
		{valid, encoded},
		{valid[:len(valid)/2], rejected},
		{append(valid[:len(valid):len(valid)], 0xFF), rejected},
	}
}

const fixtureSHA = "abababababababababababababababababababababababababababababababab"

var formats = []format{
	{
		name:    "journal",
		typed:   is(journal.ErrCorrupt, journal.ErrNoHeader),
		fixture: "journal.bin",
		seeds: func(tb testing.TB) []seed {
			img := logImage(tb, []journal.Record{
				{Type: journal.TypeCampaign, Seed: 42, Fingerprint: "fp", Apps: 3},
				{Type: journal.TypeStarted, App: 0},
				{Type: journal.TypeCompleted, App: 0, Outcome: journal.OutcomeRun, ArtifactSHA: "sha-0", Attempts: 2, BackoffNS: int64(time.Second), BackoffMS: 1000},
				{Type: journal.TypeStarted, App: 1},
				{Type: journal.TypeQuarantined, App: 1, Attempts: 3, Error: "boom"},
				{Type: journal.TypeStarted, App: 2},
			})
			// Cut mid-record, the log replays its intact prefix and
			// drops the torn tail.
			return []seed{{img, encoded}, {img[:len(img)/2], tolerated}, {nil, rejected}, {bytes.Repeat([]byte{0xff}, 64), rejected}}
		},
		decode: func(data []byte) (any, error) {
			r, err := journal.ReplayBytes(data)
			if err != nil {
				return nil, err
			}
			recs, _ := logRecords[journal.Record](data)
			return replayedJournal{r, recs}, nil
		},
		encode: func(tb testing.TB, v any) []byte { return logImage(tb, v.(replayedJournal).recs) },
		check: func(t *testing.T, data []byte, v any) {
			r := v.(replayedJournal).Replay
			if r.ValidLen < 0 || r.ValidLen > int64(len(data)) || r.TornBytes != int64(len(data))-r.ValidLen {
				t.Fatalf("valid %d + torn %d bytes do not add up to %d", r.ValidLen, r.TornBytes, len(data))
			}
			// Recovery idempotence: the valid prefix replays identically
			// and cleanly.
			again, err := journal.ReplayBytes(data[:r.ValidLen])
			if err != nil {
				t.Fatalf("valid prefix failed to replay: %v", err)
			}
			if again.Records != r.Records || again.TornBytes != 0 {
				t.Fatalf("prefix replay drifted: %d/%d records, %d torn", again.Records, r.Records, again.TornBytes)
			}
		},
	},
	{
		name:    "wal",
		typed:   is(journal.ErrCorrupt, journal.ErrNoHeader),
		fixture: "wal.bin",
		seeds: func(tb testing.TB) []seed {
			img := logImage(tb, []dispatch.WALRecord{
				{Type: "campaign", Fingerprint: "fp", Apps: 10, Shards: 2, Workers: 2, Shard: -1},
				{Type: "attempt", Shard: 0},
				{Type: "takeover", Shard: 0, Attempt: 1, Error: "killed"},
				{Type: "attempt", Shard: 0, Attempt: 1},
				{Type: "sealed", Shard: 0, Attempt: 1, OutcomeSHA: "00ff"},
				{Type: "done", Shard: -1},
			})
			// Interior damage: a flipped payload byte in the second
			// record, with intact records after it.
			rotten := bytes.Clone(img)
			rotten[len(img)/3] ^= 0x40
			// A torn last record is dropped, as in the journal row.
			return []seed{{img, encoded}, {img[:len(img)-3], tolerated}, {rotten, rejected}, {nil, rejected}}
		},
		decode: func(data []byte) (any, error) { return dispatch.ReplayWAL(data) },
		encode: func(tb testing.TB, v any) []byte { return logImage(tb, v.([]dispatch.WALRecord)) },
		check: func(t *testing.T, data []byte, v any) {
			// The torn tail is dropped, never half-applied: the intact
			// prefix replays to the same records with nothing torn.
			_, validLen := logRecords[dispatch.WALRecord](data)
			again, err := dispatch.ReplayWAL(data[:validLen])
			if err != nil || len(again) != len(v.([]dispatch.WALRecord)) {
				t.Fatalf("valid prefix replayed %d records (err %v), whole image %d", len(again), err, len(v.([]dispatch.WALRecord)))
			}
		},
	},
	{
		// The meta section of a run file, read on its own.
		name:      "artifact-meta",
		typed:     is(dispatch.ErrCorruptArtifact),
		strict:    true,
		canonical: true,
		fixture:   "meta.bin",
		seeds: func(tb testing.TB) []seed {
			valid := dispatch.EncodeMeta(fixtureRun(tb).Meta)
			// fixtureRun records a whole second, so the last byte is the
			// nanoseconds' zero: in its place, a full second of them.
			late := append(valid[:len(valid)-1:len(valid)-1], binary.AppendUvarint(nil, uint64(time.Second))...)
			return append(variants(valid), seed{nil, rejected}, seed{late, rejected}, seed{dispatch.EncodeMeta(dispatch.RunMeta{}), encoded})
		},
		decode: func(data []byte) (any, error) { return dispatch.DecodeMeta(data) },
		encode: func(_ testing.TB, v any) []byte { return dispatch.EncodeMeta(v.(dispatch.RunMeta)) },
	},
	{
		// A stored run file: meta, apk, capture, reports and trace under
		// one seal, as resume, audit, Reanalyze and `libspector dump`
		// read it.
		name:      "evidence",
		typed:     is(dispatch.ErrCorruptArtifact),
		strict:    true,
		canonical: true,
		magic:     dispatch.EvidenceMagic,
		fixture:   "evidence.bin",
		seeds: func(tb testing.TB) []seed {
			valid := storedRun(tb, fixtureRun(tb))
			bare := storedRun(tb, &dispatch.StoredRun{Meta: dispatch.RunMeta{SHA256: apk.Checksum(nil)}})
			many := fixtureRun(tb)
			for i := 0; i < 400; i++ {
				many.Trace[fmt.Sprintf("Lcom/example/C%d;->m()V", i)] = struct{}{}
			}
			// The bare run's body ends in its report and trace counts,
			// both zero: a forged trace count the bytes after it just
			// cover, with every signature empty and so out of order.
			body, err := codec.Open(dispatch.EvidenceMagic, bare)
			if err != nil {
				tb.Fatal(err)
			}
			forged := binary.AppendUvarint(bytes.Clone(body[:len(body)-1]), 1<<14)
			forged = codec.Seal(dispatch.EvidenceMagic, append(forged, make([]byte, 1<<14)...))
			foreign := fixtureRun(tb)
			foreign.Meta.SHA256 = fixtureSHA // not the apk's sha256
			return append(variants(valid), seed{bare, encoded}, seed{storedRun(tb, many), encoded}, seed{forged, rejected},
				seed{storedRun(tb, foreign), rejected}, seed{nil, rejected}, seed{[]byte(dispatch.EvidenceMagic), rejected})
		},
		// The byte sections alias the input. A trace signature takes at
		// least one input byte and, presized from its validated count, at
		// most about 61 bytes of map (Go 1.24's tables round up to a power
		// of two); a report takes at least 60 bytes and decodes into a few
		// hundred.
		allocPerByte: 96,
		allocBase:    64 << 10,
		decode:       func(data []byte) (any, error) { return dispatch.DecodeEvidence(data) },
		encode:       func(tb testing.TB, v any) []byte { return storedRun(tb, v.(*dispatch.StoredRun)) },
		check: func(t *testing.T, data []byte, v any) {
			// The artifact-meta and reports-bin rows read the sections
			// this file holds.
			run := v.(*dispatch.StoredRun)
			body, _ := codec.Open(dispatch.EvidenceMagic, data)
			if !bytes.HasPrefix(body, dispatch.EncodeMeta(run.Meta)) || !bytes.Contains(body, dispatch.EncodeReports(rawReports(t, run.Reports))) {
				t.Fatal("the run file's meta or reports section differs from its section encoding")
			}
			// One seal covers every byte: no single-bit flip anywhere —
			// magic, any section, the checksum — decodes.
			flipped := bytes.Clone(data)
			for i := range flipped {
				for bit := byte(1); bit != 0; bit <<= 1 {
					flipped[i] ^= bit
					if _, err := dispatch.DecodeEvidence(flipped); !errors.Is(err, dispatch.ErrCorruptArtifact) {
						t.Fatalf("byte %d bit %#02x flipped: err %v, want ErrCorruptArtifact", i, bit, err)
					}
					flipped[i] ^= bit
				}
			}
		},
	},
	{
		name:    "shard-outcome",
		typed:   is(dispatch.ErrCorruptOutcome),
		strict:  true,
		magic:   "LSSHRD01",
		fixture: "outcome.bin",
		seeds: func(tb testing.TB) []seed {
			out := &dispatch.ShardOutcome{
				Range:     dispatch.ShardRange{Lo: 0, Hi: 2},
				Telemetry: obs.Bundle{Snapshot: obs.Snapshot{Counters: map[string]int64{"fleet_apps_total": 2}, Gauges: map[string]int64{}, Histograms: map[string]obs.HistogramSnapshot{}}},
				Partial:   []byte{0xAA},
			}
			encode := func() []byte {
				b, err := dispatch.EncodeShardOutcome(out)
				if err != nil {
					tb.Fatal(err)
				}
				return b
			}
			valid := encode()
			out.Range = dispatch.ShardRange{Lo: 2, Hi: 4}
			tel := &out.Telemetry
			tel.Events = []obs.Event{
				{Type: obs.EvRunStarted, TS: time.Unix(0, 0).UTC(), App: 2, Shard: -1},
				{Type: obs.EvRunCompleted, TS: time.Unix(0, 0).UTC(), App: 2, Shard: -1, Attempt: 1, Package: "com.example.app", Flows: 3, VirtualMS: 60},
			}
			withEvents := encode()
			tel.Events[1].App = 4 // past the range's end
			outOfRange := encode()
			tel.Events[1].App = 2
			epoch := "1970-01-01T00:00:00Z"
			tel.Spans = []obs.SpanLine{
				{Trace: dispatch.TraceID(2), Span: 1, Name: obs.SpanDispatch, Start: epoch, End: epoch, Attrs: map[string]string{"app": "2", "outcome": "run"}},
				{Trace: dispatch.TraceID(3), Span: 1, Name: obs.SpanDispatch, Start: epoch, End: epoch, Attrs: map[string]string{"app": "3", "outcome": "skip"}},
			}
			withSpans := encode()
			tel.Spans[1].Trace = dispatch.TraceID(4) // past the range's end
			spanOutOfRange := encode()
			return []seed{{valid, encoded}, {withEvents, encoded}, {outOfRange, rejected}, {withSpans, encoded}, {spanOutOfRange, rejected},
				{valid[:len(valid)/2], rejected}, {nil, rejected}, {[]byte("LSSHRD01"), rejected}, {[]byte("LSSHRD01{}\x00\x00\x00\x00"), rejected}}
		},
		decode: func(data []byte) (any, error) { return dispatch.DecodeShardOutcome(data) },
		encode: func(tb testing.TB, v any) []byte {
			b, err := dispatch.EncodeShardOutcome(v.(*dispatch.ShardOutcome))
			if err != nil {
				tb.Fatal(err)
			}
			return b
		},
		check: func(t *testing.T, _ []byte, v any) {
			out := v.(*dispatch.ShardOutcome)
			if out.Index < 0 || out.Range.Hi < out.Range.Lo {
				t.Fatalf("accepted invalid outcome %+v", out)
			}
			for _, ev := range out.Telemetry.Events {
				if !ev.Type.Logged() || ev.App < out.Range.Lo || ev.App >= out.Range.Hi {
					t.Fatalf("accepted a %q event of app %d in an outcome over [%d,%d)", ev.Type, ev.App, out.Range.Lo, out.Range.Hi)
				}
			}
			for _, s := range out.Telemetry.Spans {
				if app, ok := dispatch.TraceApp(s.Trace); !ok || app < out.Range.Lo || app >= out.Range.Hi {
					t.Fatalf("accepted a span of trace %q in an outcome over [%d,%d)", s.Trace, out.Range.Lo, out.Range.Hi)
				}
			}
		},
	},
	{
		name:      "partial",
		typed:     is(analysis.ErrCorruptPartial, analysis.ErrCategorizerMismatch),
		strict:    true,
		canonical: true,
		magic:     "LSPART03",
		fixture:   "partial.bin",
		seeds: func(tb testing.TB) []seed {
			var out []seed
			rng := rand.New(rand.NewSource(61))
			for trial := 0; trial < 4; trial++ {
				enc := randPartial(tb, rng, trial*30, 1+rng.Intn(6))
				rotten := bytes.Clone(enc)
				rotten[12] ^= 0xFF
				out = append(out, seed{enc, encoded}, seed{enc[:len(enc)/2], rejected}, seed{rotten, rejected},
					seed{append(enc[:len(enc):len(enc)], 0x00), rejected})
			}
			out = append(out, seed{nil, rejected}, seed{[]byte("LSPART03"), rejected}, seed{[]byte("LSPART03\x00\x00\x00\x00"), rejected})
			return append(out, partialCellSeeds(tb)...)
		},
		decode: func(data []byte) (any, error) { return analysis.DecodePartial(data, partialCats) },
		encode: func(tb testing.TB, v any) []byte {
			b, err := v.(*analysis.Partial).Encode()
			if err != nil {
				tb.Fatal(err)
			}
			return b
		},
		check: func(t *testing.T, _ []byte, v any) {
			// An accepted partial must be safe to merge and re-encode.
			m, err := analysis.MergePartials(v.(*analysis.Partial))
			if err != nil {
				t.Fatalf("accepted partial failed to merge: %v", err)
			}
			if _, err := m.Encode(); err != nil {
				t.Fatalf("merged partial failed to encode: %v", err)
			}
		},
	},
	{
		// Not canonical: the decoder does not require the symbol table
		// to be exactly the strings the rows use, in first-use order.
		name:    "segment",
		typed:   is(resultstore.ErrCorruptStore),
		strict:  true,
		magic:   "LSSEG001",
		fixture: "segment.bin",
		seeds: func(tb testing.TB) []seed {
			valid := mustSegment(tb, storeRecords(5))
			return []seed{
				{nil, rejected}, {[]byte("LSSEG001"), rejected}, {valid, encoded}, {valid[:len(valid)-1], rejected},
				{append(valid[:len(valid):len(valid)], 0xFF), rejected}, {mustSegment(tb, nil), encoded},
			}
		},
		decode: func(data []byte) (any, error) { return resultstore.DecodeSegment(data) },
		encode: func(tb testing.TB, v any) []byte { return mustSegment(tb, v.([]resultstore.Record)) },
	},
	{
		name:    "store-image",
		typed:   is(resultstore.ErrCorruptStore),
		strict:  true,
		fixture: "store.bin",
		seeds: func(tb testing.TB) []seed {
			// 40 apps fill more than one 128-row block, so the index
			// tiling check has something to tile.
			valid := storeImage(tb, storeRecords(40))
			noFooter := valid[:len(valid)-20]
			return append(variants(valid), seed{noFooter, rejected}, seed{[]byte("LSSTORE1"), rejected}, seed{storeImage(tb, nil), encoded})
		},
		decode: func(data []byte) (any, error) {
			s, err := resultstore.OpenBytes(data)
			if err != nil {
				return nil, err
			}
			var recs []resultstore.Record
			err = s.Scan(func(r *resultstore.Record) error { recs = append(recs, *r); return nil })
			return recs, err
		},
		encode: func(tb testing.TB, v any) []byte { return storeImage(tb, v.([]resultstore.Record)) },
	},
	{
		// The reports section of a run file, read on its own.
		name:      "reports-bin",
		typed:     is(dispatch.ErrCorruptArtifact),
		strict:    true,
		canonical: true,
		fixture:   "reports.bin",
		seeds: func(tb testing.TB) []seed {
			valid := dispatch.EncodeReports([][]byte{datagram(tb, 40001, 3), datagram(tb, 40002, 1)})
			return append(variants(valid), seed{dispatch.EncodeReports(nil), encoded},
				// A count of five with four bytes behind it, and one sound
				// frame around a datagram that does not decode.
				seed{[]byte{0x05, 'L', 'S', 'P', 'R'}, rejected}, seed{[]byte{0x01, 0x04, 'L', 'S', 'P', 'R'}, rejected}, seed{nil, rejected})
		},
		decode: func(data []byte) (any, error) { return dispatch.DecodeReports(data) },
		encode: func(tb testing.TB, v any) []byte { return dispatch.EncodeReports(rawReports(tb, v.([]*xposed.Report))) },
	},
	{
		name:    "sdex",
		typed:   prefixed("dex: "),
		strict:  true,
		fixture: "sdex.bin",
		seeds: func(tb testing.TB) []seed {
			f := dex.NewFile(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
			if err := f.AddMethod(dex.Method{Class: "com.unity3d.ads.android.cache.b", Name: "doInBackground", Params: []string{"[Ljava/lang/String;"}, Return: "Ljava/lang/Object;"}); err != nil {
				tb.Fatal(err)
			}
			valid, err := f.Encode()
			if err != nil {
				tb.Fatal(err)
			}
			return []seed{
				{valid, encoded}, {[]byte("SDEX\x01\x00"), rejected}, {nil, rejected},
				// A method count the bytes left just cover, though they
				// decode as duplicate methods after the first.
				{append(sdexContainer(1<<14, []string{"a.B", "f", "V"}, [][]uint64{{0, 1, 2}}), make([]byte, 1<<14)...), rejected},
				{amplifiedContainer(), rejected},
			}
		},
		// A method takes at least four container bytes and ~300 bytes of
		// File (method, signature header, index entries and the first
		// arena chunks' share), and its signature at most 64 bytes
		// (dex's maxSignatureExpansion) per container byte, in arena
		// chunks that at most double.
		allocPerByte: 4 * 64,
		allocBase:    1 << 20,
		decode:       func(data []byte) (any, error) { return dex.Decode(data) },
		// The apk store's check: the same walk, no File.
		agree: func(data []byte, v any, err error) error {
			n, checkErr := dex.Check(data)
			if err := sameVerdict(err, checkErr); err != nil || checkErr != nil {
				return err
			}
			if f := v.(*dex.File); n != f.MethodCount() {
				return fmt.Errorf("Check counts %d methods, Decode %d", n, f.MethodCount())
			}
			return nil
		},
		encode: func(tb testing.TB, v any) []byte {
			b, err := v.(*dex.File).Encode()
			if err != nil {
				tb.Fatalf("accepted container does not re-encode: %v", err)
			}
			return b
		},
		// Not canonical (a hostile pool may hold unused or reordered
		// strings), but every method renders its own signature, and
		// re-encoding must reach a fixed point that keeps every method.
		check: func(t *testing.T, _ []byte, v any) {
			f := v.(*dex.File)
			for i := 0; i < f.MethodCount(); i++ {
				m, _ := f.MethodAt(i)
				if sig, err := f.SignatureAt(i); err != nil || sig != m.TypeSignature() {
					t.Fatalf("SignatureAt(%d) = %q, %v; want %q", i, sig, err, m.TypeSignature())
				}
			}
			re, err := f.Encode()
			if err != nil {
				t.Fatalf("accepted container does not re-encode: %v", err)
			}
			again, err := dex.Decode(re)
			if err != nil {
				t.Fatalf("re-encoded container does not decode: %v", err)
			}
			if again.MethodCount() != f.MethodCount() {
				t.Fatalf("method count drifted: %d vs %d", again.MethodCount(), f.MethodCount())
			}
		},
	},
	{
		name:      "datagram",
		typed:     prefixed("xposed: "),
		strict:    true,
		canonical: true,
		fixture:   "datagram.bin",
		seeds: func(tb testing.TB) []seed {
			return []seed{{datagram(tb, 40001, 5), encoded}, {[]byte("LSPR"), rejected}, {[]byte(strings.Repeat("L", 200)), rejected}, {nil, rejected}}
		},
		decode: func(data []byte) (any, error) { return xposed.DecodeReport(data) },
		encode: func(tb testing.TB, v any) []byte {
			b, err := v.(*xposed.Report).Encode()
			if err != nil {
				tb.Fatalf("accepted report does not re-encode: %v", err)
			}
			return b
		},
	},
	{
		// A capture, as a stored run carries it and resume, audit and
		// `libspector dump` read it. Not canonical (either byte order, any snap
		// length), and cut at a record boundary it is a shorter capture.
		name:         "pcap",
		typed:        prefixed("pcap: "),
		strict:       true,
		concatenated: true,
		seeds: func(tb testing.TB) []seed {
			valid := onePacketCapture(tb)
			return append([]seed{{valid, encoded}, {valid[:20], rejected}, {nil, rejected}, {forgedCapture(1 << 30), rejected}},
				shortRecordCaptures(tb)...)
		},
		// Decoding reads the capture in place, as every reader of a
		// stored run does, and keeps its packets in a slice sized at one
		// 56-byte Packet per 16 input bytes (a bare record header): 3.5
		// bytes per input byte. The reader itself allocates nothing per
		// record, so a copy of the capture's bytes breaks the ceiling;
		// the base covers the reader and the fuzzing engine.
		allocPerByte: 4,
		allocBase:    64 << 10,
		decode:       func(data []byte) (any, error) { return readCapture(data) },
		encode: func(tb testing.TB, v any) []byte {
			w := pcap.NewWriter(nil)
			for _, p := range v.([]pcap.Packet) {
				if err := w.WritePacket(p); err != nil {
					tb.Fatalf("accepted packet does not re-encode: %v", err)
				}
			}
			return w.Bytes()
		},
	},
	{
		// An encoded apk, as the apk store and the artifact store check
		// it. Not canonical: zip admits many encodings of one package.
		// Strict: the container must end with its zip end record, so no
		// proper prefix and no extension of an image decodes.
		name:    "apk",
		strict:  true,
		typed:   prefixed("apk: "),
		fixture: "apk.bin",
		seeds: func(tb testing.TB) []seed {
			valid := generatedAPK(tb)
			manifest := `{"package":"com.a","version_code":1,"category":"TOOLS","main_activity":"com.a.M"}`
			// The container must end with its end record, so the image
			// with a byte appended is rejected, though archive/zip reads it.
			return append(variants(valid),
				seed{nil, rejected}, seed{forgedEntrySize(tb, valid, "classes.dex", 60<<20), rejected},
				// Sound zips around a dex that fails: junk, and two
				// methods with one signature.
				seed{zipped(tb, "AndroidManifest.json", manifest, "classes.dex", "SDEX junk"), rejected},
				seed{zipped(tb, "AndroidManifest.json", manifest, "classes.dex",
					string(sdexContainer(2, []string{"a.B", "f", "V"}, [][]uint64{{0, 1, 2}, {0, 1, 2}}))), rejected})
		},
		// An entry inflates at most apk's maxInflation (1032) bytes per
		// container byte, into a buffer presized no further; the dex then
		// decodes at the sdex row's 4·64 bytes per dex byte, charged here
		// at four dex bytes per apk byte (generated apks deflate about
		// 2:1). A valid dex that deflates far better and also amplifies
		// is bounded by maxEntryBytes and maxSignatureExpansion instead;
		// what this row catches is a forged size presizing from nothing.
		allocPerByte: 1032 + 4*4*64,
		allocBase:    1 << 20,
		decode:       func(data []byte) (any, error) { return apk.Decode(data) },
		encode: func(tb testing.TB, v any) []byte {
			b, err := v.(*apk.APK).Encode()
			if err != nil {
				tb.Fatalf("accepted apk does not re-encode: %v", err)
			}
			return b
		},
		// The apk store's and the artifact loader's check: the same
		// walk, dex.Check in place of dex.Decode.
		agree: func(data []byte, v any, err error) error {
			m, checkErr := apk.Check(data)
			if err := sameVerdict(err, checkErr); err != nil || checkErr != nil {
				return err
			}
			if a := v.(*apk.APK); m != a.Manifest {
				return fmt.Errorf("Check reads manifest %+v, Decode %+v", m, a.Manifest)
			}
			return nil
		},
		check: func(t *testing.T, _ []byte, v any) {
			a := v.(*apk.APK)
			re, err := a.Encode()
			if err != nil {
				t.Fatalf("accepted apk does not re-encode: %v", err)
			}
			again, err := apk.Decode(re)
			if err != nil {
				t.Fatalf("re-encoded apk does not decode: %v", err)
			}
			if again.Manifest != a.Manifest || again.Dex.MethodCount() != a.Dex.MethodCount() {
				t.Fatalf("re-encoding drifted: %+v/%d methods vs %+v/%d", again.Manifest, again.Dex.MethodCount(), a.Manifest, a.Dex.MethodCount())
			}
		},
	},
}

// exercise holds one input against one format's row: the decoder must
// not panic or allocate past the row's ceiling, a second reader must
// agree with it, a rejection must be typed, and an accepted input must
// pass the format's own check, re-encode
// byte-identically when the format is canonical, and stop decoding when
// it is strict and the input is cut or extended. It reports whether the
// input was accepted.
func exercise(t *testing.T, f *format, data []byte) (any, bool) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := f.decode(data)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, f.allocPerByte*uint64(len(data))+f.allocBase; f.allocBase > 0 && got > limit {
		t.Fatalf("%s: decoding %d bytes allocated %d, limit %d", f.name, len(data), got, limit)
	}
	if f.agree != nil {
		if disagree := f.agree(data, v, err); disagree != nil {
			t.Fatalf("%s: readers disagree: %v", f.name, disagree)
		}
	}
	if err != nil {
		if !f.typed(err) {
			t.Fatalf("%s: rejection is untyped: %v", f.name, err)
		}
		return nil, false
	}
	if f.check != nil {
		f.check(t, data, v)
	}
	if f.canonical {
		if re := f.encode(t, v); !bytes.Equal(re, data) {
			t.Fatalf("%s: decode→encode is not canonical: %d bytes in, %d out", f.name, len(data), len(re))
		}
	}
	if f.strict {
		mutants := [][]byte{append(data[:len(data):len(data)], 0x00), append(data[:len(data):len(data)], 0xA5)}
		if len(data) > 0 {
			mutants = append(mutants, data[:len(data)-1])
		}
		for _, m := range mutants {
			if _, err := f.decode(m); err == nil {
				t.Fatalf("%s: accepted input still decodes at %d bytes (was %d)", f.name, len(m), len(data))
			} else if !f.typed(err) {
				t.Fatalf("%s: rejection is untyped: %v", f.name, err)
			}
		}
	}
	return v, true
}

// sealBody is the bit of FuzzFormats' selector that marks the input as a
// bare body for a row with a magic.
const sealBody = 0x80

// FuzzFormats is the one fuzz target over every registered format: the
// first argument selects the row.
func FuzzFormats(f *testing.F) {
	for i := range formats {
		row := &formats[i]
		for _, s := range row.seeds(f) {
			f.Add(uint8(i), s.data)
			if body, err := codec.Open(row.magic, s.data); row.magic != "" && err == nil {
				f.Add(uint8(i)|sealBody, body)
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		row := &formats[int(which&^sealBody)%len(formats)]
		if which&sealBody != 0 && row.magic != "" {
			data = codec.Seal(row.magic, data)
		}
		exercise(t, row, data)
	})
}

// TestFormats runs every row's seeds, and the fixture the parent commit's
// encoder wrote, through the harness as ordinary unit tests.
func TestFormats(t *testing.T) {
	for i := range formats {
		f := &formats[i]
		t.Run(f.name, func(t *testing.T) {
			roundTrips := func(t *testing.T, data []byte) {
				v, ok := exercise(t, f, data)
				if !ok {
					t.Fatal("encoder output rejected")
				}
				if re := f.encode(t, v); !bytes.Equal(re, data) {
					t.Fatalf("encoder output does not round-trip: %d bytes in, %d out", len(data), len(re))
				}
				if !f.strict || f.concatenated {
					return
				}
				for n := range data {
					if _, err := f.decode(data[:n]); err == nil {
						t.Fatalf("prefix of %d/%d bytes decoded", n, len(data))
					}
				}
			}
			for j, s := range f.seeds(t) {
				t.Run(fmt.Sprintf("seed#%d", j), func(t *testing.T) {
					if s.want == encoded {
						roundTrips(t, s.data)
					} else if _, ok := exercise(t, f, s.data); ok != (s.want == tolerated) {
						t.Fatalf("decoded: %v, want %v", ok, s.want == tolerated)
					}
				})
			}
			if f.fixture == "" {
				return
			}
			t.Run("fixture", func(t *testing.T) {
				data, err := os.ReadFile(filepath.Join("testdata", f.fixture))
				if err != nil {
					t.Fatal(err)
				}
				roundTrips(t, data)
			})
		})
	}
}

// ---------------------------------------------------------------------------
// Seed builders: each goes through the production encoder.

// logImage writes records through the production record log (first one
// as the header) and returns the file image.
func logImage[R journal.LogRecord](tb testing.TB, recs []R) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "log")
	l, err := journal.CreateLog(path, recs[0], journal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, rec := range recs[1:] {
		if err := l.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// logRecords lists the records of an image the log replays, and the
// byte length of its intact prefix.
func logRecords[R journal.LogRecord](data []byte) (recs []R, validLen int64) {
	validLen, _, _ = journal.ReplayLog(data, func(_ int64, _ int, rec R) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, validLen
}

// replayedJournal is the journal row's decoded form: the folded replay
// the product uses, plus the records behind it for re-encoding.
type replayedJournal struct {
	*journal.Replay
	recs []journal.Record
}

// storedRun saves run through the artifact store and returns its run
// file.
func storedRun(tb testing.TB, run *dispatch.StoredRun) []byte {
	tb.Helper()
	store, err := dispatch.NewArtifactStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	if err := store.Save(run.Meta, run.APK, run.Capture, rawReports(tb, run.Reports), run.Trace); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(store.Dir(), run.Meta.SHA256+".run"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// rawReports re-encodes decoded reports to their datagrams.
func rawReports(tb testing.TB, reports []*xposed.Report) [][]byte {
	tb.Helper()
	raws := make([][]byte, len(reports))
	for i, rep := range reports {
		raw, err := rep.Encode()
		if err != nil {
			tb.Fatalf("accepted report does not re-encode: %v", err)
		}
		raws[i] = raw
	}
	return raws
}

// fixtureRun is the evidence row's fixture run: a three-byte apk, a
// one-packet capture, two reports and three trace signatures.
func fixtureRun(tb testing.TB) *dispatch.StoredRun {
	tb.Helper()
	var reports []*xposed.Report
	for _, raw := range [][]byte{datagram(tb, 40001, 3), datagram(tb, 40002, 1)} {
		rep, err := xposed.DecodeReport(raw)
		if err != nil {
			tb.Fatal(err)
		}
		reports = append(reports, rep)
	}
	apkBytes := []byte("apk")
	return &dispatch.StoredRun{
		Meta: dispatch.RunMeta{
			Package: "com.example.app", SHA256: apk.Checksum(apkBytes), Category: "TOOLS", Events: 500,
			RecordedAt: time.Date(2019, time.July, 1, 0, 0, 0, 0, time.UTC),
		},
		APK: apkBytes, Capture: onePacketCapture(tb), Reports: reports,
		Trace: map[string]struct{}{
			"Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;": {},
			"Lcom/example/app/Main;->onCreate(Landroid/os/Bundle;)V":                                   {},
			"Lcom/example/app/Net;->fetch()V":                                                          {},
		},
	}
}

// datagramTuple is the connection every seed datagram and packet reports.
var datagramTuple = pcap.FourTuple{
	SrcIP: netip.AddrFrom4([4]byte{10, 0, 2, 15}), SrcPort: 40001,
	DstIP: netip.AddrFrom4([4]byte{198, 18, 0, 7}), DstPort: 443,
}

// datagram encodes one supervisor report with the given stack depth.
func datagram(tb testing.TB, srcPort uint16, frames int) []byte {
	tb.Helper()
	stack := []string{
		"java.net.Socket.connect",
		"com.android.okhttp.internal.Platform.connectSocket",
		"Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;",
		"android.os.AsyncTask$2.call",
		"java.util.concurrent.FutureTask.run",
	}
	raw, err := (&xposed.Report{
		APKSHA256: fixtureSHA,
		Tuple: pcap.FourTuple{
			SrcIP: datagramTuple.SrcIP, SrcPort: srcPort,
			DstIP: datagramTuple.DstIP, DstPort: datagramTuple.DstPort,
		},
		ConnectedAt: time.Date(2019, 7, 1, 10, 0, 0, 42000, time.UTC),
		StackTrace:  stack[:frames],
	}).Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// sdexContainer hand-assembles an SDEX container: the pool, then each
// method as its wire references (class, name, return, params...).
func sdexContainer(count uint32, pool []string, methods [][]uint64) []byte {
	b := append([]byte("SDEX"), 1, 0)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pool)))
	for _, s := range pool {
		b = codec.AppendString(b, s)
	}
	b = binary.LittleEndian.AppendUint32(b, count)
	for _, refs := range methods {
		b = binary.AppendUvarint(b, refs[0])
		b = binary.AppendUvarint(b, refs[1])
		b = binary.AppendUvarint(b, refs[2])
		b = binary.AppendUvarint(b, uint64(len(refs)-3))
		for _, r := range refs[3:] {
			b = binary.AppendUvarint(b, r)
		}
	}
	return b
}

// amplifiedContainer is a few kilobytes whose methods each take one long
// pool string as a thousand parameters: megabytes of signatures apiece.
func amplifiedContainer() []byte {
	pool := []string{"a.B", "V", "L" + strings.Repeat("x", 4000) + ";"}
	var methods [][]uint64
	for i := 0; i < 16; i++ {
		refs := []uint64{0, 1, 1}
		for j := 0; j < 1000+i; j++ {
			refs = append(refs, 2)
		}
		methods = append(methods, refs)
	}
	return sdexContainer(uint32(len(methods)), pool, methods)
}

// sameVerdict reports whether two readers' errors over one input differ:
// one accepting what the other rejects, or different reasons.
func sameVerdict(want, got error) error {
	switch {
	case (want == nil) != (got == nil):
		return fmt.Errorf("decode err %v, check err %v", want, got)
	case want != nil && want.Error() != got.Error():
		return fmt.Errorf("decode says %q, check %q", want, got)
	}
	return nil
}

// generatedAPK is the apk row's fixture app, encoded by the generator:
// app 0 of a seed-42 world at MethodScale 0.002 (~300 methods).
func generatedAPK(tb testing.TB) []byte {
	tb.Helper()
	cfg := synth.DefaultConfig()
	cfg.NumApps = 4
	cfg.MethodScale = 0.002
	w, err := synth.NewWorld(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	app, err := w.GenerateApp(0)
	if err != nil {
		tb.Fatal(err)
	}
	return app.Encoded
}

// zipped builds a zip of the given name, content pairs.
func zipped(tb testing.TB, nameContent ...string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for i := 0; i+1 < len(nameContent); i += 2 {
		w, err := zw.Create(nameContent[i])
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := io.WriteString(w, nameContent[i+1]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// forgedEntrySize rewrites the uncompressed size the zip central
// directory declares for entry name: a size the container does not hold.
func forgedEntrySize(tb testing.TB, zipped []byte, name string, size uint32) []byte {
	tb.Helper()
	b := bytes.Clone(zipped)
	for i := bytes.Index(b, []byte("PK\x01\x02")); i >= 0 && i+46 <= len(b); {
		nameLen := int(binary.LittleEndian.Uint16(b[i+28:]))
		if string(b[i+46:i+46+nameLen]) == name {
			binary.LittleEndian.PutUint32(b[i+24:], size)
			return b
		}
		next := bytes.Index(b[i+4:], []byte("PK\x01\x02"))
		if next < 0 {
			break
		}
		i += 4 + next
	}
	tb.Fatalf("no central directory entry %s", name)
	return nil
}

// onePacketCapture is a capture of one SYN of datagramTuple.
func onePacketCapture(tb testing.TB) []byte {
	tb.Helper()
	raw, err := pcap.EncodeTCP(datagramTuple, pcap.FlagSYN, 0, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	w := pcap.NewWriter(nil)
	if err := w.WritePacket(pcap.Packet{Timestamp: time.Unix(1, 0), Data: raw}); err != nil {
		tb.Fatal(err)
	}
	return w.Bytes()
}

// shortRecordCaptures are one-record captures of records shorter than
// their packets: a snapped TCP segment, which is valid, then a record cut
// inside its TCP header, one holding more than its original length, one
// whose original length is not its IPv4 total length, and a short UDP
// record, which are not.
func shortRecordCaptures(tb testing.TB) []seed {
	tb.Helper()
	tcp, err := pcap.EncodeTCP(datagramTuple, pcap.FlagACK|pcap.FlagPSH, 1, 1, make([]byte, 200))
	if err != nil {
		tb.Fatal(err)
	}
	udp, err := pcap.EncodeUDP(datagramTuple, make([]byte, 200))
	if err != nil {
		tb.Fatal(err)
	}
	record := func(data []byte, capLen, origLen int) []byte {
		b := bytes.Clone(pcap.NewWriter(nil).Bytes())
		rec := make([]byte, 16)
		binary.LittleEndian.PutUint32(rec[8:12], uint32(capLen))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(origLen))
		return append(append(b, rec...), data...)
	}
	return []seed{
		{record(tcp[:40], 40, len(tcp)), encoded},
		{record(tcp[:30], 30, len(tcp)), rejected},
		{record(tcp, len(tcp), len(tcp)-1), rejected},
		{record(tcp[:40], 40, len(tcp)+1), rejected},
		{record(udp[:28], 28, len(udp)), rejected},
	}
}

// readCapture reads every packet of a capture in place, into a slice
// sized for the most records the capture can hold.
func readCapture(data []byte) ([]pcap.Packet, error) {
	r, err := pcap.NewReader(pcap.InPlace(data))
	if err != nil {
		return nil, err
	}
	out := make([]pcap.Packet, 0, len(data)/recordHeaderLen)
	for {
		var p pcap.Packet
		err := r.Next(&p)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// recordHeaderLen is a pcap record header's size, the least room a
// record takes.
const recordHeaderLen = 16

// forgedCapture is a pcap global header whose snap length is 0xffffffff,
// then one record header declaring recLen bytes the file does not hold.
func forgedCapture(recLen uint32) []byte {
	b := bytes.Clone(pcap.NewWriter(nil).Bytes())
	binary.LittleEndian.PutUint32(b[16:20], 0xffffffff)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:12], recLen)
	binary.LittleEndian.PutUint32(rec[12:16], recLen)
	return append(b, rec...)
}

// storeRecords builds a deterministic canonical record set: 1–6 flows
// for each of apps apps.
func storeRecords(apps int) []resultstore.Record {
	origins := []string{"", "com.unity3d", "com.facebook.ads", "com.google.gms", "org.chromium"}
	domains := []string{"", "ads.example.com", "cdn.example.net", "telemetry.example.org"}
	rng := rand.New(rand.NewSource(7))
	var recs []resultstore.Record
	for a := 0; a < apps; a++ {
		for f, flows := 0, 1+rng.Intn(6); f < flows; f++ {
			o := origins[rng.Intn(len(origins))]
			recs = append(recs, resultstore.Record{
				AppIndex: a, FlowIndex: f,
				AppSHA: fmt.Sprintf("sha-%04d", a), AppPkg: fmt.Sprintf("com.app.p%d", a%37),
				Origin: o, TwoLevel: libradar.TwoLevel(o), Domain: domains[rng.Intn(len(domains))],
				Attributed: o != "", BuiltinOrigin: o == "com.google.gms",
				BytesSent: rng.Int63n(100000), BytesReceived: rng.Int63n(1000000),
				PacketsSent: rng.Int63n(500), PacketsRecv: rng.Int63n(900),
			})
		}
	}
	return recs
}

func mustSegment(tb testing.TB, recs []resultstore.Record) []byte {
	tb.Helper()
	seg, err := resultstore.EncodeSegment(recs)
	if err != nil {
		tb.Fatal(err)
	}
	return seg
}

// storeImage commits recs as a store file and returns its image.
func storeImage(tb testing.TB, recs []resultstore.Record) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "store")
	if err := resultstore.Write(path, recs); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// partialCats is the domain truth every partial seed and the partial
// fixture were folded against; the decoder cross-checks it.
var partialCats = staticCategorizer{
	"ads.example.com": corpus.DomAdvertisements,
	"cdn.example.net": corpus.DomCDN,
	"api.example.com": corpus.DomInfoTech,
	"img.example.org": corpus.DomAnalytics,
}

type staticCategorizer map[string]corpus.DomainCategory

func (s staticCategorizer) Categorize(domain string) corpus.DomainCategory {
	if c, ok := s[domain]; ok {
		return c
	}
	return corpus.DomUnknown
}

// randPartial folds runs randomized single-flow runs, starting at app
// index base, into an accumulator and returns the sealed, encoded partial.
func randPartial(tb testing.TB, rng *rand.Rand, base, runs int) []byte {
	tb.Helper()
	origins := []string{"com.vungle.publisher", "okhttp3.internal.http", "com.unity3d.player", "com.app.local.net", "org.chromium.net"}
	domains := []string{"ads.example.com", "cdn.example.net", "api.example.com", "img.example.org", ""}
	appCats := []corpus.AppCategory{"GAME_PUZZLE", "TOOLS", "SOCIAL"}
	acc, err := analysis.NewAccumulator(partialCats)
	if err != nil {
		tb.Fatal(err)
	}
	for r := 0; r < runs; r++ {
		flow := partialFlow(origins[rng.Intn(len(origins))], domains[rng.Intn(len(domains))],
			rng.Int63n(10_000), rng.Int63n(100_000))
		run := &attribution.RunResult{
			AppSHA: "sha-f", AppPackage: "com.app.fz", AppCategory: appCats[rng.Intn(len(appCats))],
			Flows:    []*attribution.Flow{flow},
			Coverage: attribution.Coverage{ExecutedMethods: 10, TotalMethods: 100},
		}
		if err := acc.Observe(base+r, run); err != nil {
			tb.Fatal(err)
		}
	}
	return sealPartial(tb, acc)
}

func partialFlow(origin, domain string, sent, rcvd int64) *attribution.Flow {
	return &attribution.Flow{
		Tuple: pcap.FourTuple{
			SrcIP: netip.AddrFrom4([4]byte{10, 0, 2, 15}), SrcPort: 40000,
			DstIP: netip.AddrFrom4([4]byte{198, 18, 0, 1}), DstPort: 80,
		},
		Domain: domain, BytesSent: sent, BytesReceived: rcvd,
		Report: &xposed.Report{}, OriginLibrary: origin, TwoLevelLibrary: libradar.TwoLevel(origin),
	}
}

func sealPartial(tb testing.TB, acc *analysis.Accumulator) []byte {
	tb.Helper()
	p, err := acc.Seal()
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := p.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// partialCellSeeds returns a two-cell partial, the partial under version
// 01's magic, three rejected rewrites of its library cells (the two cells
// swapped, one cell twice, and a cell whose origin symbol is past the
// origin table), then four rejected rewrites of its baseline cells (the
// same three, and a verdict byte with an undefined bit) and the partial
// under version 02's magic. The library cells come last but for the
// baseline cells: their count, then per cell the app-category,
// domain-category and origin symbols, the builtin flag and the zig-zag
// byte total; the baseline cells' count, then per cell the origin symbol,
// the verdict byte and the zig-zag byte total.
func partialCellSeeds(tb testing.TB) []seed {
	tb.Helper()
	acc, err := analysis.NewAccumulator(partialCats)
	if err != nil {
		tb.Fatal(err)
	}
	if err := acc.Observe(0, &attribution.RunResult{
		AppSHA: "sha-c", AppPackage: "com.app.c", AppCategory: "TOOLS",
		Flows: []*attribution.Flow{partialFlow("com.a.net", "", 1, 2), partialFlow("com.b.net", "", 3, 4)},
	}); err != nil {
		tb.Fatal(err)
	}
	enc := sealPartial(tb, acc)
	body, err := codec.Open("LSPART03", enc)
	if err != nil {
		tb.Fatal(err)
	}
	// Symbol 0 of every table is "", and the "" domain's category,
	// unknown, is domain category 1.
	a := []byte{1, 1, 1, 0, 6}  // TOOLS, unknown, com.a.net, not builtin, 3 bytes
	b := []byte{1, 1, 2, 0, 14} // TOOLS, unknown, com.b.net, not builtin, 7 bytes
	ea := []byte{1, 0, 6}       // com.a.net, no verdict, 3 bytes
	eb := []byte{2, 0, 14}      // com.b.net, no verdict, 7 bytes
	cells := slices.Concat([]byte{2}, a, b, []byte{2}, ea, eb)
	if !bytes.HasSuffix(body, cells) {
		tb.Fatalf("the partial's body does not end with its cells % x", cells)
	}
	head := body[:len(body)-len(cells)]
	rewrite := func(a, b, ea, eb []byte) seed {
		return seed{codec.Seal("LSPART03", slices.Concat(head, []byte{2}, a, b, []byte{2}, ea, eb)), rejected}
	}
	v01 := append([]byte("LSPART01"), enc[len("LSPART03"):]...)
	v02 := append([]byte("LSPART02"), enc[len("LSPART03"):]...)
	return []seed{{enc, encoded}, {v01, rejected},
		rewrite(b, a, ea, eb), rewrite(a, a, ea, eb), rewrite(a, []byte{1, 1, 3, 0, 14}, ea, eb),
		rewrite(a, b, eb, ea), rewrite(a, b, ea, ea), rewrite(a, b, ea, []byte{3, 0, 14}), rewrite(a, b, ea, []byte{2, 0x10, 14}),
		{v02, rejected}}
}
