// Package apk models Android application packages: a zip container (like a
// real apk) holding a manifest, one or more dex files, and native shared
// libraries per ABI. It provides the canonical binary encoding, the sha256
// checksum that supervisor reports embed (§II-B2), and the ABI filter the
// paper applies during app collection (§III-A: apps shipping only ARM
// shared libraries are excluded because the analysis image is x86).
package apk

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"libspector/internal/corpus"
	"libspector/internal/dex"
)

// Well-known ABI identifiers.
const (
	ABIX86      = "x86"
	ABIX8664    = "x86_64"
	ABIArmeabi  = "armeabi-v7a"
	ABIArm64    = "arm64-v8a"
	ManifestTag = "AndroidManifest.json"
)

// Manifest is the subset of AndroidManifest content the pipeline consumes.
type Manifest struct {
	// Package is the application package name ("com.example.fitness").
	Package string `json:"package"`
	// VersionCode is the monotonically increasing build number.
	VersionCode int `json:"version_code"`
	// Category is the Play Store category of the app.
	Category corpus.AppCategory `json:"category"`
	// MainActivity is the launcher activity class.
	MainActivity string `json:"main_activity"`
}

// Validate checks manifest invariants.
func (m Manifest) Validate() error {
	switch {
	case m.Package == "":
		return fmt.Errorf("apk: manifest has empty package name")
	case m.VersionCode <= 0:
		return fmt.Errorf("apk: manifest for %s has non-positive version code %d", m.Package, m.VersionCode)
	case !corpus.ValidAppCategory(m.Category):
		return fmt.Errorf("apk: manifest for %s has unknown category %q", m.Package, m.Category)
	case m.MainActivity == "":
		return fmt.Errorf("apk: manifest for %s lacks a main activity", m.Package)
	}
	return nil
}

// APK is a parsed application package.
type APK struct {
	Manifest Manifest
	// Dex is the primary classes.dex container (SDEX format).
	Dex *dex.File
	// NativeABIs lists the ABIs of bundled native shared libraries; an
	// empty list means the app is pure managed code.
	NativeABIs []string
	// DexDate is the dex timestamp AndroZoo surfaces; equal to
	// dex.DefaultDexTime when the toolchain stripped it.
	DexDate time.Time
	// VTScanDate is the most recent VirusTotal scan of the apk; the zero
	// value means the apk has never been scanned.
	VTScanDate time.Time
}

// Validate checks package invariants.
func (a *APK) Validate() error {
	if a.Dex == nil {
		if err := a.Manifest.Validate(); err != nil {
			return err
		}
		return fmt.Errorf("apk: %s has no dex file", a.Manifest.Package)
	}
	return validate(a.Manifest, a.Dex.MethodCount(), a.NativeABIs)
}

// validate is the package invariants over their parts, for a package
// whose dex defines methods methods: Validate and Check share it.
func validate(m Manifest, methods int, abis []string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if methods == 0 {
		return fmt.Errorf("apk: %s has an empty dex file", m.Package)
	}
	for _, abi := range abis {
		switch abi {
		case ABIX86, ABIX8664, ABIArmeabi, ABIArm64:
		default:
			return fmt.Errorf("apk: %s bundles unknown ABI %q", m.Package, abi)
		}
	}
	return nil
}

// SupportsX86 reports whether the app can run on the x86 analysis image:
// either it bundles no native code at all, or it bundles an x86 flavor.
// This is the §III-A collection filter.
func (a *APK) SupportsX86() bool {
	if len(a.NativeABIs) == 0 {
		return true
	}
	for _, abi := range a.NativeABIs {
		if abi == ABIX86 || abi == ABIX8664 {
			return true
		}
	}
	return false
}

// Encode serializes the package as a zip archive with the real-apk layout:
// AndroidManifest.json, classes.dex, and lib/<abi>/libapp.so entries. The
// compressor, the archive and the dex bytes are an encoder's scratch,
// kept from one Encode to the next; the result is an exact-size copy.
func (a *APK) Encode() ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("apk: encode: %w", err)
	}
	var e *encoder
	select {
	case e = <-idleEncoders:
	default:
		e = newEncoder()
	}
	defer e.release()
	e.out.Reset()
	zw := zip.NewWriter(&e.out)
	zw.RegisterCompressor(zip.Deflate, e.compressor)

	writeEntry := func(name string, content []byte) error {
		// Fixed timestamps keep the encoding canonical so sha256 checksums
		// are stable across encodes of the same package.
		hdr := &zip.FileHeader{Name: name, Method: zip.Deflate}
		hdr.Modified = a.dexDateOrDefault()
		w, err := zw.CreateHeader(hdr)
		if err != nil {
			return fmt.Errorf("apk: creating zip entry %s: %w", name, err)
		}
		if _, err := w.Write(content); err != nil {
			return fmt.Errorf("apk: writing zip entry %s: %w", name, err)
		}
		return nil
	}

	manifestJSON, err := json.Marshal(a.Manifest)
	if err != nil {
		return nil, fmt.Errorf("apk: marshaling manifest: %w", err)
	}
	if err := writeEntry(ManifestTag, manifestJSON); err != nil {
		return nil, err
	}
	e.dex = a.Dex.AppendEncode(e.dex[:0])
	if err := writeEntry("classes.dex", e.dex); err != nil {
		return nil, err
	}
	abis := make([]string, len(a.NativeABIs))
	copy(abis, a.NativeABIs)
	sort.Strings(abis)
	for _, abi := range abis {
		// A tiny deterministic stub stands in for the native library body.
		stub := []byte("\x7fELF-stub:" + abi + ":" + a.Manifest.Package)
		if err := writeEntry("lib/"+abi+"/libapp.so", stub); err != nil {
			return nil, err
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("apk: finalizing zip: %w", err)
	}
	return bytes.Clone(e.out.Bytes()), nil
}

// encoder is Encode's scratch: one deflate compressor, reset for every
// entry, the archive being written and the dex bytes being compressed.
type encoder struct {
	fw  *flate.Writer
	out bytes.Buffer
	dex []byte
}

// encodeLevel is the deflate level archive/zip's own compressor uses;
// any other level changes every apk's bytes and so its sha256.
const encodeLevel = 5

func newEncoder() *encoder {
	fw, err := flate.NewWriter(io.Discard, encodeLevel)
	if err != nil {
		panic(err) // encodeLevel is valid
	}
	return &encoder{fw: fw}
}

// compressor hands the zip writer the encoder's deflate compressor,
// reset onto the entry's writer; the entry's close flushes it.
func (e *encoder) compressor(w io.Writer) (io.WriteCloser, error) {
	e.fw.Reset(w)
	return e.fw, nil
}

// idleEncoders holds encoders between Encodes, one for each processor
// that may be encoding at once; a sync.Pool would be emptied at every GC
// and rebuild the compressor's ~790 KiB of tables.
var idleEncoders = make(chan *encoder, runtime.GOMAXPROCS(0))

// release keeps the encoder for the next Encode unless its buffers grew
// past maxIdleEntryBytes.
func (e *encoder) release() {
	if e.out.Cap() > maxIdleEntryBytes || cap(e.dex) > maxIdleEntryBytes {
		return
	}
	select {
	case idleEncoders <- e:
	default:
	}
}

func (a *APK) dexDateOrDefault() time.Time {
	if a.DexDate.IsZero() {
		return dex.DefaultDexTime
	}
	return a.DexDate
}

// Decode parses a zip-encoded package produced by Encode. It rejects
// exactly what Check rejects.
func Decode(data []byte) (*APK, error) {
	a := &APK{}
	var err error
	a.Manifest, a.NativeABIs, err = walk(data, new([]byte), func(content []byte) (int, error) {
		df, err := dex.Decode(content)
		if err != nil {
			return 0, err
		}
		a.Dex, a.DexDate = df, df.Created
		return df.MethodCount(), nil
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Check validates a zip-encoded package with every check Decode makes
// and returns its manifest, but builds no dex.File: the dex is checked by
// dex.Check, and the entries are inflated into a reused buffer. The apk
// store runs it on every apk it is given (§III-A).
func Check(data []byte) (Manifest, error) {
	var buf []byte
	select {
	case buf = <-idleEntryBufs:
	default:
	}
	m, _, err := walk(data, &buf, dex.Check)
	if cap(buf) <= maxIdleEntryBytes {
		select {
		case idleEntryBufs <- buf[:0]:
		default:
		}
	}
	if err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// idleEntryBufs holds Check's entry buffers between calls, one for each
// processor that may be checking at once; unlike a sync.Pool it is not
// emptied at every GC.
var idleEntryBufs = make(chan []byte, runtime.GOMAXPROCS(0))

// DrainIdle drops every idle encoder and entry buffer, so that a heap
// reading taken next counts none of the scratch kept between calls.
func DrainIdle() {
	for {
		select {
		case <-idleEncoders:
		case <-idleEntryBufs:
		default:
			return
		}
	}
}

// maxIdleEntryBytes is the largest entry buffer Check keeps for the next
// apk, far above a generated app's (about 11 bytes per method).
const maxIdleEntryBytes = 8 << 20

// walk is the one reader of an encoded package: Decode and Check both run
// it, so they accept and reject the same bytes. The container must end
// with its end-of-central-directory record, comment-free, right after a
// central directory that the record places from byte 0: exactly what
// Encode writes. archive/zip alone reads past bytes appended after that
// record or prepended before the first entry, so distinct byte strings,
// under distinct checksums, would check as one package. It reads every
// entry under maxEntryBytes with archive/zip's size and CRC checks,
// parses the manifest, hands the classes.dex bytes to readDex (which
// reports its method count), collects the native ABIs, sorted, and
// applies validate.
// Entries are read into *buf, which grows as needed, so the dex bytes
// readDex gets are valid only during the call.
func walk(data []byte, buf *[]byte, readDex func([]byte) (int, error)) (Manifest, []string, error) {
	var m Manifest
	if err := checkEnd(data); err != nil {
		return m, nil, err
	}
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return m, nil, fmt.Errorf("apk: opening zip container: %w", err)
	}
	read := func(zf *zip.File) ([]byte, error) {
		content, err := readZipEntry(zf, (*buf)[:0], maxInflation*len(data))
		if err == nil {
			*buf = content
		}
		return content, err
	}
	var abis []string
	methods := 0
	sawManifest, sawDex := false, false
	for _, zf := range zr.File {
		switch {
		case zf.Name == ManifestTag:
			content, err := read(zf)
			if err != nil {
				return m, nil, err
			}
			if err := json.Unmarshal(content, &m); err != nil {
				return m, nil, fmt.Errorf("apk: parsing manifest: %w", err)
			}
			sawManifest = true
		case zf.Name == "classes.dex":
			content, err := read(zf)
			if err != nil {
				return m, nil, err
			}
			if methods, err = readDex(content); err != nil {
				return m, nil, fmt.Errorf("apk: parsing classes.dex: %w", err)
			}
			sawDex = true
		case strings.HasPrefix(zf.Name, "lib/"):
			parts := strings.Split(zf.Name, "/")
			if len(parts) != 3 {
				return m, nil, fmt.Errorf("apk: malformed native library path %q", zf.Name)
			}
			abis = append(abis, parts[1])
		default:
			return m, nil, fmt.Errorf("apk: unexpected container entry %q", zf.Name)
		}
	}
	if !sawManifest {
		return m, nil, fmt.Errorf("apk: container lacks %s", ManifestTag)
	}
	if !sawDex {
		return m, nil, fmt.Errorf("apk: container lacks classes.dex")
	}
	sort.Strings(abis)
	if err := validate(m, methods, abis); err != nil {
		return m, nil, fmt.Errorf("apk: decode: %w", err)
	}
	return m, abis, nil
}

// endRecordLen is the size of a zip end-of-central-directory record with
// an empty comment; endRecordSig opens it.
const (
	endRecordLen = 22
	endRecordSig = 0x06054b50
)

// checkEnd requires data to end with a comment-free end-of-central-directory
// record whose central directory ends where the record begins.
func checkEnd(data []byte) error {
	if len(data) < endRecordLen {
		return fmt.Errorf("apk: container of %d bytes is shorter than a zip end record", len(data))
	}
	end := data[len(data)-endRecordLen:]
	if binary.LittleEndian.Uint32(end) != endRecordSig || binary.LittleEndian.Uint16(end[20:]) != 0 {
		return fmt.Errorf("apk: container does not end with a comment-free zip end record")
	}
	size, offset := binary.LittleEndian.Uint32(end[12:]), binary.LittleEndian.Uint32(end[16:])
	if uint64(offset)+uint64(size) != uint64(len(data)-endRecordLen) {
		return fmt.Errorf("apk: central directory at %d+%d does not end at the end record (%d)", offset, size, len(data)-endRecordLen)
	}
	return nil
}

// maxEntryBytes bounds the declared uncompressed size of an entry Decode
// reads, so a forged size cannot make it allocate without limit. The
// largest entry Encode writes is classes.dex of an app at the
// generator's 400 000-method clamp. An SDEX method is at most seven pool
// references (class, name, return, param count, three params), each a
// varint of at most three bytes, since the pool stays under 2^21
// strings: 21 bytes. At worst each method also brings a fresh method name
// (under 32 bytes) and a quarter of a fresh class name (under 128 bytes,
// four or more methods per class) into the pool: 21 + 33 + 33 = 87 bytes
// per method, 400 000 × 87 B ≈ 33 MiB (generated apps measure about 11
// bytes per method). 64 MiB leaves room for twice the bound; the manifest
// is a few hundred bytes.
const maxEntryBytes = 64 << 20

// maxInflation is deflate's largest expansion: a 258-byte match costs at
// least two bits, so no entry inflates past 1032 bytes per byte it takes
// in the container.
const maxInflation = 1032

// readZipEntry reads one entry, appending it to dst (which may be nil),
// and returns the result. The declared size is refused past
// maxEntryBytes, and it presizes the buffer no further than limit, what
// the container's bytes could inflate to: a forged size costs nothing
// the input does not hold.
func readZipEntry(zf *zip.File, dst []byte, limit int) ([]byte, error) {
	if zf.UncompressedSize64 > maxEntryBytes {
		return nil, fmt.Errorf("apk: zip entry %s declares %d bytes, over the %d-byte limit", zf.Name, zf.UncompressedSize64, maxEntryBytes)
	}
	rc, err := zf.Open()
	if err != nil {
		return nil, fmt.Errorf("apk: opening zip entry %s: %w", zf.Name, err)
	}
	defer func() { _ = rc.Close() }()
	size := int64(zf.UncompressedSize64)
	buf := bytes.NewBuffer(dst)
	buf.Grow(min(int(size), limit) + bytes.MinRead)
	// One byte past the declared size, so the last read reaches the
	// archive/zip EOF where it checks the entry's size and CRC.
	if _, err := buf.ReadFrom(io.LimitReader(rc, size+1)); err != nil {
		return nil, fmt.Errorf("apk: reading zip entry %s: %w", zf.Name, err)
	}
	return buf.Bytes(), nil
}

// Checksum returns the hex-encoded sha256 of the encoded package, the
// identifier supervisor UDP reports carry (§II-B2a).
func Checksum(encoded []byte) string {
	sum := sha256.Sum256(encoded)
	return hex.EncodeToString(sum[:])
}
