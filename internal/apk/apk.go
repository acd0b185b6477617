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
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
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
	if err := a.Manifest.Validate(); err != nil {
		return err
	}
	if a.Dex == nil {
		return fmt.Errorf("apk: %s has no dex file", a.Manifest.Package)
	}
	if a.Dex.MethodCount() == 0 {
		return fmt.Errorf("apk: %s has an empty dex file", a.Manifest.Package)
	}
	for _, abi := range a.NativeABIs {
		switch abi {
		case ABIX86, ABIX8664, ABIArmeabi, ABIArm64:
		default:
			return fmt.Errorf("apk: %s bundles unknown ABI %q", a.Manifest.Package, abi)
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
// AndroidManifest.json, classes.dex, and lib/<abi>/libapp.so entries.
func (a *APK) Encode() ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("apk: encode: %w", err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)

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
	dexBytes, err := a.Dex.Encode()
	if err != nil {
		return nil, fmt.Errorf("apk: encoding dex: %w", err)
	}
	if err := writeEntry("classes.dex", dexBytes); err != nil {
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
	return buf.Bytes(), nil
}

func (a *APK) dexDateOrDefault() time.Time {
	if a.DexDate.IsZero() {
		return dex.DefaultDexTime
	}
	return a.DexDate
}

// Decode parses a zip-encoded package produced by Encode.
func Decode(data []byte) (*APK, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("apk: opening zip container: %w", err)
	}
	a := &APK{}
	sawManifest, sawDex := false, false
	for _, zf := range zr.File {
		switch {
		case zf.Name == ManifestTag:
			content, err := readZipEntry(zf)
			if err != nil {
				return nil, err
			}
			if err := json.Unmarshal(content, &a.Manifest); err != nil {
				return nil, fmt.Errorf("apk: parsing manifest: %w", err)
			}
			sawManifest = true
		case zf.Name == "classes.dex":
			content, err := readZipEntry(zf)
			if err != nil {
				return nil, err
			}
			df, err := dex.Decode(content)
			if err != nil {
				return nil, fmt.Errorf("apk: parsing classes.dex: %w", err)
			}
			a.Dex = df
			a.DexDate = df.Created
			sawDex = true
		case strings.HasPrefix(zf.Name, "lib/"):
			parts := strings.Split(zf.Name, "/")
			if len(parts) != 3 {
				return nil, fmt.Errorf("apk: malformed native library path %q", zf.Name)
			}
			a.NativeABIs = append(a.NativeABIs, parts[1])
		default:
			return nil, fmt.Errorf("apk: unexpected container entry %q", zf.Name)
		}
	}
	if !sawManifest {
		return nil, fmt.Errorf("apk: container lacks %s", ManifestTag)
	}
	if !sawDex {
		return nil, fmt.Errorf("apk: container lacks classes.dex")
	}
	sort.Strings(a.NativeABIs)
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("apk: decode: %w", err)
	}
	return a, nil
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

func readZipEntry(zf *zip.File) ([]byte, error) {
	if zf.UncompressedSize64 > maxEntryBytes {
		return nil, fmt.Errorf("apk: zip entry %s declares %d bytes, over the %d-byte limit", zf.Name, zf.UncompressedSize64, maxEntryBytes)
	}
	rc, err := zf.Open()
	if err != nil {
		return nil, fmt.Errorf("apk: opening zip entry %s: %w", zf.Name, err)
	}
	defer func() { _ = rc.Close() }()
	size := int64(zf.UncompressedSize64)
	var buf bytes.Buffer
	buf.Grow(int(size) + bytes.MinRead)
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
