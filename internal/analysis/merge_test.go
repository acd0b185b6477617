package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"libspector/internal/attribution"
	"libspector/internal/corpus"
)

// randCategorizer is the shared domain truth for merge tests: every
// shard of one campaign categorizes domains identically, which is what
// the decode-side cross-check enforces.
var mergeCats = staticCategorizer{
	"ads.example.com": corpus.DomAdvertisements,
	"cdn.example.net": corpus.DomCDN,
	"api.example.com": corpus.DomInfoTech,
	"img.example.org": corpus.DomAnalytics,
}

var mergeOrigins = []string{
	"com.vungle.publisher", "okhttp3.internal.http", "com.unity3d.player",
	"com.app.local.net", "org.chromium.net",
}

var mergeDomains = []string{"ads.example.com", "cdn.example.net", "api.example.com", "img.example.org", ""}

var mergeAppCats = []corpus.AppCategory{"GAME_PUZZLE", "TOOLS", "SOCIAL"}

// The HTTP context the baseline classifiers read: an identifiable and a
// generic User-Agent, creative and non-creative content types, and none.
var (
	mergeUAs    = []string{"Vungle/6.2.0 (Linux; U; Android 7.1.1)", "okhttp/3.12.0", "Dalvik/2.1.0", ""}
	mergeCTypes = []string{"image/webp", "application/json", ""}
)

// randPartial folds a randomized batch of runs starting at the given app
// index and seals it — one synthetic shard partial.
func randPartial(t *testing.T, rng *rand.Rand, baseIndex, runs int) *Partial {
	t.Helper()
	acc, err := NewAccumulator(mergeCats)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < runs; r++ {
		nFlows := rng.Intn(6)
		flows := make([]*attribution.Flow, 0, nFlows)
		for f := 0; f < nFlows; f++ {
			if rng.Intn(8) == 0 {
				// Unattributed flow (no report).
				flows = append(flows, &attribution.Flow{Domain: mergeDomains[rng.Intn(len(mergeDomains))]})
				continue
			}
			origin := mergeOrigins[rng.Intn(len(mergeOrigins))]
			builtin := rng.Intn(5) == 0
			if builtin {
				origin = "*-Advertisement"
			}
			fl := mkFlow(origin, mergeDomains[rng.Intn(len(mergeDomains))],
				rng.Int63n(10_000), rng.Int63n(100_000), builtin)
			fl.UserAgent = mergeUAs[rng.Intn(len(mergeUAs))]
			fl.ContentType = mergeCTypes[rng.Intn(len(mergeCTypes))]
			flows = append(flows, fl)
		}
		run := mkRun(fmt.Sprintf("sha-%03d", baseIndex+r), fmt.Sprintf("com.app.x%d", baseIndex+r),
			mergeAppCats[rng.Intn(len(mergeAppCats))], flows...)
		run.UDPWireBytes = rng.Int63n(5000)
		run.DNSWireBytes = rng.Int63n(5000)
		run.TCPWireBytes = rng.Int63n(50_000)
		if err := acc.Observe(baseIndex+r, run); err != nil {
			t.Fatal(err)
		}
	}
	p, err := acc.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func emptyPartial(t *testing.T) *Partial {
	t.Helper()
	acc, err := NewAccumulator(mergeCats)
	if err != nil {
		t.Fatal(err)
	}
	p, err := acc.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// summaryJSON finishes a partial and renders the full evaluation summary
// and the baseline comparisons — the figure-level equality the campaign
// invariant is stated in.
func summaryJSON(t *testing.T, p *Partial) []byte {
	t.Helper()
	ag, err := p.Finish(testDetector())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ag.Summarize(25).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "%+v\n", ag.e4)
	return buf.Bytes()
}

func TestMergeCommutativeAtFigureLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		a := randPartial(t, rng, 0, 1+rng.Intn(8))
		b := randPartial(t, rng, 100, 1+rng.Intn(8))
		ab, err := Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := Merge(b, a)
		if err != nil {
			t.Fatal(err)
		}
		if j1, j2 := summaryJSON(t, ab), summaryJSON(t, ba); !bytes.Equal(j1, j2) {
			t.Fatalf("trial %d: merge order changed the figures:\n%s\nvs\n%s", trial, j1, j2)
		}
	}
}

func TestMergeAssociativeAtByteLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		a := randPartial(t, rng, 0, 1+rng.Intn(6))
		b := randPartial(t, rng, 50, 1+rng.Intn(6))
		c := randPartial(t, rng, 120, 1+rng.Intn(6))
		abc1, err := MergePartials(a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		abc2, err := Merge(ab, c)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := Merge(b, c)
		if err != nil {
			t.Fatal(err)
		}
		abc3, err := Merge(a, bc)
		if err != nil {
			t.Fatal(err)
		}
		eq12, err := equalEncoded(abc1, abc2)
		if err != nil {
			t.Fatal(err)
		}
		eq13, err := equalEncoded(abc1, abc3)
		if err != nil {
			t.Fatal(err)
		}
		if !eq12 || !eq13 {
			t.Fatalf("trial %d: merge groupings disagree at the byte level (flat=%v left=%v)", trial, eq12, eq13)
		}
	}
}

func TestMergeIdentityPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		a := randPartial(t, rng, 0, 1+rng.Intn(8))
		e := emptyPartial(t)
		refold, err := MergePartials(a)
		if err != nil {
			t.Fatal(err)
		}
		right, err := Merge(a, e)
		if err != nil {
			t.Fatal(err)
		}
		left, err := Merge(e, a)
		if err != nil {
			t.Fatal(err)
		}
		eqR, err := equalEncoded(refold, right)
		if err != nil {
			t.Fatal(err)
		}
		eqL, err := equalEncoded(refold, left)
		if err != nil {
			t.Fatal(err)
		}
		if !eqR || !eqL {
			t.Fatalf("trial %d: empty partial is not a merge identity (right=%v left=%v)", trial, eqR, eqL)
		}
	}
}

func TestMergeMatchesSingleFold(t *testing.T) {
	// Folding runs 0..n in one accumulator must equal splitting them into
	// two shards and merging — the campaign invariant in miniature. The
	// two sides consume the same seeded rng stream in order, so the runs
	// are identical; only the fold topology differs.
	whole := randPartial(t, rand.New(rand.NewSource(41)), 0, 12)
	rng := rand.New(rand.NewSource(41))
	half1 := randPartial(t, rng, 0, 7)
	half2 := randPartial(t, rng, 7, 5)
	merged, err := Merge(half1, half2)
	if err != nil {
		t.Fatal(err)
	}
	if j1, j2 := summaryJSON(t, whole), summaryJSON(t, merged); !bytes.Equal(j1, j2) {
		t.Fatalf("split-and-merge changed the figures:\n%s\nvs\n%s", j1, j2)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		p := randPartial(t, rng, trial*50, 1+rng.Intn(10))
		enc, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodePartial(enc, mergeCats)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		re, err := dec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("trial %d: decode/encode round trip changed bytes (%d vs %d)", trial, len(enc), len(re))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := randPartial(t, rng, 0, 8)
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bit flips", func(t *testing.T) {
		for i := 0; i < len(enc); i += 7 {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 0x40
			if _, err := DecodePartial(mut, mergeCats); err == nil {
				t.Fatalf("flip at %d decoded silently", i)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 4, len(enc) / 2, len(enc) - 1} {
			if _, err := DecodePartial(enc[:n], mergeCats); !errors.Is(err, ErrCorruptPartial) {
				t.Fatalf("truncation to %d bytes: err = %v, want ErrCorruptPartial", n, err)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := DecodePartial(append(append([]byte(nil), enc...), 0xFF), mergeCats); !errors.Is(err, ErrCorruptPartial) {
			t.Fatalf("trailing byte: err = %v, want ErrCorruptPartial", err)
		}
	})
	t.Run("categorizer mismatch", func(t *testing.T) {
		other := staticCategorizer{
			"ads.example.com": corpus.DomCDN, // disagrees with the producer
			"cdn.example.net": corpus.DomCDN,
			"api.example.com": corpus.DomInfoTech,
			"img.example.org": corpus.DomAnalytics,
		}
		if _, err := DecodePartial(enc, other); !errors.Is(err, ErrCategorizerMismatch) {
			t.Fatalf("foreign categorizer: err = %v, want ErrCategorizerMismatch", err)
		}
	})
}

func TestSealFreezesAccumulator(t *testing.T) {
	acc, err := NewAccumulator(mergeCats)
	if err != nil {
		t.Fatal(err)
	}
	run := mkRun("sha-a", "com.app.a", "TOOLS", mkFlow("okhttp3.internal.http", "api.example.com", 10, 20, false))
	if err := acc.Observe(0, run); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := acc.Observe(1, run); err == nil {
		t.Fatal("observe after seal succeeded")
	}
	if _, err := acc.Finish(testDetector()); err == nil {
		t.Fatal("finish after seal succeeded")
	}
	if _, err := acc.Seal(); err == nil {
		t.Fatal("double seal succeeded")
	}
}

func TestSealedPartialMatchesDirectFinish(t *testing.T) {
	// Sealing and finishing the partial must produce the same figures as
	// finishing the accumulator directly.
	build := func() *Accumulator {
		acc, err := NewAccumulator(mergeCats)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(53))
		for r := 0; r < 9; r++ {
			run := mkRun(fmt.Sprintf("sha-%d", r), fmt.Sprintf("com.app.%d", r), mergeAppCats[rng.Intn(3)],
				mkFlow(mergeOrigins[rng.Intn(len(mergeOrigins))], mergeDomains[rng.Intn(len(mergeDomains))],
					rng.Int63n(1000), rng.Int63n(9000), false))
			if err := acc.Observe(r, run); err != nil {
				t.Fatal(err)
			}
		}
		return acc
	}
	direct := build()
	agDirect, err := direct.Finish(testDetector())
	if err != nil {
		t.Fatal(err)
	}
	sealed := build()
	p, err := sealed.Seal()
	if err != nil {
		t.Fatal(err)
	}
	agSealed, err := p.Finish(testDetector())
	if err != nil {
		t.Fatal(err)
	}
	var j1, j2 bytes.Buffer
	if err := agDirect.Summarize(25).WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := agSealed.Summarize(25).WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatalf("sealed finish diverged from direct finish:\n%s\nvs\n%s", j1.Bytes(), j2.Bytes())
	}
}
