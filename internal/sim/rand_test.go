package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(12345), NewRand(12345)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestRandSplitIndependentAndDeterministic(t *testing.T) {
	a := NewRand(1).Split("workers")
	b := NewRand(1).Split("workers")
	if a.Uint64() != b.Uint64() {
		t.Fatal("identical (seed, label) splits must yield identical streams")
	}
	c := NewRand(1).Split("workers")
	d := NewRand(1).Split("other")
	if c.Uint64() == d.Uint64() {
		t.Fatal("different labels should yield different streams")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) over 10k draws hit only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(3)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("Bool(0.3) hit rate %.3f out of tolerance", frac)
	}
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) must be true")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %.4f, want ~1", variance)
	}
}

func TestLogNormalMean(t *testing.T) {
	// E[exp(N(mu, sigma))] = exp(mu + sigma^2/2).
	r := NewRand(11)
	const mu, sigma = 2.0, 0.5
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.LogNormal(mu, sigma)
	}
	got := sum / n
	want := math.Exp(mu + sigma*sigma/2)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("log-normal mean %.3f, want ~%.3f", got, want)
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRand(13)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2, 1.5)
		if v < 2 {
			t.Fatalf("Pareto(2, 1.5) = %v below xm", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NewRand(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// PermPrefix(n, k) must be Perm(n)[:k] and leave the generator where
// Perm(n) does, for every k: it replaces Perm in app generation, whose
// corpus bytes depend on both.
func TestPermPrefixMatchesPerm(t *testing.T) {
	ns := []int{1000, 2048, 4099}
	for n := 0; n <= 200; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		seed := uint64(n)*7919 + 3
		full := NewRand(seed)
		want := full.Perm(n)
		next := full.Uint64()
		ks := []int{0, 1, n / 10, n / 2, n}
		if n <= 200 {
			ks = ks[:0]
			for k := 0; k <= n; k++ {
				ks = append(ks, k)
			}
		}
		for _, k := range ks {
			r := NewRand(seed)
			got := r.PermPrefix(n, k)
			if !slices.Equal(got, want[:k]) {
				t.Fatalf("PermPrefix(%d, %d) = %v, want %v", n, k, got, want[:k])
			}
			if after := r.Uint64(); after != next {
				t.Fatalf("PermPrefix(%d, %d) leaves the generator at %d, Perm at %d", n, k, after, next)
			}
		}
	}
	for _, bad := range [][2]int{{3, 4}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PermPrefix(%d, %d) should panic", bad[0], bad[1])
				}
			}()
			NewRand(1).PermPrefix(bad[0], bad[1])
		}()
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := NewRand(17)
	vals := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Errorf("shuffle changed element sum: %d != %d", got, sum)
	}
}
