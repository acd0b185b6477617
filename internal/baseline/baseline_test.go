// The comparisons are folded by the analysis core, which imports this
// package, so the tests live outside it.
package baseline_test

import (
	"testing"

	"libspector/internal/analysis"
	"libspector/internal/attribution"
	"libspector/internal/baseline"
	"libspector/internal/corpus"
	"libspector/internal/libradar"
	"libspector/internal/nets"
	"libspector/internal/xposed"
)

func TestUAClassifier(t *testing.T) {
	c := baseline.NewUAClassifier()
	ad := []string{
		"Vungle/6.2.0 (Linux; U; Android 7.1.1)",
		"Chartboost-sdk/7.0",
		"MyAnalytics/1.0",
		"AppsFlyer/4.8",
		"Trac\u212Aer/1.0", // the Kelvin sign lower-cases to an ASCII k
	}
	for _, ua := range ad {
		if !c.IsAdTraffic(ua) {
			t.Errorf("IsAdTraffic(%q) = false", ua)
		}
	}
	notAd := []string{
		"",
		nets.DefaultUserAgent, // generic Dalvik UA
		"Mozilla/5.0 (Linux; Android 7.1.1)",
		"Picasso/2.71",
	}
	for _, ua := range notAd {
		if c.IsAdTraffic(ua) {
			t.Errorf("IsAdTraffic(%q) = true", ua)
		}
	}
}

func TestHostnameClassifier(t *testing.T) {
	c := baseline.NewHostnameClassifier()
	ad := []string{
		"ads.example.com",
		"doubleclick.example.net",
		"banner42.example.io",
		"telemetry-ingest.example.com",
		"click7.example.co",
	}
	for _, d := range ad {
		if !c.IsAdTraffic(d) {
			t.Errorf("IsAdTraffic(%q) = false", d)
		}
	}
	notAd := []string{
		"api.example.com",
		"images.example.net",
		"bank.example.com",
	}
	for _, d := range notAd {
		if c.IsAdTraffic(d) {
			t.Errorf("IsAdTraffic(%q) = true", d)
		}
	}
	cdn := []string{"cdn3.example.net", "edge-cache.example.com", "static.example.io"}
	for _, d := range cdn {
		if !c.IsCDN(d) {
			t.Errorf("IsCDN(%q) = false", d)
		}
	}
	if c.IsCDN("ads.example.com") {
		t.Error("IsCDN(ads.example.com) = true")
	}
}

// unknownDomains categorizes every domain as unknown; the baselines
// classify from the raw strings, not from categories.
type unknownDomains struct{}

func (unknownDomains) Categorize(string) corpus.DomainCategory { return corpus.DomUnknown }

// mkFlow builds one attributed flow with the network-only context fields a
// baseline classifier reads.
func mkFlow(origin, domain, userAgent, contentType string, builtin bool, sent, rcvd int64) *attribution.Flow {
	return &attribution.Flow{
		Domain:          domain,
		BytesSent:       sent,
		BytesReceived:   rcvd,
		UserAgent:       userAgent,
		ContentType:     contentType,
		Report:          &xposed.Report{},
		OriginLibrary:   origin,
		TwoLevelLibrary: origin,
		BuiltinOrigin:   builtin,
	}
}

// fold runs the real analysis fold over one synthetic run.
func fold(t *testing.T, flows ...*attribution.Flow) *analysis.Aggregates {
	t.Helper()
	detector := libradar.NewDetector(map[string]corpus.LibraryCategory{
		"com.vungle.publisher": corpus.LibAdvertisement,
	})
	run := &attribution.RunResult{
		AppSHA:      "sha-a",
		AppPackage:  "com.app.a",
		AppCategory: "TOOLS",
		Flows:       flows,
	}
	acc, err := analysis.NewAccumulator(unknownDomains{})
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Observe(0, run); err != nil {
		t.Fatal(err)
	}
	ag, err := acc.Finish(detector)
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

func TestComparisonMetrics(t *testing.T) {
	ua, host, _ := fold(t,
		// Context AnT flow with an identifiable UA on an ad host: both
		// baselines catch it.
		mkFlow("com.vungle.publisher", "ads.example.com", "Vungle/6.2", "", false, 100, 900),
		// Context AnT flow with a generic UA to a CDN host: both miss it,
		// and a DNS-based analysis would file it under "cdn".
		mkFlow("com.vungle.publisher", "cdn.example.net", nets.DefaultUserAgent, "", false, 100, 1900),
		// Non-AnT flow on an ad-looking hostname: hostname baseline is
		// spuriously positive.
		mkFlow("com.app.news", "promo.example.com", nets.DefaultUserAgent, "", false, 50, 450),
		// Builtin flow must be ignored entirely.
		mkFlow("*-Advertisement", "ads.example.com", "", "", true, 10, 90),
	).Baselines()

	if ua.TotalBytes != 1000+2000+500 {
		t.Errorf("total = %d", ua.TotalBytes)
	}
	if ua.ContextAnTBytes != 3000 {
		t.Errorf("context AnT = %d", ua.ContextAnTBytes)
	}
	if ua.AgreedBytes != 1000 {
		t.Errorf("UA agreed = %d", ua.AgreedBytes)
	}
	if ua.MissedBytes != 2000 {
		t.Errorf("UA missed = %d", ua.MissedBytes)
	}
	if got := ua.Recall(); got != 1000.0/3000 {
		t.Errorf("UA recall = %v", got)
	}
	if got := ua.Precision(); got != 1 {
		t.Errorf("UA precision = %v", got)
	}
	// The CDN-bound flow from a categorized library.
	if ua.KnownLibCDNBytes != 2000 {
		t.Errorf("known-lib CDN bytes = %d", ua.KnownLibCDNBytes)
	}
	if got := ua.CDNShare(); got != 2000.0/3500 {
		t.Errorf("CDN share = %v", got)
	}

	if host.AgreedBytes != 1000 {
		t.Errorf("hostname agreed = %d", host.AgreedBytes)
	}
	if host.SpuriousBytes != 500 {
		t.Errorf("hostname spurious = %d", host.SpuriousBytes)
	}
	if host.Precision() >= 1 {
		t.Error("hostname precision should suffer from the spurious match")
	}
}

func TestComparisonZeroSafety(t *testing.T) {
	var c baseline.Comparison
	if c.Recall() != 0 || c.Precision() != 0 || c.CDNShare() != 0 {
		t.Error("zero comparison should not divide by zero")
	}
}

func TestContentTypeClassifier(t *testing.T) {
	c := baseline.NewContentTypeClassifier()
	if !c.IsAdTraffic("image/gif", 50_000) {
		t.Error("small gif should classify as ad creative")
	}
	if c.IsAdTraffic("image/gif", 5_000_000) {
		t.Error("huge gif should not classify as ad creative")
	}
	if c.IsAdTraffic("application/json", 1000) {
		t.Error("json should not classify")
	}
	if c.IsAdTraffic("", 1000) {
		t.Error("unknown content type should not classify")
	}
}

func TestCompareContentType(t *testing.T) {
	_, _, c := fold(t,
		mkFlow("com.vungle.publisher", "cdn.example.net", "", "image/webp", false, 100, 200_000),
		mkFlow("com.app.gallery", "img.example.com", "", "image/jpeg", false, 100, 200_000),
	).Baselines()
	// The creative on the CDN is caught even though UA/hostname would
	// miss it; the first-party jpeg is correctly not flagged.
	if c.AgreedBytes != 200_100 {
		t.Errorf("agreed = %d", c.AgreedBytes)
	}
	if c.SpuriousBytes != 0 {
		t.Errorf("spurious = %d", c.SpuriousBytes)
	}
}
