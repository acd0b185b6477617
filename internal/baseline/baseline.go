// Package baseline implements the purely network-focused traffic
// classifiers of prior work that Libspector is compared against (§I, §IV-B,
// §V): the User-Agent approach of Xue et al. and Maier et al., and the
// hostname approach of Tongaonkar et al. Both operate on what the packet
// capture alone exposes — HTTP headers and DNS names — without any app
// context. The analysis fold asks them once per flow (or once per domain)
// and keeps only their verdict bits, so the comparison is an aggregate like
// every other figure.
package baseline

import (
	"bytes"
	"strings"
	"unicode/utf8"
)

// Verdict packs the network-only classifiers' calls on one flow.
type Verdict uint8

const (
	// UAAd: the User-Agent classifier calls the flow AnT.
	UAAd Verdict = 1 << iota
	// HostAd: the hostname classifier calls the flow's DNS name AnT.
	HostAd
	// ContentAd: the content-type classifier calls the response an ad
	// creative.
	ContentAd
	// HostCDN: the flow's DNS name looks like CDN infrastructure.
	HostCDN
	// AllVerdicts is every defined bit.
	AllVerdicts = UAAd | HostAd | ContentAd | HostCDN
)

// uaAdPatterns are product substrings a curated User-Agent list can match
// for advertisement/tracker SDKs. Generic Dalvik User-Agents match nothing.
var uaAdPatterns = []string{
	"ads", "adsdk", "banner", "promo", "mediation",
	"vungle", "chartboost", "applovin", "ironsource", "adcolony", "mopub",
	"inmobi", "tapjoy", "millennialmedia",
	"analytics", "tracker", "metrics", "telemetry", "flurry", "mixpanel",
	"appsflyer", "adjust", "amplitude",
}

// hostAdKeywords classify a DNS name as advertisement/tracker.
var hostAdKeywords = []string{
	"ad", "ads", "advert", "banner", "click", "promo", "impression", "bid",
	"doubleclick", "googlesyndication", "adservice",
	"track", "metric", "stat", "telemetry", "analytics", "insight",
}

// hostCDNKeywords classify a DNS name as CDN infrastructure.
var hostCDNKeywords = []string{
	"cdn", "cache", "edge", "static", "origin", "cloudfront", "akamai", "fastly",
}

// UAClassifier is the Xue/Maier-style header classifier.
type UAClassifier struct {
	patterns [][]byte
}

// NewUAClassifier builds the classifier with the curated pattern list.
func NewUAClassifier() *UAClassifier {
	c := &UAClassifier{patterns: make([][]byte, len(uaAdPatterns))}
	for i, p := range uaAdPatterns {
		c.patterns[i] = []byte(p)
	}
	return c
}

// IsAdTraffic reports whether the User-Agent identifies an AnT SDK. The
// generic Dalvik User-Agent — and any unparseable (e.g. TLS) payload,
// which yields an empty string — never matches. An ASCII User-Agent is
// lower-cased into a stack buffer, so the per-flow call allocates
// nothing; only a non-ASCII one goes through strings.ToLower.
func (c *UAClassifier) IsAdTraffic(userAgent string) bool {
	if userAgent == "" || strings.HasPrefix(userAgent, "Dalvik/") {
		return false
	}
	var buf [128]byte
	lowered := buf[:0]
	for i := 0; i < len(userAgent); i++ {
		b := userAgent[i]
		if b >= utf8.RuneSelf {
			lowered = []byte(strings.ToLower(userAgent))
			break
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		lowered = append(lowered, b)
	}
	for _, p := range c.patterns {
		if bytes.Contains(lowered, p) {
			return true
		}
	}
	return false
}

// HostnameClassifier is the Tongaonkar-style DNS-name classifier.
type HostnameClassifier struct{}

// NewHostnameClassifier builds the classifier.
func NewHostnameClassifier() *HostnameClassifier {
	return &HostnameClassifier{}
}

// IsAdTraffic reports whether the domain name looks like an AnT endpoint.
func (c *HostnameClassifier) IsAdTraffic(domain string) bool {
	return matchKeywords(domainLabels(domain), hostAdKeywords)
}

// IsCDN reports whether the domain name looks like CDN infrastructure.
func (c *HostnameClassifier) IsCDN(domain string) bool {
	return matchKeywords(domainLabels(domain), hostCDNKeywords)
}

// Verdict returns the domain's HostAd and HostCDN bits, splitting it into
// labels once for both.
func (c *HostnameClassifier) Verdict(domain string) Verdict {
	labels := domainLabels(domain)
	var v Verdict
	if matchKeywords(labels, hostAdKeywords) {
		v |= HostAd
	}
	if matchKeywords(labels, hostCDNKeywords) {
		v |= HostCDN
	}
	return v
}

// domainLabels lower-cases a domain and splits it at dots, hyphens and
// digits.
func domainLabels(domain string) []string {
	return strings.FieldsFunc(strings.ToLower(domain), func(r rune) bool {
		return r == '.' || r == '-' || r >= '0' && r <= '9'
	})
}

// matchKeywords checks hyphen/dot-separated and embedded keywords.
func matchKeywords(labels, keywords []string) bool {
	for _, kw := range keywords {
		for _, label := range labels {
			if label == kw || len(kw) >= 4 && strings.Contains(label, kw) {
				return true
			}
		}
	}
	return false
}

// Comparison quantifies how a network-only classifier diverges from
// Libspector's context-aware attribution, in bytes. Context attribution
// (origin-library membership in the Li et al. AnT list) is the reference,
// as in §IV-E.
type Comparison struct {
	// ContextAnTBytes is the AnT volume per context-aware attribution.
	ContextAnTBytes int64
	// BaselineAnTBytes is the AnT volume the baseline identifies.
	BaselineAnTBytes int64
	// AgreedBytes is the overlap (both call it AnT).
	AgreedBytes int64
	// MissedBytes is context-AnT traffic the baseline misses (e.g. ad
	// flows with generic User-Agents, ad traffic to CDN hosts).
	MissedBytes int64
	// SpuriousBytes is non-AnT traffic the baseline labels AnT.
	SpuriousBytes int64
	// KnownLibCDNBytes is traffic from LibRadar-categorized libraries
	// bound for CDN domains — the volume a purely DNS-based analysis
	// would misattribute to "cdn" (the paper: 19.3% of total traffic).
	KnownLibCDNBytes int64
	// TotalBytes is the full attributed volume.
	TotalBytes int64
}

// Recall is the byte fraction of context-AnT traffic the baseline found.
func (c Comparison) Recall() float64 {
	if c.ContextAnTBytes == 0 {
		return 0
	}
	return float64(c.AgreedBytes) / float64(c.ContextAnTBytes)
}

// Precision is the byte fraction of baseline-AnT traffic that context
// attribution confirms.
func (c Comparison) Precision() float64 {
	if c.BaselineAnTBytes == 0 {
		return 0
	}
	return float64(c.AgreedBytes) / float64(c.BaselineAnTBytes)
}

// Add counts vol bytes of non-builtin traffic: contextAd is context-aware
// attribution's call (an AnT origin), baselineAd the baseline's, and
// knownLibCDN whether the bytes come from a LibRadar-categorized library
// and go to a CDN-looking host — what a pure DNS categorization would
// file under "cdn".
func (c *Comparison) Add(vol int64, contextAd, baselineAd, knownLibCDN bool) {
	c.TotalBytes += vol
	if contextAd {
		c.ContextAnTBytes += vol
	}
	if baselineAd {
		c.BaselineAnTBytes += vol
	}
	switch {
	case contextAd && baselineAd:
		c.AgreedBytes += vol
	case contextAd:
		c.MissedBytes += vol
	case baselineAd:
		c.SpuriousBytes += vol
	}
	if knownLibCDN {
		c.KnownLibCDNBytes += vol
	}
}

// CDNShare is KnownLibCDNBytes over total.
func (c Comparison) CDNShare() float64 {
	if c.TotalBytes == 0 {
		return 0
	}
	return float64(c.KnownLibCDNBytes) / float64(c.TotalBytes)
}

// contentAdTypes are the MIME types content-based classification (in the
// spirit of Vallina et al.'s ad characterization) treats as ad creative
// delivery when the response is modest in size.
var contentAdTypes = map[string]bool{
	"image/gif":  true,
	"image/webp": true,
	"video/mp4":  true,
}

// ContentTypeClassifier flags flows whose response looks like ad-creative
// delivery: a creative MIME type with a sub-megabyte body.
type ContentTypeClassifier struct{}

// NewContentTypeClassifier builds the classifier.
func NewContentTypeClassifier() *ContentTypeClassifier {
	return &ContentTypeClassifier{}
}

// IsAdTraffic reports whether the response Content-Type and volume look
// like an ad creative.
func (c *ContentTypeClassifier) IsAdTraffic(contentType string, responseBytes int64) bool {
	if contentType == "" {
		return false
	}
	return contentAdTypes[contentType] && responseBytes < 1_000_000
}
