package attribution

import (
	"fmt"
	"strings"

	"libspector/internal/corpus"
	"libspector/internal/dex"
	"libspector/internal/libradar"
	"libspector/internal/obs"
	"libspector/internal/xposed"
)

// DomainCategorizer resolves a DNS domain to its generic category (the
// vtclient service implements this); attribution needs it to label
// builtin-origin flows as "*-<category>" (Figure 3).
type DomainCategorizer interface {
	Categorize(domain string) corpus.DomainCategory
}

// Attributor turns matched report/flow pairs into origin-library
// attributions.
type Attributor struct {
	filter     *corpus.BuiltinFilter
	domainCats DomainCategorizer
	// DisableBuiltinFilter supports the filter ablation: when set, the
	// §III-C frame filtering is skipped and the chronologically first
	// frame wins regardless of package.
	DisableBuiltinFilter bool
	// TopOfStack supports the second ablation: attribute to the
	// chronologically *last* (top-most non-transport) frame instead of
	// the first, the naive alternative the paper's design implicitly
	// rejects.
	TopOfStack bool
	// tel receives join/attribution counters; workers share one attributor,
	// so it must be set before any run starts. nil disables the mirror.
	tel *obs.Telemetry
}

// SetTelemetry routes attribution counters into a metrics registry. Call
// before the fleet starts; nil disables the mirror.
func (a *Attributor) SetTelemetry(tel *obs.Telemetry) { a.tel = tel }

// NewAttributor creates an attributor.
func NewAttributor(domainCats DomainCategorizer) *Attributor {
	return &Attributor{
		filter:     corpus.NewBuiltinFilter(),
		domainCats: domainCats,
	}
}

// FrameClass extracts the fully qualified class name from a reported stack
// frame, which is either a smali type signature (translated frames) or a
// dotted qualified method name (framework frames).
func FrameClass(frame string) (string, error) {
	if strings.Contains(frame, "->") {
		m, err := dex.ParseTypeSignature(frame)
		if err != nil {
			return "", fmt.Errorf("attribution: bad signature frame: %w", err)
		}
		return m.Class, nil
	}
	// Dotted qualified name: strip the trailing method label.
	i := strings.LastIndex(frame, ".")
	if i <= 0 || i == len(frame)-1 {
		return "", fmt.Errorf("attribution: malformed frame %q", frame)
	}
	return frame[:i], nil
}

// packageOf drops the class label from a fully qualified class name.
func packageOf(class string) string {
	i := strings.LastIndex(class, ".")
	if i < 0 {
		return ""
	}
	return class[:i]
}

// OriginOf determines the origin-library package for one report: the
// package of the chronologically first method call from a non-built-in
// library in the stack trace (§III-C). builtin is true when every frame is
// framework code, in which case the caller labels the flow with the
// "*-<domain category>" pseudo-library.
func (a *Attributor) OriginOf(report *xposed.Report) (pkg string, builtin bool, err error) {
	if len(report.StackTrace) == 0 {
		return "", false, fmt.Errorf("attribution: report %s has no stack trace", report.Tuple)
	}
	// StackTrace is top-first; the chronologically first invocation is the
	// last element. Walk bottom-up.
	if a.TopOfStack {
		for i := 0; i < len(report.StackTrace); i++ {
			class, err := FrameClass(report.StackTrace[i])
			if err != nil {
				return "", false, err
			}
			if a.DisableBuiltinFilter || !a.filter.IsBuiltin(class) {
				return packageOf(class), false, nil
			}
		}
		return "", true, nil
	}
	for i := len(report.StackTrace) - 1; i >= 0; i-- {
		class, err := FrameClass(report.StackTrace[i])
		if err != nil {
			return "", false, err
		}
		if a.DisableBuiltinFilter || !a.filter.IsBuiltin(class) {
			return packageOf(class), false, nil
		}
	}
	return "", true, nil
}

// JoinStats summarizes the report↔flow join of one run.
type JoinStats struct {
	MatchedFlows     int
	UnmatchedFlows   int
	UnmatchedReports int
	ChecksumMismatch int
}

// Attribute joins the supervisor reports of a run against the parsed
// capture and fills each matched flow's origin fields. apkSHA is the
// expected checksum; reports carrying a different checksum are rejected
// (app-integrity verification).
func (a *Attributor) Attribute(capture *CaptureSummary, reports []*xposed.Report, apkSHA string) (JoinStats, error) {
	var stats JoinStats
	for _, rep := range reports {
		if apkSHA != "" && rep.APKSHA256 != apkSHA {
			stats.ChecksumMismatch++
			continue
		}
		flow, ok := capture.FlowByTuple(rep.Tuple)
		if !ok {
			stats.UnmatchedReports++
			continue
		}
		flow.Report = rep
		origin, builtin, err := a.OriginOf(rep)
		if err != nil {
			return stats, err
		}
		flow.BuiltinOrigin = builtin
		if builtin {
			cat := corpus.DomUnknown
			if a.domainCats != nil && flow.Domain != "" {
				cat = a.domainCats.Categorize(flow.Domain)
			}
			flow.OriginLibrary = corpus.BuiltinOriginPrefix + titleDomainCategory(cat)
			flow.TwoLevelLibrary = flow.OriginLibrary
		} else {
			flow.OriginLibrary = origin
			flow.TwoLevelLibrary = libradar.TwoLevel(origin)
		}
	}
	// The per-origin telemetry batches over the whole run: one registry
	// touch per distinct series instead of one per flow (the per-class
	// series name alone used to cost a string concat per builtin flow).
	// Series stay lazily registered — a counter is only looked up when
	// this run actually has something to add to it.
	var builtin, library int64
	var builtinClasses map[string]int64
	for _, f := range capture.Flows {
		if f.Report == nil {
			stats.UnmatchedFlows++
		} else {
			stats.MatchedFlows++
			if f.BuiltinOrigin {
				builtin++
				if builtinClasses == nil {
					builtinClasses = make(map[string]int64, 4)
				}
				builtinClasses[f.OriginLibrary]++
			} else {
				library++
			}
		}
	}
	if tel := a.tel; tel != nil {
		if builtin > 0 {
			tel.Counter(obs.MAttribBuiltin).Add(builtin)
			for class, n := range builtinClasses {
				tel.Counter(obs.MAttribBuiltinClass(class)).Add(n)
			}
		}
		if library > 0 {
			tel.Counter(obs.MAttribLibrary).Add(library)
		}
		tel.Counter(obs.MAttribFlows).Add(int64(len(capture.Flows)))
		tel.Counter(obs.MAttribAttributed).Add(int64(stats.MatchedFlows))
		tel.Counter(obs.MAttribUnmatchedFlows).Add(int64(stats.UnmatchedFlows))
		tel.Counter(obs.MAttribUnmatchedReports).Add(int64(stats.UnmatchedReports))
		tel.Counter(obs.MAttribChecksumMismatch).Add(int64(stats.ChecksumMismatch))
	}
	return stats, nil
}

// titleDomainCategory renders a domain category in the Figure 3 pseudo-
// library style ("advertisements" → "Advertisement").
func titleDomainCategory(c corpus.DomainCategory) string {
	switch c {
	case corpus.DomAdvertisements:
		return "Advertisement"
	case corpus.DomCDN:
		return "CDN"
	case corpus.DomInfoTech:
		return "InfoTech"
	case corpus.DomInternetServices:
		return "InternetServices"
	case corpus.DomBusinessFinance:
		return "BusinessFinance"
	case corpus.DomSocialNetworks:
		return "SocialNetwork"
	default:
		s := string(c)
		if s == "" {
			return "Unknown"
		}
		return strings.ToUpper(s[:1]) + s[1:]
	}
}
