package analysis

import (
	"libspector/internal/baseline"
	"libspector/internal/corpus"
	"libspector/internal/symtab"
)

// Symbols bundles the intern tables of one analysis pass plus the
// per-symbol facts resolved exactly once at intern time: domain category
// (vtclient is deterministic per domain), the hostname baseline's verdict,
// AnT/common-library prefix membership, and the platform flag of 2-level
// names. The LibRadar origin-library category is resolved once per symbol
// in the core's finish step instead, so a fold need not hold a detector.
//
// Symbol IDs are private coordinates of the aggregation core: they never
// appear in rendered or exported output, which resolves strings back
// through these tables at the edges.
type Symbols struct {
	apps      *symtab.Table // app SHA-256
	appCats   *symtab.Table // Play Store app categories
	origins   *symtab.Table // origin-libraries (incl. builtin pseudo-names)
	twoLevels *symtab.Table // 2-level library names
	domains   *symtab.Table // DNS names
	domCats   *symtab.Table // domain categories

	categorizer DomainCategorizer
	antList     []string
	clList      []string

	// Facts, index-aligned with their tables by the on-intern hooks.
	originAnT   []bool       // origin is in the Li et al. AnT list
	originCL    []bool       // origin is in the common-library list (AnT wins)
	twoPlatform []bool       // 2-level name is com.android / com.google
	domainCats  []symtab.Sym // domain sym → domCats sym ("" → DomUnknown)
	// domainVerdicts holds each domain's HostAd/HostCDN bits ("" → 0).
	domainVerdicts []baseline.Verdict
}

// newSymbols wires the tables with their fact-resolution hooks.
func newSymbols(domains DomainCategorizer) *Symbols {
	s := &Symbols{
		categorizer: domains,
		antList:     corpus.AnTPrefixes(),
		clList:      corpus.CommonLibraryPrefixes(),
	}
	s.apps = symtab.NewTable(nil)
	s.appCats = symtab.NewTable(nil)
	s.domCats = symtab.NewTable(nil)
	host := baseline.NewHostnameClassifier()
	s.origins = symtab.NewTable(func(_ symtab.Sym, name string) {
		// The AnT and common-library sets are contrasted in Figure 6;
		// membership is disjoint, with the AnT list taking precedence
		// (gms.ads is AnT, not plain gms).
		isAnT := corpus.HasPrefixInList(name, s.antList)
		s.originAnT = append(s.originAnT, isAnT)
		s.originCL = append(s.originCL, !isAnT && corpus.HasPrefixInList(name, s.clList))
	})
	s.twoLevels = symtab.NewTable(func(_ symtab.Sym, name string) {
		s.twoPlatform = append(s.twoPlatform, name == "com.android" || name == "com.google")
	})
	s.domains = symtab.NewTable(func(_ symtab.Sym, name string) {
		cat := corpus.DomUnknown
		if name != "" {
			cat = s.categorizer.Categorize(name)
		}
		s.domainCats = append(s.domainCats, s.domCats.Intern(string(cat)))
		s.domainVerdicts = append(s.domainVerdicts, host.Verdict(name))
	})
	return s
}

// appCategory resolves an app-category symbol.
func (s *Symbols) appCategory(sym symtab.Sym) corpus.AppCategory {
	return corpus.AppCategory(s.appCats.String(sym))
}

// domainCategoryAt resolves a domCats-table symbol.
func (s *Symbols) domainCategoryAt(sym symtab.Sym) corpus.DomainCategory {
	return corpus.DomainCategory(s.domCats.String(sym))
}
