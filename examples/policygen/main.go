// policygen demonstrates the §IV-E "Security" application of Libspector:
// feeding attribution results into a BorderPatrol-style policy-enforcement
// system. It ranks origin-libraries by how much traffic they push to
// undesirable destination categories (advertisements, trackers, malicious
// hosts) and emits a JSON blacklist policy at library granularity.
//
//	go run ./examples/policygen [-apps 40] [-threshold 0.5]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"libspector"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
)

// policy is the BorderPatrol-style output document.
type policy struct {
	Comment   string         `json:"comment"`
	Threshold float64        `json:"undesirable_share_threshold"`
	Blacklist []policyEntry  `json:"blacklist"`
	Stats     map[string]int `json:"stats"`
}

type policyEntry struct {
	Library          string  `json:"library"`
	Category         string  `json:"category"`
	TotalBytes       int64   `json:"total_bytes"`
	UndesirableBytes int64   `json:"undesirable_bytes"`
	UndesirableShare float64 `json:"undesirable_share"`
	Apps             int     `json:"apps_affected"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "policygen:", err)
		os.Exit(1)
	}
}

func run() error {
	apps := flag.Int("apps", 40, "corpus size")
	seed := flag.Uint64("seed", 42, "experiment seed")
	threshold := flag.Float64("threshold", 0.5, "undesirable-traffic share above which a library is blacklisted")
	minBytes := flag.Int64("min-bytes", 50_000, "ignore libraries below this traffic volume")
	flag.Parse()

	cfg := libspector.DefaultConfig()
	cfg.Apps = *apps
	cfg.Seed = *seed
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return err
	}

	undesirable := map[corpus.DomainCategory]bool{
		corpus.DomAdvertisements: true,
		corpus.DomAnalytics:      true,
		corpus.DomMalicious:      true,
		corpus.DomAdult:          true,
	}
	type acc struct {
		total, bad int64
		apps       map[string]struct{}
	}
	antList := corpus.AnTPrefixes()
	byLib := make(map[string]*acc)
	// The per-library tally reads the attributed flows as the runs stream
	// past; domain categories come from the experiment's domain service.
	tally := dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind != dispatch.EventRun || ev.Run == nil {
			return nil
		}
		for _, f := range ev.Run.Flows {
			if !f.Attributed() || f.BuiltinOrigin {
				continue
			}
			a := byLib[f.OriginLibrary]
			if a == nil {
				a = &acc{apps: make(map[string]struct{})}
				byLib[f.OriginLibrary] = a
			}
			vol := f.TotalBytes()
			a.total += vol
			a.apps[ev.Run.AppSHA] = struct{}{}
			// A library is "undesirable" both when its destination category
			// is flagged and when context identifies it as an AnT SDK
			// regardless of endpoint — the CDN-evasion case a DNS-only
			// policy misses.
			if f.Domain != "" && undesirable[exp.Domains().Categorize(f.Domain)] || corpus.HasPrefixInList(f.OriginLibrary, antList) {
				a.bad += vol
			}
		}
		return nil
	})
	if err := exp.RunContext(context.Background(), tally); err != nil {
		return err
	}

	doc := policy{
		Comment:   "Generated by Libspector attribution; enforceable at library granularity by BorderPatrol-style systems (§IV-E).",
		Threshold: *threshold,
		Stats:     map[string]int{"libraries_observed": len(byLib)},
	}
	for name, a := range byLib {
		if a.total < *minBytes {
			continue
		}
		share := float64(a.bad) / float64(a.total)
		if share < *threshold {
			continue
		}
		doc.Blacklist = append(doc.Blacklist, policyEntry{
			Library:          name,
			Category:         string(exp.Detector().Categorize(name)),
			TotalBytes:       a.total,
			UndesirableBytes: a.bad,
			UndesirableShare: share,
			Apps:             len(a.apps),
		})
	}
	sort.Slice(doc.Blacklist, func(i, j int) bool {
		return doc.Blacklist[i].UndesirableBytes > doc.Blacklist[j].UndesirableBytes
	})
	doc.Stats["libraries_blacklisted"] = len(doc.Blacklist)

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling policy: %w", err)
	}
	fmt.Println(string(out))
	return nil
}
