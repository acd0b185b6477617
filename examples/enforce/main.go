// enforce demonstrates live BorderPatrol-style policy enforcement (§IV-E):
// the same app is run twice — once unrestricted, once under the AnT
// blacklist generated from Libspector's attribution intelligence — and the
// traffic difference is reported per origin-library.
//
//	go run ./examples/enforce [-app 0] [-seed 42]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"

	"libspector/internal/attribution"
	"libspector/internal/borderpatrol"
	"libspector/internal/emulator"
	"libspector/internal/nets"
	"libspector/internal/synth"
	"libspector/internal/xposed"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "enforce:", err)
		os.Exit(1)
	}
}

func run() error {
	appIdx := flag.Int("app", -1, "corpus index of the app to run (-1: first app with AnT traffic)")
	seed := flag.Uint64("seed", 42, "world seed")
	flag.Parse()

	cfg := synth.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumApps = 16
	if *appIdx >= cfg.NumApps {
		cfg.NumApps = *appIdx + 1
	}
	cfg.ARMOnlyRate = 0
	world, err := synth.NewWorld(cfg)
	if err != nil {
		return err
	}
	if *appIdx < 0 {
		// Pick the first app whose generated traffic includes AnT-listed
		// libraries, so the enforcement demo has something to block.
		for i := 0; i < cfg.NumApps; i++ {
			app, err := world.GenerateApp(i)
			if err != nil {
				return err
			}
			if !app.AnTFree() {
				*appIdx = i
				break
			}
		}
		if *appIdx < 0 {
			*appIdx = 0
		}
	}

	runOnce := func(policy *borderpatrol.Policy) (*emulator.Artifacts, map[string]int64, error) {
		app, err := world.GenerateApp(*appIdx)
		if err != nil {
			return nil, nil, err
		}
		opts := emulator.DefaultOptions(*seed)
		opts.Policy = policy
		arts, err := emulator.Run(emulator.Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, opts)
		if err != nil {
			return nil, nil, err
		}
		sum, err := attribution.ParseCapture(bytes.NewReader(arts.CaptureBytes),
			nets.DefaultLocalAddr, nets.DefaultCollectorAddr, nets.DefaultCollectorPort)
		if err != nil {
			return nil, nil, err
		}
		reports, err := xposed.DecodeReports(arts.RawReports)
		if err != nil {
			return nil, nil, err
		}
		attr := attribution.NewAttributor(nil)
		if _, err := attr.Attribute(sum, reports, app.SHA256); err != nil {
			return nil, nil, err
		}
		byOrigin := make(map[string]int64)
		for _, f := range sum.Flows {
			if f.Report != nil {
				byOrigin[f.OriginLibrary] += f.TotalBytes()
			}
		}
		return arts, byOrigin, nil
	}

	_, unrestricted, err := runOnce(nil)
	if err != nil {
		return err
	}
	policy := borderpatrol.PolicyFromAnTList()
	enforcedArts, enforced, err := runOnce(&policy)
	if err != nil {
		return err
	}

	fmt.Printf("Per-library traffic, unrestricted vs. AnT blacklist enforced:\n\n")
	fmt.Printf("%-48s %12s %12s\n", "ORIGIN LIBRARY", "UNRESTRICTED", "ENFORCED")
	origins := make([]string, 0, len(unrestricted))
	for origin := range unrestricted {
		origins = append(origins, origin)
	}
	sort.Slice(origins, func(i, j int) bool { return unrestricted[origins[i]] > unrestricted[origins[j]] })
	for _, origin := range origins {
		fmt.Printf("%-48s %10d B %10d B\n", origin, unrestricted[origin], enforced[origin])
	}
	fmt.Printf("\nPolicy denied %d connection(s):\n", enforcedArts.BlockedConnections)
	for _, v := range enforcedArts.Violations {
		fmt.Printf("  blocked %s -> %s:%d (%s)\n", v.Origin, v.Domain, v.Port, v.Rule)
	}
	return nil
}
