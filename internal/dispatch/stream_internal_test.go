package dispatch

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"

	"libspector/internal/attribution"
	"libspector/internal/emulator"
	"libspector/internal/synth"
	"libspector/internal/vtclient"
)

// TestWorkerDialFailureAbortsStream injects a collector-dial failure and
// checks it surfaces as one structured stream error instead of silently
// consuming the job queue and marking every remaining app failed.
func TestWorkerDialFailureAbortsStream(t *testing.T) {
	orig := dialCollector
	dialCollector = func(*net.UDPAddr) (*Client, error) {
		return nil, fmt.Errorf("injected dial failure")
	}
	defer func() { dialCollector = orig }()

	cfg := synth.DefaultConfig()
	cfg.Seed = 71
	cfg.NumApps = 8
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := vtclient.NewService(vtclient.NewOracle(71, world.DomainTruth()))
	if err != nil {
		t.Fatal(err)
	}
	opts := emulator.DefaultOptions(71)
	opts.Monkey.Events = 120

	events, err := Stream(context.Background(), world, world.Resolver, Config{
		Workers:    2,
		Emulator:   opts,
		BaseSeed:   71,
		Attributor: attribution.NewAttributor(svc),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drain(events)
	if err == nil {
		t.Fatal("dial failure did not surface")
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Errorf("error = %v, want a dial failure", err)
	}
	// The infrastructure fault must not be misattributed to apps.
	if len(res.Failures) != 0 {
		t.Errorf("dial failure poisoned %d apps: %+v", len(res.Failures), res.Failures)
	}
	if res.Accounting.Completed != 0 {
		t.Errorf("%d runs completed without a collector connection", res.Accounting.Completed)
	}
}
