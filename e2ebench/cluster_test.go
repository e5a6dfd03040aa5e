package main

import (
	"testing"
	"time"

	"irisnet/internal/site"
	"irisnet/internal/transport"
)

// TestSyntheticCostGuard checks the guard refuses every way a site could
// time sleeps instead of the engine.
func TestSyntheticCostGuard(t *testing.T) {
	clean := site.Config{Name: "s", Net: transport.NewTCPNet(nil), CPUSlots: cpuSlots}
	if err := checkNoSyntheticCosts(clean); err != nil {
		t.Fatalf("clean config refused: %v", err)
	}
	bad := map[string]func(*site.Config){
		"QueryWork":   func(c *site.Config) { c.QueryWork = time.Millisecond },
		"PerNodeWork": func(c *site.Config) { c.PerNodeWork = time.Microsecond },
		"UpdateWork":  func(c *site.Config) { c.UpdateWork = time.Millisecond },
		"SimNet":      func(c *site.Config) { c.Net = transport.NewSimNet(transport.SimConfig{}) },
		"CPUSlots":    func(c *site.Config) { c.CPUSlots = 1 },
	}
	for name, mutate := range bad {
		cfg := clean
		mutate(&cfg)
		if checkNoSyntheticCosts(cfg) == nil {
			t.Errorf("%s: guard accepted the config", name)
		}
	}
}
