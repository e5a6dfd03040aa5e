package main

import (
	"encoding/json"
	"fmt"
	"os"

	"irisnet/internal/cluster"
	"irisnet/internal/workload"
)

// runReadWriteMix measures how much a concurrent sensor-update stream costs
// the query path. It runs the raw engine (no simulated latency or synthetic
// service times) with several CPU slots per site, so the only thing that
// can slow queries down is synchronization against writers. Queries read an
// immutable copy-on-write snapshot acquired with one atomic load, so the
// update stream should cost them almost nothing.
//
// Results are printed and also written to BENCH_PR3.json for machines.
func runReadWriteMix() {
	header("Read/write mix — snapshot queries under a concurrent update stream (raw engine)")

	type modeResult struct {
		Mode              string  `json:"mode"`
		ReadOnlyQPS       float64 `json:"read_only_qps"`
		MixedQPS          float64 `json:"mixed_qps"`
		MixedOverReadOnly float64 `json:"mixed_over_read_only"`
		UpdatesPerSec     float64 `json:"updates_per_sec"`
	}
	type report struct {
		Experiment   string       `json:"experiment"`
		DurationSecs float64      `json:"duration_secs"`
		Clients      int          `json:"clients"`
		CPUSlots     int          `json:"cpu_slots"`
		UpdateRate   float64      `json:"offered_update_rate"`
		Modes        []modeResult `json:"modes"`
		// Pass is the PR acceptance condition: with snapshots, mixed
		// query throughput stays within 20% of read-only throughput.
		Pass bool `json:"pass"`
	}

	const cpuSlots = 8
	const updateRate = 2000.0

	mkCluster := func() *cluster.Cluster {
		c, err := cluster.New(cluster.Hierarchical, cluster.Config{
			DB:       workload.PaperSmall(),
			CPUSlots: cpuSlots,
		})
		fatal(err)
		return c
	}
	sumUpdates := func(c *cluster.Cluster) int64 {
		var t int64
		for _, s := range c.Sites {
			t += s.Metrics.Updates.Value()
		}
		return t
	}
	runMode := func(name string) modeResult {
		// Read-only arm.
		c := mkCluster()
		ro := c.RunLoad(cluster.LoadOpts{
			Clients: *clients, Duration: *durFlag, Mix: workload.QW1, HitRatio: -1,
		})
		c.Close()
		// Mixed arm: same query load with a background update stream.
		c = mkCluster()
		before := sumUpdates(c)
		mixed := c.RunLoad(cluster.LoadOpts{
			Clients: *clients, Duration: *durFlag, Mix: workload.QW1, HitRatio: -1,
			UpdateRate: updateRate,
		})
		applied := sumUpdates(c) - before
		c.Close()
		r := modeResult{
			Mode:          name,
			ReadOnlyQPS:   ro.Throughput(),
			MixedQPS:      mixed.Throughput(),
			UpdatesPerSec: float64(applied) / mixed.Elapsed.Seconds(),
		}
		if r.ReadOnlyQPS > 0 {
			r.MixedOverReadOnly = r.MixedQPS / r.ReadOnlyQPS
		}
		return r
	}

	rep := report{
		Experiment:   "read-write-mix",
		DurationSecs: durFlag.Seconds(),
		Clients:      *clients,
		CPUSlots:     cpuSlots,
		UpdateRate:   updateRate,
	}
	fmt.Printf("%-10s %14s %12s %14s %12s\n",
		"mode", "read-only q/s", "mixed q/s", "mixed/ro", "updates/s")
	r := runMode("snapshot")
	rep.Modes = append(rep.Modes, r)
	fmt.Printf("%-10s %14.1f %12.1f %13.2f%% %12.1f\n",
		r.Mode, r.ReadOnlyQPS, r.MixedQPS, 100*r.MixedOverReadOnly, r.UpdatesPerSec)
	rep.Pass = r.MixedOverReadOnly >= 0.8
	fmt.Printf("acceptance (snapshot mixed >= 80%% of read-only): pass=%v\n", rep.Pass)

	buf, err := json.MarshalIndent(rep, "", "  ")
	fatal(err)
	buf = append(buf, '\n')
	fatal(os.WriteFile("BENCH_PR3.json", buf, 0o644))
	fmt.Println("wrote BENCH_PR3.json")
}
