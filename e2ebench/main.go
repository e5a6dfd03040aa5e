// Command e2ebench is the repository's end-to-end benchmark: the paper's
// Architecture 4 hierarchy serving the PaperSmall parking database on nine
// sites that talk over one loopback TCP transport, driven by closed-loop
// query clients and an open-loop sensor stream from this one process.
//
//	e2ebench --workload owned-point|cache-churn|fresh-rw --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of one measured window;
// with --trace 1 it runs the same window untraced and then traced, and
// reports the per-layer metrics of the traced run. Every answer is checked
// against a central evaluation of the same query, and every acknowledged
// sensor update must be visible afterwards; the last line of output is one
// JSON object, and a wrong answer or a lost update makes the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// roundSeconds is the length each round of a run aims at: --seconds is
// split into that many rounds, each on a freshly built and warmed cluster,
// and setup_s is the median of their set-ups.
const roundSeconds = 10

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "owned-point, cache-churn or fresh-rw")
	seed := flag.Int64("seed", 1, "seed of the query and sensor streams")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	spec, ok := specs[*workloadName]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload owned-point|cache-churn|fresh-rw --seed N --seconds S --trace 0|1\n")
		return 2
	}
	dataRoot := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rounds := int(math.Round(*seconds / roundSeconds))
	if rounds < 1 {
		rounds = 1
	}
	opts := runOpts{spec: spec, seed: *seed, seconds: *seconds, rounds: rounds, dataRoot: dataRoot, clients: runtime.NumCPU()}
	fmt.Printf("workload %s seed %d: %d closed-loop clients, %gs window\n", spec, *seed, opts.clients, *seconds)

	// The untraced run gives the end-to-end metrics; a traced round on a
	// fresh cluster, as long as one untraced round, follows it when
	// per-layer metrics are asked for.
	base, err := runOnce(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	base.print("untraced")
	runs := []*runResult{base}
	res := result{Correct: true, Metrics: base.endToEnd()}
	if *traceFlag == 1 {
		opts.seconds, opts.rounds, opts.traced = opts.seconds/float64(opts.rounds), 1, true
		tr, err := runOnce(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		tr.layers["loadgen.trace_overhead_frac"] = Metric{1 - ratio(tr.qps(), base.qps()), "frac"}
		tr.print("traced")
		printMetrics(tr.layers)
		res.Metrics = pick(tr.layers, recordedLayers)
		runs = append(runs, tr)
		spanDir := filepath.Join(".bench_build", "spans")
		path := filepath.Join(spanDir, spec.Name+".jsonl")
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", err)
		} else if err := tr.rec.WriteJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", err)
		} else {
			fmt.Printf("spans written to %s\n", path)
		}
	}
	for _, r := range runs {
		res.Attempted += r.queryAttempts + r.replayed + r.updateAttempts
		res.Failed += r.queryFailed + r.wrong + r.updateFailed + r.lost
		if r.wrong > 0 || r.lost > 0 {
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		// A metric with no samples (NaN) cannot be reported.
		fmt.Fprintln(os.Stderr, "e2ebench: result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(m map[string]Metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// recordedLayers are the per-layer metrics the result line carries, the
// ones BENCHMARK.json declares. The rest are printed above it: they are
// times that are zero by construction on a declared workload (batch and
// aggregate handlers and blocked time on owned-point, the WAL on both).
var recordedLayers = []string{
	"service.route_us", "service.encode_us", "service.decode_us", "service.parse_us",
	"service.extract_us", "service.answer_kb",
	"transport.wire_us", "transport.calls_per_query", "transport.kb_per_query",
	"site.query_self_us", "site.update_us", "site.wait_frac",
	"site.create_plan_us", "site.execute_qeg_us", "site.rest_us",
	"site.hit_ratio", "site.subqueries_per_query", "site.rpcs_per_query",
	"site.coalesced_frac", "site.evictions_per_query", "site.cache_mb",
	"naming.lookups_per_query", "naming.client_hit_ratio",
	"runtime.cpu_ms_per_query", "runtime.cpu_util", "runtime.alloc_kb_per_query",
	"runtime.allocs_per_query", "runtime.gc_cpu_frac",
	"loadgen.update_late_p99_ms", "loadgen.trace_overhead_frac",
}

func pick(all map[string]Metric, names []string) map[string]Metric {
	out := make(map[string]Metric, len(names))
	for _, n := range names {
		out[n] = all[n]
	}
	return out
}
