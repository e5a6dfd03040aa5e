package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/qeg"
	"irisnet/internal/workload"
)

// runLocalEval measures the cache-conscious fragment index (BENCH_PR6,
// DESIGN.md §12): the same plans evaluated on one sealed snapshot through
// the indexed fast path and through the tree walker (the qeg.Options
// NoIndex baseline). Three arms cover the shapes the index targets: a
// fully specified child path, a deep descendant scan, and a
// predicate-heavy descendant scan.
//
// Acceptance (machine-checked, used as a CI gate):
//   - speedup: indexed evaluation is >=5x the walker on the two
//     descendant arms (the child-path arm is reported but ungated — its
//     answers are small, so constant costs dominate);
//   - allocation-free: the indexed selection core allocates nothing per
//     query once the index and scratch pool are warm;
//   - identical: both paths produce byte-identical answer fragments.
//
// Results are printed and written to BENCH_PR6.json for machines.
func runLocalEval() {
	reps, iters := 5, 9
	if *shortFlag {
		reps, iters = 3, 3
	}
	header(fmt.Sprintf("Local evaluation: indexed vs tree walk (reps=%d)", reps))

	db := workload.Build(workload.PaperSmall())
	if *largeFlag {
		db = workload.Build(workload.PaperLarge())
	}
	stores, _, err := fragment.Partition(db.Doc, fragment.NewAssignment("solo"))
	fatal(err)
	store := stores["solo"].Seal()
	store.Index() // build once up front; queries share it lock-free

	arms := []struct {
		name  string
		query string
		gated bool
	}{
		{"child-path", db.BlockQuery(0, 0, 0), false},
		{"deep-descendant", "/usRegion[@id='NE']//parkingSpace[available='yes']", true},
		{"predicate-heavy", "/usRegion[@id='NE']//parkingSpace[available='yes' and price>=25 and meter='2hr']", true},
	}

	rep := localEvalReport{Experiment: "local-eval", Short: *shortFlag, Reps: reps}
	fmt.Printf("%-18s %14s %14s %9s %12s %10s\n",
		"arm", "indexed-ns/op", "walker-ns/op", "speedup", "sel-allocs", "identical")
	for _, arm := range arms {
		plans, err := qeg.CompileQuery(arm.query, db.Schema)
		fatal(err)
		plan := plans[0]
		if !plan.Indexable {
			fatal(fmt.Errorf("local-eval: plan for %q is not indexable", arm.query))
		}
		if _, ok, err := qeg.IndexedMatchCount(store, plan, qeg.Options{}); err != nil || !ok {
			fatal(fmt.Errorf("local-eval: fast path declined %q (ok=%v err=%v)", arm.query, ok, err))
		}

		fastRes, err := qeg.Evaluate(store, plan, qeg.Options{})
		fatal(err)
		slowRes, err := qeg.Evaluate(store, plan, qeg.Options{NoIndex: true})
		fatal(err)
		identical := fastRes.Fragment.String() == slowRes.Fragment.String() &&
			fastRes.Nodes == slowRes.Nodes

		indexedNs := medianNsPerOp(reps, iters, func() {
			_, err := qeg.Evaluate(store, plan, qeg.Options{})
			fatal(err)
		})
		walkerNs := medianNsPerOp(reps, iters, func() {
			_, err := qeg.Evaluate(store, plan, qeg.Options{NoIndex: true})
			fatal(err)
		})
		selAllocs := testing.AllocsPerRun(100, func() {
			if _, ok, _ := qeg.IndexedMatchCount(store, plan, qeg.Options{}); !ok {
				fatal(fmt.Errorf("local-eval: fast path declined mid-measurement"))
			}
		})

		a := localEvalArm{
			Arm: arm.name, Query: arm.query, Gated: arm.gated,
			IndexedNsOp: indexedNs, WalkerNsOp: walkerNs,
			Speedup:           float64(walkerNs) / float64(indexedNs),
			SelectAllocsPerOp: selAllocs,
			Identical:         identical,
		}
		rep.Arms = append(rep.Arms, a)
		fmt.Printf("%-18s %14d %14d %8.2fx %12.1f %10v\n",
			a.Arm, a.IndexedNsOp, a.WalkerNsOp, a.Speedup, a.SelectAllocsPerOp, a.Identical)
	}

	rep.PassSpeedup, rep.PassAllocFree, rep.PassIdentical = true, true, true
	for _, a := range rep.Arms {
		if a.Gated && a.Speedup < 5 {
			rep.PassSpeedup = false
		}
		if a.SelectAllocsPerOp != 0 {
			rep.PassAllocFree = false
		}
		if !a.Identical {
			rep.PassIdentical = false
		}
	}
	rep.Pass = rep.PassSpeedup && rep.PassAllocFree && rep.PassIdentical

	fmt.Printf("\nacceptance: speedup >=5x on gated arms = %v; selection core alloc-free = %v; "+
		"answers byte-identical = %v\n", rep.PassSpeedup, rep.PassAllocFree, rep.PassIdentical)
	fmt.Printf("overall pass=%v\n", rep.Pass)

	buf, err := json.MarshalIndent(rep, "", "  ")
	fatal(err)
	buf = append(buf, '\n')
	fatal(os.WriteFile("BENCH_PR6.json", buf, 0o644))
	fmt.Println("wrote BENCH_PR6.json")
}

type localEvalReport struct {
	Experiment    string         `json:"experiment"`
	Short         bool           `json:"short"`
	Reps          int            `json:"reps"`
	Arms          []localEvalArm `json:"arms"`
	PassSpeedup   bool           `json:"pass_speedup"`
	PassAllocFree bool           `json:"pass_alloc_free"`
	PassIdentical bool           `json:"pass_identical"`
	Pass          bool           `json:"pass"`
}

type localEvalArm struct {
	Arm               string  `json:"arm"`
	Query             string  `json:"query"`
	Gated             bool    `json:"gated"`
	IndexedNsOp       int64   `json:"indexed_ns_per_op"`
	WalkerNsOp        int64   `json:"walker_ns_per_op"`
	Speedup           float64 `json:"speedup"`
	SelectAllocsPerOp float64 `json:"select_allocs_per_op"`
	Identical         bool    `json:"identical"`
}

// medianNsPerOp times reps batches of iters calls each and returns the
// median per-op time — medians keep a single descheduled batch from
// moving a gate.
func medianNsPerOp(reps, iters int, f func()) int64 {
	f() // warm caches, pools and the plan's compiled predicates
	samples := make([]int64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		samples = append(samples, time.Since(t0).Nanoseconds()/int64(iters))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}
