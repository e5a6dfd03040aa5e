package main

import (
	"testing"

	"irisnet/internal/workload"
)

func drawQueries(spec Spec, db *workload.DB, seed int64, client, n int) []string {
	qs := newQueryStream(spec, db, seed, client)
	out := make([]string, n)
	for i := range out {
		out[i] = qs.Next()
	}
	return out
}

func drawReadings(spec Spec, db *workload.DB, seed int64, n int) []string {
	us := newUpdateStream(spec, db, seed)
	out := make([]string, n)
	for i := range out {
		r := us.Next()
		out[i] = r.Path.String() + " " + r.Fields["price"] + " " + r.Fields["available"]
	}
	return out
}

func same(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// TestStreamsFollowTheSeed checks that the seed is the only input to the
// query and sensor streams: the same seed replays the same streams, and a
// different seed (or another client) draws different ones.
func TestStreamsFollowTheSeed(t *testing.T) {
	db := workload.Build(workload.PaperSmall())
	for _, spec := range specs {
		a := drawQueries(spec, db, 1, 0, 200)
		if !same(a, drawQueries(spec, db, 1, 0, 200)) {
			t.Errorf("%s: same seed gave different query streams", spec.Name)
		}
		if same(a, drawQueries(spec, db, 2, 0, 200)) {
			t.Errorf("%s: seeds 1 and 2 gave the same query stream", spec.Name)
		}
		if same(a, drawQueries(spec, db, 1, 1, 200)) {
			t.Errorf("%s: clients 0 and 1 share a query stream", spec.Name)
		}
		r := drawReadings(spec, db, 1, 300)
		if !same(r, drawReadings(spec, db, 1, 300)) {
			t.Errorf("%s: same seed gave different sensor streams", spec.Name)
		}
		if same(r, drawReadings(spec, db, 2, 300)) {
			t.Errorf("%s: seeds 1 and 2 gave the same sensor stream", spec.Name)
		}
	}
}

// TestStreamShapes checks each workload draws what it is named for.
func TestStreamShapes(t *testing.T) {
	db := workload.Build(workload.PaperSmall())
	occupied := map[string]bool{}
	for _, p := range occupiedSpaces(db) {
		occupied[p.Key()] = true
	}
	blocks := map[string]bool{}
	for _, q := range drawQueries(specs["owned-point"], db, 3, 0, 5000) {
		blocks[q] = true
	}
	if len(blocks) != len(db.BlockPaths) {
		t.Errorf("owned-point drew %d distinct block queries, want all %d", len(blocks), len(db.BlockPaths))
	}
	us := newUpdateStream(specs["cache-churn"], db, 3)
	for i := 0; i < 2*len(occupied); i++ {
		r := us.Next()
		if !occupied[r.Path.Key()] || r.Fields["available"] != "" {
			t.Fatalf("background reading %v touches an answer-visible field or space", r)
		}
	}
	aggs := 0
	for _, q := range drawQueries(specs["fresh-rw"], db, 3, 0, 2000) {
		if q[:6] == "count(" {
			aggs++
		}
	}
	if aggs < 140 || aggs > 260 {
		t.Errorf("fresh-rw drew %d aggregates in 2000 queries, want about 10%%", aggs)
	}
}
