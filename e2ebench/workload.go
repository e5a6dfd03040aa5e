package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// Spec is one named workload: what queries the closed-loop clients pose,
// how the sites are configured, and how fast sensors report.
type Spec struct {
	Name string
	// Mix is the query-type mixture (workload.QW1, workload.QWMix).
	Mix workload.Mix
	// Caching turns on query-driven caching at every site; CacheBudget
	// bounds each site's cached bytes (0 = unbounded).
	Caching     bool
	CacheBudget int64
	// Durable puts every site's WAL and checkpoints under a temp data dir.
	Durable bool
	// FreshTol, when positive, adds [@ts >= now() - FreshTol] to every
	// query's parkingSpace step and stamps every space during set-up.
	FreshTol float64
	// AggPct is the percent of queries that are count(...) aggregates over
	// one city.
	AggPct int
	// UpdateRate is the open-loop sensor update rate (updates/s).
	UpdateRate float64
	// OccupiedOnly restricts sensor updates to spaces that start occupied
	// and keeps them occupied (only their price changes), so no query
	// answer changes and every answer can be checked against the initial
	// document.
	OccupiedOnly bool
}

// Fixed sizes shared by the workloads; BENCHMARK.json and README.md state
// them too.
const (
	cacheChurnBudget = 48 << 10 // bytes per site, well below the root's ~610 KB unbounded working set
	freshTolSec      = 5        // seconds; shorter than the per-space update period 2400/200 = 12 s
	freshUpdateRate  = 200      // updates/s on durable sites
	backgroundRate   = 100      // updates/s of the occupied-space sensor stream
	fsyncInterval    = 20 * time.Millisecond
	checkpointEvery  = 2 * time.Second
	queryTimeout     = 10 * time.Second
	aggregatePercent = 10
	replaySampleMax  = 400
)

var specs = map[string]Spec{
	"owned-point": {
		Name: "owned-point", Mix: workload.QW1,
		UpdateRate: backgroundRate, OccupiedOnly: true,
	},
	"cache-churn": {
		Name: "cache-churn", Mix: workload.QWMix,
		Caching: true, CacheBudget: cacheChurnBudget,
		UpdateRate: backgroundRate, OccupiedOnly: true,
	},
	"fresh-rw": {
		Name: "fresh-rw", Mix: workload.QWMix,
		Caching: true, Durable: true, FreshTol: freshTolSec, AggPct: aggregatePercent,
		UpdateRate: freshUpdateRate,
	},
}

// streamSeed derives the seed of one stream (client i's queries, or the
// sensor stream) from the workload seed, so streams are independent but
// all follow from the one command-line seed.
func streamSeed(seed int64, stream int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x&(1<<62-1)) + 1
}

// QueryStream yields one client's queries. Its only inputs are the
// workload spec, the database shape and the seed.
type QueryStream struct {
	spec Spec
	db   *workload.DB
	gen  *workload.Gen
	rng  *rand.Rand
}

func newQueryStream(spec Spec, db *workload.DB, seed int64, client int) *QueryStream {
	s := streamSeed(seed, client)
	return &QueryStream{spec: spec, db: db, gen: workload.NewGen(db, spec.Mix, s), rng: rand.New(rand.NewSource(s ^ 0x5bd1e995))}
}

// Next returns the next query text.
func (q *QueryStream) Next() string {
	if q.spec.AggPct > 0 && q.rng.Intn(100) < q.spec.AggPct {
		return aggregateQuery(q.db, q.rng.Intn(q.db.Cfg.Cities), q.spec.FreshTol)
	}
	text, _ := q.gen.Next()
	return withFreshness(text, q.spec.FreshTol)
}

// availableStep is the parkingSpace step every paper query ends with.
const availableStep = "/parkingSpace[available='yes']"

// withFreshness adds the consistency predicate to every parkingSpace step.
func withFreshness(q string, tol float64) string {
	if tol <= 0 {
		return q
	}
	return strings.ReplaceAll(q, availableStep, freshStep(tol))
}

func freshStep(tol float64) string {
	return "/parkingSpace[available='yes' and @ts >= now() - " + strconv.FormatFloat(tol, 'f', -1, 64) + "]"
}

// aggregateQuery counts the available spaces of one city.
func aggregateQuery(db *workload.DB, city int, tol float64) string {
	return "count(" + aggregateInner(db, city, tol) + ")"
}

func aggregateInner(db *workload.DB, city int, tol float64) string {
	step := availableStep
	if tol > 0 {
		step = freshStep(tol)
	}
	return db.CityPath(city).String() + "/neighborhood/block" + step
}

// Reading is one sensor report: new field values for one space. Seq
// numbers the readings of a stream.
type Reading struct {
	Path   xmldb.IDPath
	Fields map[string]string
	Seq    int
}

// UpdateStream yields the sensor readings. Spaces report in a seeded
// order, each once per pass, so the per-space update period is
// len(targets)/rate. Every reading carries a price unique to the run, so
// a read-back can tell which acked update a space holds.
type UpdateStream struct {
	targets      []xmldb.IDPath
	rng          *rand.Rand
	order        []int
	pos, seq     int
	occupiedOnly bool
}

func newUpdateStream(spec Spec, db *workload.DB, seed int64) *UpdateStream {
	var targets []xmldb.IDPath
	if spec.OccupiedOnly {
		targets = occupiedSpaces(db)
	} else {
		targets = db.SpacePaths
	}
	return &UpdateStream{targets: targets, rng: rand.New(rand.NewSource(streamSeed(seed, -7))), occupiedOnly: spec.OccupiedOnly}
}

// Next returns the next reading.
func (u *UpdateStream) Next() Reading {
	if u.pos == len(u.order) {
		u.order = u.rng.Perm(len(u.targets))
		u.pos = 0
	}
	p := u.targets[u.order[u.pos]]
	u.pos++
	u.seq++
	fields := map[string]string{"price": strconv.Itoa(1000 + u.seq)}
	if !u.occupiedOnly {
		fields["available"] = []string{"yes", "no"}[u.rng.Intn(2)]
	}
	return Reading{Path: p, Fields: fields, Seq: u.seq}
}

// occupiedSpaces lists the spaces whose initial availability is "no".
func occupiedSpaces(db *workload.DB) []xmldb.IDPath {
	var out []xmldb.IDPath
	for _, p := range db.SpacePaths {
		n := xmldb.FindByIDPath(db.Doc, p)
		if av := n.ChildNamed("available"); av != nil && av.Text == "no" {
			out = append(out, p)
		}
	}
	return out
}

func (s Spec) String() string {
	return fmt.Sprintf("%s (caching=%v budget=%dB durable=%v tol=%gs agg=%d%% updates=%g/s)",
		s.Name, s.Caching, s.CacheBudget, s.Durable, s.FreshTol, s.AggPct, s.UpdateRate)
}
