package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"irisnet/internal/workload"
)

type runOpts struct {
	spec     Spec
	seed     int64
	seconds  float64 // measured in all, split evenly over the rounds
	rounds   int
	dataRoot string
	clients  int
	traced   bool
}

// runResult is the measured rounds of one run plus their checks.
type runResult struct {
	opts runOpts

	setupS         []float64 // per round
	warmWindows    []int
	warmSteady     bool
	heapMB         []float64 // per round
	measured       time.Duration
	queryLat       []float64 // sorted ms, every round
	updateLat      []float64 // sorted ms, every round
	lateMS         []float64 // sorted ms
	queryAttempts  int64
	queryFailed    int64
	wrong          int64
	updateAttempts int64
	updateFailed   int64
	lost           int64
	checked        int64
	// replayed counts the queries verify posed itself, at quiescence.
	replayed      int64
	wrongExamples []string

	layers map[string]Metric
	rec    *Recorder
}

// warm-up: the load runs in windows until cache occupancy and hit ratio
// stop moving between consecutive windows. A hit-ratio change counts as
// movement only when it exceeds three standard errors of the two windows'
// sampling noise.
const (
	warmWindow     = 250 * time.Millisecond
	warmMinWindows = 4
	warmMaxWindows = 40
	warmBytesFrac  = 0.05
	warmBytesFloor = 8 << 10
)

func warmUp(c *Cluster) (int, bool) {
	prev := takeSnapshot(c)
	lastHit, lastN, lastBytes := -1.0, 0.0, -1.0
	for w := 1; w <= warmMaxWindows; w++ {
		time.Sleep(warmWindow)
		cur := takeSnapshot(c)
		dh, dm := float64(cur.hits-prev.hits), float64(cur.misses-prev.misses)
		n := dh + dm
		hit := ratio(dh, n)
		bytes := float64(c.CacheBytes())
		if w >= warmMinWindows && lastHit >= 0 && n > 0 && lastN > 0 {
			p := (hit + lastHit) / 2
			noise := 3 * math.Sqrt(p*(1-p)*(1/n+1/lastN))
			if math.Abs(hit-lastHit) <= math.Max(noise, 0.005) &&
				math.Abs(bytes-lastBytes) <= math.Max(warmBytesFrac*bytes, warmBytesFloor) {
				return w, true
			}
		}
		prev, lastHit, lastN, lastBytes = cur, hit, n, bytes
	}
	return warmMaxWindows, false
}

// setup builds the database and the cluster, stamps the spaces when the
// workload reads timestamps, starts the load and warms it up.
func setup(o runOpts, rec *Recorder, win *window) (*Cluster, *Load, error) {
	db := workload.Build(workload.PaperSmall())
	c, err := newCluster(o.spec, db, o.dataRoot, rec)
	if err != nil {
		return nil, nil, err
	}
	if o.spec.FreshTol > 0 {
		if err := stamp(c, o.clients); err != nil {
			c.Close()
			return nil, nil, err
		}
	}
	streams := make([]*QueryStream, o.clients)
	for i := range streams {
		streams[i] = newQueryStream(o.spec, db, o.seed, i)
	}
	upd := newUpdater(c, newUpdateStream(o.spec, db, o.seed), o.spec.UpdateRate, o.clients)
	return c, startLoad(c, streams, upd, win), nil
}

// runOnce measures o.rounds rounds. Each builds, warms and measures a
// cluster of its own, so a run sees several set-ups and several stretches
// of the shared host's load, and the heap of one cluster never grows
// beyond one round's worth.
func runOnce(o runOpts) (*runResult, error) {
	r := &runResult{opts: o, warmSteady: true}
	if o.traced {
		r.rec = newRecorder()
	}
	dur := time.Duration(o.seconds / float64(o.rounds) * float64(time.Second))
	for i := 0; i < o.rounds; i++ {
		if err := r.runRound(dur); err != nil {
			return nil, err
		}
		// Start the next set-up from a collected heap, not from the
		// pacing the closed cluster left behind.
		runtime.GC()
	}
	sort.Float64s(r.queryLat)
	sort.Float64s(r.updateLat)
	sort.Float64s(r.lateMS)
	return r, nil
}

func (r *runResult) runRound(dur time.Duration) error {
	o := r.opts
	win := &window{}
	t0 := time.Now()
	c, l, err := setup(o, r.rec, win)
	if err != nil {
		return err
	}
	defer c.Close()
	w, steady := warmUp(c)
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	r.warmWindows = append(r.warmWindows, w)
	r.warmSteady = r.warmSteady && steady

	start := time.Now()
	win.set(start, start.Add(dur))
	before := takeSnapshot(c)
	time.Sleep(time.Until(start.Add(dur)))
	after := takeSnapshot(c)
	cacheBytes := c.CacheBytes()
	l.Stop()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = append(r.heapMB, float64(ms.HeapAlloc)/(1<<20))

	r.measured += dur
	var stages stageTimes
	var answered int64
	for _, cs := range l.clients {
		r.queryAttempts += cs.attempts
		r.queryFailed += cs.failed
		r.queryLat = append(r.queryLat, cs.lat...)
		answered += int64(len(cs.lat))
		stages.add(cs.stages)
	}
	upd := l.upd
	r.updateAttempts += upd.attempted
	r.updateFailed += upd.failed
	r.updateLat = append(r.updateLat, upd.lat...)
	r.lateMS = append(r.lateMS, upd.lateMS...)
	if err := r.verify(c, l); err != nil {
		return err
	}
	if o.traced {
		r.layers = perLayer(c, r.rec, win, before, after, stages, answered, cacheBytes, r)
	}
	return nil
}

// verify runs the answer oracle and the acked-update read-back.
func (r *runResult) verify(c *Cluster, l *Load) error {
	upd, db := l.upd, c.DB
	lost, err := readBack(c, upd)
	if err != nil {
		return err
	}
	r.lost += lost
	if l.hashAnswers {
		wrong, ex, err := checkAnswers(newOracle(db.Doc, false), l.clients)
		if err != nil {
			return err
		}
		r.wrong += wrong
		r.wrongExamples = append(r.wrongExamples, ex...)
		for _, cs := range l.clients {
			for _, hashes := range cs.answers {
				for _, n := range hashes {
					r.checked += n
				}
			}
		}
		return nil
	}
	// Answers under a freshness predicate change as sensors report, so
	// they are checked at quiescence: once the tolerance has passed since
	// the last update, no cached copy older than the owner's data can pass
	// the predicate, and every answer must equal the central one over the
	// document with every acked reading applied.
	if len(upd.failedPaths) > 0 {
		return nil // the document's state is unknown; failures already count
	}
	time.Sleep(time.Duration((r.opts.spec.FreshTol + 0.5) * float64(time.Second)))
	oracle := newOracle(currentDoc(db.Doc, upd), true)
	fe := c.NewFrontend()
	qs := replaySample(l.clients, replaySampleMax, r.opts.seed)
	for city := 0; city < db.Cfg.Cities; city++ {
		qs = append(qs, aggregateQuery(db, city, r.opts.spec.FreshTol), aggregateInner(db, city, r.opts.spec.FreshTol))
	}
	for _, q := range qs {
		ans, err := fe.QueryFull(context.Background(), q)
		want, oerr := oracle.Hash(q)
		if oerr != nil {
			return oerr
		}
		r.checked++
		r.replayed++
		if err != nil || ans.Partial() || answerHash(ans.Nodes, true) != want {
			r.wrong++
			if len(r.wrongExamples) < 3 {
				ex := q
				if err == nil {
					want, _ := oracle.Nodes(q)
					ex += ": " + diffAnswers(ans.Nodes, want)
				}
				r.wrongExamples = append(r.wrongExamples, ex)
			}
		}
	}
	// Each count must also equal the fold of its own raw answer.
	for city := 0; city < db.Cfg.Cities; city++ {
		agg, err := fe.QueryFull(context.Background(), aggregateQuery(db, city, r.opts.spec.FreshTol))
		raw, rerr := fe.QueryFull(context.Background(), aggregateInner(db, city, r.opts.spec.FreshTol))
		r.checked++
		r.replayed += 2
		if err != nil || rerr != nil || len(agg.Nodes) != 1 || agg.Nodes[0].Text != formatValue(float64(len(raw.Nodes))) {
			r.wrong++
		}
	}
	return nil
}

func (s *stageTimes) add(o stageTimes) {
	s.route += o.route
	s.encode += o.encode
	s.decode += o.decode
	s.parse += o.parse
	s.extract += o.extract
	s.queries += o.queries
	s.parsed += o.parsed
	s.answerBytes += o.answerBytes
}

// qps is the rate of complete answers over every round; a run with any
// wrong answer fails as a whole.
func (r *runResult) qps() float64 { return float64(len(r.queryLat)) / r.measured.Seconds() }

// endToEnd is the untraced run's user-visible metrics.
func (r *runResult) endToEnd() map[string]Metric {
	return map[string]Metric{
		"query_qps":     {r.qps(), "1/s"},
		"query_p50_ms":  {percentile(r.queryLat, 50), "ms"},
		"update_p50_ms": {percentile(r.updateLat, 50), "ms"},
		"setup_s":       {median(r.setupS), "s"},
		"heap_mb":       {mean(r.heapMB), "MB"},
	}
}

func (r *runResult) print(label string) {
	fmt.Printf("%s run: %d rounds of %gs, setup %s s (warm-up %v windows, steady=%v), heap %s MB\n", label, r.opts.rounds,
		r.opts.seconds/float64(r.opts.rounds), fmt.Sprintf("%.3f", r.setupS), r.warmWindows, r.warmSteady, fmt.Sprintf("%.1f", r.heapMB))
	printMetrics(r.endToEnd())
	fmt.Printf("  %-32s %14.4f frac  (%d failed of %d, %d wrong, %d answers checked)\n", "query_fail_frac",
		ratio(float64(r.queryFailed+r.wrong), float64(r.queryAttempts+r.replayed)), r.queryFailed, r.queryAttempts+r.replayed, r.wrong, r.checked)
	fmt.Printf("  %-32s %14.4f frac  (%d failed of %d, %d acked lost)\n", "update_fail_frac",
		ratio(float64(r.updateFailed+r.lost), float64(r.updateAttempts)), r.updateFailed, r.updateAttempts, r.lost)
	// The p99s are printed, not declared in BENCHMARK.json. On a shared
	// 2-vCPU host the hypervisor's pauses land in the top percent of
	// latencies first: between sets of ten runs of the same code the
	// owned-point query p99 spread 36% and 55% of its median, and the
	// update p99 moved threefold (4.8-15 ms), beyond the largest bound the
	// benchmark may set (25%).
	fmt.Printf("  %-32s %14.4f ms\n", "query_p99_ms", percentile(r.queryLat, 99))
	fmt.Printf("  %-32s %14.4f ms\n", "update_p99_ms", percentile(r.updateLat, 99))
	fmt.Printf("  samples: %d queries, %d updates\n", len(r.queryLat), len(r.updateLat))
	if len(r.wrongExamples) > 0 {
		fmt.Printf("  WRONG ANSWERS, e.g.: %s\n", strings.Join(r.wrongExamples, "; "))
	}
}

// perLayer computes the traced run's per-layer metrics.
func perLayer(c *Cluster, rec *Recorder, win *window, b, a snapshot, st stageTimes, queries int64, cacheBytes int64, r *runResult) map[string]Metric {
	q := float64(queries)
	secs := a.at.Sub(b.at).Seconds()
	d := func(x, y int64) float64 { return float64(y - x) }
	us := func(t time.Duration, n int64) float64 { return ratio(float64(t), float64(n)*1e3) }
	from, to := int64(win.start.Sub(rec.t0)), int64(win.end.Sub(rec.t0))
	sp := analyzeSpans(rec, from, to)
	plan, exec, rest := breakdownMeans(c.Sites)
	subq := d(b.subqueries, a.subqueries)
	push, fall, sum := d(b.aggPush, a.aggPush), d(b.aggFall, a.aggFall), d(b.summaryHits, a.summaryHits)
	hits, misses := d(b.hits, a.hits), d(b.misses, a.misses)
	dnsH, dnsM := d(b.dnsHits, a.dnsHits), d(b.dnsMisses, a.dnsMisses)
	updates := d(b.updates, a.updates)
	cpu := d(b.cpuNS, a.cpuNS)
	return map[string]Metric{
		"service.route_us":   {us(st.route, st.queries), "us"},
		"service.encode_us":  {us(st.encode, st.queries), "us"},
		"service.decode_us":  {us(st.decode, st.queries), "us"},
		"service.parse_us":   {us(st.parse, st.parsed), "us"},
		"service.extract_us": {us(st.extract, st.parsed), "us"},
		"service.answer_kb":  {ratio(float64(st.answerBytes), float64(st.queries)*1024), "KiB"},

		"transport.wire_us":         {sp.wireUS, "us"},
		"transport.calls_per_query": {sp.callsPerQuery, "count"},
		"transport.kb_per_query":    {sp.kbPerQuery, "KiB"},

		"site.query_self_us":     {sp.querySelfUS, "us"},
		"site.batch_self_us":     {sp.batchSelfUS, "us"},
		"site.aggregate_self_us": {sp.aggSelfUS, "us"},
		"site.update_us":         {sp.updateUS, "us"},
		"site.wait_us":           {sp.wait, "us"},
		"site.wait_frac":         {sp.waitFrac, "frac"},
		"site.create_plan_us":    {plan, "us"},
		"site.execute_qeg_us":    {exec, "us"},
		"site.rest_us":           {rest, "us"},

		"site.hit_ratio":            {ratio(hits, hits+misses), "frac"},
		"site.subqueries_per_query": {ratio(subq, q), "count"},
		"site.rpcs_per_query":       {ratio(d(b.rpcs, a.rpcs), q), "count"},
		"site.coalesced_frac":       {ratio(d(b.coalesced, a.coalesced), subq), "frac"},
		"site.evictions_per_query":  {ratio(d(b.evictions, a.evictions), q), "count"},
		"site.cache_mb":             {float64(cacheBytes) / (1 << 20), "MB"},
		"site.agg_pushdown_frac":    {ratio(push, push+fall), "frac"},
		"site.summary_hit_frac":     {ratio(sum, sum+push+fall), "frac"},

		"naming.lookups_per_query": {ratio(d(b.lookups, a.lookups), q), "count"},
		"naming.client_hit_ratio":  {ratio(dnsH, dnsH+dnsM), "frac"},

		"wal.bytes_per_update": {ratio(d(b.walBytes, a.walBytes), updates), "B"},
		"wal.fsyncs_per_s":     {ratio(d(b.walFsyncs, a.walFsyncs), secs), "1/s"},
		"wal.checkpoint_ms":    {ratio(a.ckptSum-b.ckptSum, float64(a.ckptCount-b.ckptCount)) * 1e3, "ms"},
		"wal.checkpoints":      {d(b.checkpoints, a.checkpoints), "count"},

		"runtime.cpu_ms_per_query":   {ratio(cpu, q*1e6), "ms"},
		"runtime.cpu_util":           {ratio(cpu, secs*1e9*float64(runtime.NumCPU())), "frac"},
		"runtime.alloc_kb_per_query": {ratio(float64(a.allocBytes-b.allocBytes), q*1024), "KiB"},
		"runtime.allocs_per_query":   {ratio(float64(a.allocObjects-b.allocObjects), q), "count"},
		"runtime.gc_cpu_frac":        {ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU), "frac"},

		"loadgen.update_late_p99_ms": {nanToZero(percentile(r.lateMS, 99)), "ms"},
	}
}

func nanToZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
