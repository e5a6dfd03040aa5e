package main

import (
	"runtime/metrics"
	"syscall"
	"time"

	"irisnet/internal/site"
)

// snapshot is every counter the per-layer metrics difference across the
// measured window.
type snapshot struct {
	at time.Time

	queries, subqueries, hits, misses, rpcs, coalesced, evictions int64
	aggPush, aggFall, summaryHits                                 int64
	walBytes, walFsyncs, checkpoints, updates                     int64
	ckptSum                                                       float64
	ckptCount                                                     int64

	lookups, dnsHits, dnsMisses int64

	cpuNS                    int64
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnapshot(c *Cluster) snapshot {
	s := snapshot{at: time.Now()}
	for _, st := range c.Sites {
		m := &st.Metrics
		s.queries += m.Queries.Value()
		s.subqueries += m.Subqueries.Value()
		s.hits += m.CacheHits.Value()
		s.misses += m.CacheMisses.Value()
		s.rpcs += m.SubqueryRPCs.Value()
		s.coalesced += m.Coalesced.Value()
		s.evictions += m.Evictions.Value()
		s.aggPush += m.AggregatePushdowns.Value()
		s.aggFall += m.AggregateFallbacks.Value()
		s.summaryHits += m.SummaryHits.Value()
		s.walBytes += m.WALBytes.Value()
		s.walFsyncs += m.WALFsyncs.Value()
		s.checkpoints += m.Checkpoints.Value()
		s.updates += m.Updates.Value()
		s.ckptSum += m.CheckpointSeconds.Sum()
		s.ckptCount += m.CheckpointSeconds.Count()
	}
	s.lookups = c.Store.lookups.Load()
	s.dnsHits, s.dnsMisses = c.ResolverStats()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	copy(samples, runtimeSamples)
	metrics.Read(samples)
	s.allocBytes = samples[0].Value.Uint64()
	s.allocObjects = samples[1].Value.Uint64()
	s.gcCPU = samples[2].Value.Float64()
	s.totalCPU = samples[3].Value.Float64()
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// breakdownMeans reads the sites' Figure 10 stage means (over each site's
// lifetime), weighted by the queries each site served.
func breakdownMeans(sites []*site.Site) (plan, exec, rest float64) {
	var n float64
	for _, s := range sites {
		q := float64(s.Metrics.Queries.Value())
		b := s.Metrics.Breakdown
		plan += q * float64(b.Mean("create-plan"))
		exec += q * float64(b.Mean("execute-qeg"))
		rest += q * float64(b.Mean("rest"))
		n += q
	}
	return ratio(plan, n*1e3), ratio(exec, n*1e3), ratio(rest, n*1e3)
}

// spanLayers is what the trace says about one measured window.
type spanLayers struct {
	wireUS, callsPerQuery, kbPerQuery                   float64
	querySelfUS, batchSelfUS, aggSelfUS, updateUS, wait float64
	// waitFrac is the share of query-path handler time blocked on calls.
	waitFrac float64
}

// analyzeSpans computes the transport and site-handler metrics from the
// spans that lie inside [from, to] (recorder time).
func analyzeSpans(rec *Recorder, from, to int64) spanLayers {
	spans := rec.Spans()
	byID := make(map[uint64]*Span, len(spans))
	children := map[uint64][]*Span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "call" && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	in := func(s *Span) bool { return s.Start >= from && s.End <= to }
	// A request belongs to the window when its root span does.
	queryRoots := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == "query" && in(s) {
			queryRoots[s.ID] = true
		}
	}
	var out spanLayers
	var wireSum, wireN float64
	var calls, bytes float64
	self := map[string][2]float64{} // kind -> {sum ns, count}
	var waitSum, waitN, handlerSum float64
	for _, s := range spans {
		if s.Name == "call" && queryRoots[s.Req] {
			calls++
			bytes += float64(s.Bytes)
		}
		if !in(s) {
			continue
		}
		switch s.Name {
		case "handle":
			if call := byID[s.Parent]; call != nil && call.Name == "call" {
				wireSum += float64(call.Dur() - s.Dur())
				wireN++
			}
			st, covered := selfTime(s, children[s.ID])
			v := self[s.Kind]
			self[s.Kind] = [2]float64{v[0] + float64(st), v[1] + 1}
			if s.Kind == "query" || s.Kind == "batch" || s.Kind == "aggregate" {
				waitSum += float64(covered)
				handlerSum += float64(s.Dur())
				waitN++
			}
		}
	}
	mean := func(kind string) float64 { v := self[kind]; return ratio(v[0], v[1]*1e3) }
	out.wireUS = ratio(wireSum, wireN*1e3)
	roots := float64(len(queryRoots))
	out.callsPerQuery = ratio(calls, roots)
	out.kbPerQuery = ratio(bytes, roots*1024)
	out.querySelfUS = mean("query")
	out.batchSelfUS = mean("batch")
	out.aggSelfUS = mean("aggregate")
	out.updateUS = mean("update")
	out.wait = ratio(waitSum, waitN*1e3)
	out.waitFrac = ratio(waitSum, handlerSum)
	return out
}
