package site

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/qeg"
	"irisnet/internal/trace"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// In-network partial aggregation (DESIGN.md §14). An aggregate query
// fn(/path) arriving at a site is answered in one of two modes:
//
//   - Pushdown: when the inner query is in the decomposable class
//     (qeg.DecomposableAggregate) and this site's subqueries target
//     pairwise-disjoint subtrees (qeg.AggregateTargetsDisjoint), the site
//     folds its own matches into a partial state with the indexed local
//     evaluation path and sends each addressed site the same pinned
//     subquery wrapped in the aggregate function. Every hop down the
//     gather path repeats the decision, so the raw fragments never travel:
//     each link carries one AggPayload of a few dozen bytes.
//
//   - Fallback: anything outside the class runs the ordinary raw gather
//     (handleQuery on the inner query) and aggregates the assembled
//     fragment locally — the definitional semantics, byte-identical to
//     computing over a raw answer at the client. The reply upstream is
//     still a compact partial, so even a fallback hop saves the upstream
//     links the fragment bytes.
//
// Either way the site answers KindAggregateResult with the combined
// partial, the roll-up staleness (max over contributing partials), the
// unreachable-subtree list and the truncation marker, and caching sites
// remember complete answers in the summary cache (summary.go).

// aggAnswer is the aggregate kind's answer in the shared dispatcher: a
// partial state plus the staleness and truncation roll-ups it carries.
type aggAnswer struct {
	partial   qeg.AggPartial
	ageMax    float64
	truncated bool
}

// newAggDispatcher builds the aggregate kind's dispatcher. Aggregate
// answers never merge into the site cache; the combined answer goes to the
// summary cache instead (summary.go).
func newAggDispatcher(s *Site) *dispatcher[aggAnswer] {
	return &dispatcher[aggAnswer]{
		s:    s,
		kind: KindAggregate,
		decode: func(m *Message, r *fetched[aggAnswer]) error {
			if m.Agg == nil {
				return errors.New("aggregate answer carries no partial state")
			}
			r.ans = aggAnswer{partial: m.Agg.Partial, ageMax: m.Agg.AgeMaxSec, truncated: m.Truncated}
			return nil
		},
		flights: newFlightGroup[fetched[aggAnswer]](),
	}
}

// handleAggregate answers a KindAggregate message. pinned has the same
// meaning as in handleQuery: batch entries evaluate against one shared
// snapshot; nil loads the latest published version.
func (s *Site) handleAggregate(ctx context.Context, msg *Message, reqBytes int, pinned *fragment.Store) *Message {
	aggQ, isAgg, err := xpath.ParseAggregate(msg.Query)
	if err != nil {
		return errorMessage(err)
	}
	if !isAgg {
		return errorMessage(fmt.Errorf("site %s: %q is not an aggregate query", s.cfg.Name, msg.Query))
	}
	inner := aggQ.InnerSource()

	// The aggregate follows its subtree to a new owner exactly as a raw
	// query does.
	ctx, h := s.startHop(ctx, msg, "aggregate", reqBytes)
	if resp, ok := s.forward(ctx, h, msg, inner); ok {
		return resp
	}
	s.Metrics.Queries.Inc()
	now := s.cfg.Clock()

	// Summary cache: a fresh-enough cached combined partial answers the
	// query without any evaluation or communication. Bypass reads under
	// CacheBypass, like the raw cache.
	if s.summaries != nil && !s.cfg.CacheBypass {
		if partial, age, ok := s.summaries.get(msg.Query, now); ok {
			s.Metrics.SummaryHits.Inc()
			s.Metrics.CacheHits.Inc()
			s.Metrics.AnswerStaleness.Observe(age)
			res := &Message{Kind: KindAggregateResult,
				Agg: &AggPayload{Fn: aggQ.Fn.String(), Partial: partial, AgeMaxSec: age}}
			if h.span != nil {
				h.span.DurationUS = time.Since(h.t0).Microseconds()
				h.span.CacheHit = true
				finishSpan(h.span, h.stats)
				res.Span = h.span
			}
			return res
		}
	}

	var plans []*qeg.Plan
	tp := time.Now()
	s.cpu.Do(func() {
		plans, err = s.compiler.Compile(inner)
	})
	h.plan = time.Since(tp)
	s.Metrics.Breakdown.Add("create-plan", h.plan)
	if err != nil {
		return errorMessage(err)
	}

	var partial qeg.AggPartial
	var ageMax float64
	var freshness *trace.FreshnessReport
	unreachable := map[string]bool{}
	truncated := false
	fanout := 0
	cacheHit := true

	decomposed := qeg.DecomposableAggregate(plans)
	if decomposed {
		snap := pinned
		if snap == nil {
			snap = s.state.Load().store
		}
		opts := qeg.Options{Now: s.cfg.Clock, IgnoreCached: s.cfg.CacheBypass}
		if !s.cfg.DisableFreshnessLedger {
			h.prov = *qeg.NewProvenance(now)
			opts.Prov = &h.prov
		}
		var res *qeg.Result
		te := time.Now()
		s.cpu.Do(func() {
			res, err = qeg.Evaluate(snap, plans[0], opts)
			if err == nil {
				s.chargeEval(res.Nodes)
			}
		})
		h.exec = time.Since(te)
		if err != nil {
			return errorMessage(err)
		}
		if !qeg.AggregateTargetsDisjoint(res.Fragment, res.Subqueries) {
			// Overlapping targets would double-count; this query takes the
			// raw path at this site (downstream sites decide for themselves).
			decomposed = false
		} else {
			var localBytes int
			s.cpu.Do(func() {
				partial, err = qeg.ComputeAggregate(res.Fragment, inner, s.cfg.Clock)
				if err == nil {
					// What the raw path would have shipped upstream from this
					// site's own data — the per-hop wire saving (the links
					// above save the downstream fragments too; each hop
					// accounts its own, so federation-wide totals compose).
					localBytes = len(res.Fragment.StringSized(res.Nodes))
				}
			})
			if err != nil {
				return errorMessage(fmt.Errorf("site %s: aggregating local matches: %w", s.cfg.Name, err))
			}
			if opts.Prov != nil {
				ageMax = opts.Prov.AgeMax
			}
			if len(res.Subqueries) > 0 {
				// One dispatch round: each addressed site gets the same pinned
				// subquery wrapped in the aggregate function.
				cacheHit = false
				fanout = len(res.Subqueries)
				subs := make([]qeg.Subquery, len(res.Subqueries))
				for i, sq := range res.Subqueries {
					subs[i] = qeg.Subquery{Target: sq.Target, Query: qeg.AggregateSubquery(aggQ.Fn, sq)}
				}
				tc := time.Now()
				results, batchSpans := s.agg.dispatch(ctx, subs, msg.TraceID)
				h.comm = time.Since(tc)
				if h.span != nil {
					h.span.Children = append(h.span.Children, batchSpans...)
				}
				for i, r := range results {
					if h.span != nil && r.span != nil {
						h.span.Children = append(h.span.Children, r.span)
					}
					if r.Err != nil {
						// Partial answer: mark just this subtree unreachable,
						// as the raw path would.
						unreachable[subs[i].Target.Key()] = true
						continue
					}
					partial = partial.Combine(r.ans.partial)
					ageMax = max(ageMax, r.ans.ageMax)
					truncated = truncated || r.ans.truncated
					for _, d := range r.Unreachable {
						unreachable[d] = true
					}
				}
			}
			s.Metrics.AggregatePushdowns.Inc()
			s.Metrics.AnswerStaleness.Observe(ageMax)
			if opts.Prov != nil {
				freshness = freshnessReport(opts.Prov, 0)
				freshness.MaxAgeSec = ageMax // roll up the remote partials' staleness
			}
			if localBytes > 0 {
				s.Metrics.GatherBytesSaved.Add(int64(localBytes))
			}
		}
	}

	if !decomposed {
		// Fallback: raw gather over the inner query, aggregate the assembled
		// fragment here. A trace ID is always set so the inner answer's
		// freshness report (the combined staleness) comes back with the span.
		em := &Message{Kind: KindQuery, Query: inner, TraceID: msg.TraceID, DeadlineMS: msg.DeadlineMS}
		if em.TraceID == "" {
			em.TraceID = trace.NewTraceID()
		}
		tg := time.Now()
		resp := s.handleQuery(ctx, em, reqBytes, pinned)
		h.comm = time.Since(tg)
		if err := resp.AsError(); err != nil {
			return errorMessage(err)
		}
		s.cpu.Do(func() {
			var frag *xmldb.Node
			if frag, err = xmldb.ParseString(resp.Fragment); err != nil {
				err = fmt.Errorf("site %s: parsing gathered fragment: %w", s.cfg.Name, err)
				return
			}
			partial, err = qeg.ComputeAggregate(frag, inner, s.cfg.Clock)
		})
		if err != nil {
			return errorMessage(err)
		}
		truncated = resp.Truncated
		for _, d := range resp.Unreachable {
			unreachable[d] = true
		}
		if resp.Span != nil {
			cacheHit = resp.Span.CacheHit
			fanout = resp.Span.Subqueries
			if resp.Span.Freshness != nil {
				ageMax = resp.Span.Freshness.MaxAgeSec
				freshness = resp.Span.Freshness
			}
			if h.span != nil {
				h.span.Children = append(h.span.Children, resp.Span)
			}
		}
		s.Metrics.AggregateFallbacks.Inc()
		// Even a fallback hop ships a scalar upstream instead of the
		// assembled fragment: the saving on the upstream link is exact.
		s.Metrics.GatherBytesSaved.Add(int64(len(resp.Fragment)))
	}

	// Cache the combined answer — complete answers only, and only when every
	// consistency predicate's freshness margin is measurable (otherwise a
	// later hit could not be gated).
	if s.summaries != nil && !truncated && len(unreachable) == 0 {
		if forms, ok := consForms(plans); ok {
			if scope, err := qeg.LCAPath(inner); err == nil {
				s.summaries.put(msg.Query, scope, partial, ageMax, now, forms)
			}
		}
	}

	res := &Message{Kind: KindAggregateResult,
		Agg:       &AggPayload{Fn: aggQ.Fn.String(), Partial: partial, AgeMaxSec: ageMax},
		Truncated: truncated}
	total := s.finishHop(h, res, sortedKeys(unreachable), cacheHit, fanout, freshness)
	s.log.LogAttrs(ctx, slog.LevelDebug, "aggregate served",
		slog.String("trace_id", msg.TraceID), slog.Duration("dur", total),
		slog.Bool("pushdown", decomposed), slog.Int("fanout", fanout),
		slog.Int("unreachable", len(res.Unreachable)))
	return res
}

// consForms collects the compiled freshness forms of every consistency
// predicate across the plans; ok is false when any predicate is outside the
// compilable subset (its margin cannot be measured, so answers must not be
// summary-cached).
func consForms(plans []*qeg.Plan) ([]*xpath.FreshnessForm, bool) {
	var forms []*xpath.FreshnessForm
	for _, p := range plans {
		for _, st := range p.Steps {
			for i := range st.ConsPreds {
				if i >= len(st.ConsForms) || st.ConsForms[i] == nil {
					return nil, false
				}
				forms = append(forms, st.ConsForms[i])
			}
		}
	}
	return forms, true
}
