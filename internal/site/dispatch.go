package site

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"irisnet/internal/qeg"
	"irisnet/internal/trace"
	"irisnet/internal/xmldb"
)

// fetched is the outcome of one dispatched subrequest, index-aligned with
// the subqueries handed to dispatch. The embedded qeg.Fetched carries what
// the gather loop splices — the remote site's unreachable paths and the
// failure for every kind, the fragment and its wire size for the raw kind
// — and ans the rest of a kind's answer (the aggregate partial; the raw
// kind has none). span, when set, is a span to hang under the querying hop
// (the remote hop's span on the single-message path, a local marker on the
// coalesced path); batched entries leave it nil because their spans travel
// as children of the batch span.
type fetched[T any] struct {
	qeg.Fetched
	ans  T
	span *trace.Span
}

// flight is one in-progress upstream fetch that concurrent queries for the
// same subrequest share. The leader performs the fetch (possibly inside a
// batch) and publishes the outcome; followers select on done against
// their own context so a slow waiter cannot leak the flight.
type flight[T any] struct {
	done chan struct{}
	res  T
}

// flightGroup dedups identical in-flight subqueries by qeg.Subquery.Key()
// (singleflight). Keys carry the full generalized query text including its
// consistency predicates, so joiners can never be handed a fragment staler
// than their own freshness tolerance: a different tolerance is a different
// key, hence a different flight.
type flightGroup[T any] struct {
	mu      sync.Mutex
	flights map[string]*flight[T]
}

func newFlightGroup[T any]() *flightGroup[T] {
	return &flightGroup[T]{flights: map[string]*flight[T]{}}
}

// join returns the flight for key and whether the caller leads it. A leader
// must eventually call finish exactly once; followers wait on done.
func (g *flightGroup[T]) join(key string) (*flight[T], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f, false
	}
	f := &flight[T]{done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// finish publishes the leader's outcome and retires the flight. The key is
// removed before done closes, so no new joiner can observe a completed
// flight (and thus a fragment fetched before its own query even started
// resolving — the freshness guarantee above depends on this ordering).
func (g *flightGroup[T]) finish(key string, f *flight[T], r T) {
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	f.res = r
	close(f.done)
}

// dispatcher is the site's one subquery dispatcher, generic over the answer
// type. Raw subqueries (KindQuery, fragment answers) and aggregate
// subrequests (KindAggregate, partial-state answers) share coalescing,
// per-owner batching, byte-cap splitting, the follower's private-fetch
// fallback and error spans; each kind supplies only its codec fields.
type dispatcher[T any] struct {
	s *Site
	// kind is the message kind of one subrequest and of its batch entries.
	kind string
	// decode extracts the answer from a reply message into r; a batch
	// entry is decoded as the reply message it stands for.
	decode func(m *Message, r *fetched[T]) error
	// cache makes a fetched fragment merge into the site cache before its
	// flight retires (cacheFetched); kinds the site does not cache leave
	// it false.
	cache bool
	// flights coalesces identical in-flight subrequests (caching sites).
	flights *flightGroup[fetched[T]]
}

// newRawDispatcher builds the raw kind's dispatcher. Its answer is the
// fragment in the embedded qeg.Fetched, so it carries no ans; fetched
// fragments merge into the site cache before their flight retires.
func newRawDispatcher(s *Site) *dispatcher[struct{}] {
	return &dispatcher[struct{}]{
		s:    s,
		kind: KindQuery,
		decode: func(m *Message, r *fetched[struct{}]) (err error) {
			r.Frag, err = xmldb.ParseString(m.Fragment)
			r.Bytes = len(m.Fragment)
			return err
		},
		cache:   true,
		flights: newFlightGroup[fetched[struct{}]](),
	}
}

// pendingSub is one subquery this dispatch call must actually send, with its
// index into the fresh slice.
type pendingSub struct {
	idx int
	sq  qeg.Subquery
}

// cacheFetched folds a freshly fetched fragment into the site cache before
// its flight retires, so a query arriving after the flight finishes finds
// the data cached — there is no window where a subquery neither joins the
// flight nor hits the cache. On a merge failure (a "cannot happen" path:
// the same validation accepted the fragment into the answer) the fetch is
// reported failed, marking just this subtree unreachable. No-op when
// caching is off.
func (s *Site) cacheFetched(frag *xmldb.Node) error {
	if !s.cfg.Caching {
		return nil
	}
	if s.cache != nil {
		// Pin the fragment's units across the merge: the budget eviction
		// inside the transaction must not cancel the fetch it is committing
		// (see cacheManager.pinFragment).
		s.cache.pinFragment(frag)
		defer s.cache.unpinFragment(frag)
	}
	if err := s.mergeCache(frag); err != nil {
		return fmt.Errorf("site %s: caching subanswer: %w", s.cfg.Name, err)
	}
	return nil
}

// failed is the outcome of a subrequest that failed before a remote span
// could be produced; site names where it failed in the error span.
func (d *dispatcher[T]) failed(traceID, site, query string, err error) fetched[T] {
	return fetched[T]{Fetched: qeg.Fetched{Err: err}, span: errSpan(traceID, site, query, err)}
}

// errSpan builds the synthetic span recorded when a fetch fails before a
// remote span could be produced, so the trace tree still shows where a
// partial answer lost its subtree.
func errSpan(traceID, site, query string, err error) *trace.Span {
	if traceID == "" {
		return nil
	}
	return &trace.Span{TraceID: traceID, Site: site, Query: query, Op: "query", Error: err.Error()}
}

// dispatch fetches every fresh subquery concurrently and returns results
// index-aligned with fresh, plus the batch-level spans to attach to the
// querying hop. Two optimizations apply on top of the plain
// one-message-per-subquery path:
//
//   - Coalescing (caching sites): identical in-flight subqueries share one
//     upstream fetch through the dispatcher's flightGroup. The first query
//     to want a key leads the flight; concurrent queries join as followers
//     and take the same answer. Followers keep their own context (a
//     canceled waiter abandons the flight without killing it) and fall
//     back to a private fetch when the flight itself fails, so a leader's
//     tight deadline cannot poison its followers.
//
//   - Batching: subqueries bound for the same owner site ship as one
//     KindBatch message (split by cfg.batchByteCap) instead of N separate
//     round trips, sharing one deadline, one retry budget and one span.
//
// Metrics: Subqueries counts subqueries actually sent upstream, SubqueryRPCs
// counts network sends (so Subqueries - SubqueryRPCs is the messaging saved
// by batching), and Coalesced counts subqueries answered by joining a
// flight.
func (d *dispatcher[T]) dispatch(ctx context.Context, fresh []qeg.Subquery, traceID string) ([]fetched[T], []*trace.Span) {
	s := d.s
	results := make([]fetched[T], len(fresh))

	// Partition into flight leaders/singles (must fetch) and followers
	// (wait on someone else's fetch). Keys within one dispatch call are
	// distinct (the gather loop's seen-set), so a follower's leader is
	// always another query's goroutine.
	var toFetch []pendingSub
	type waiter struct {
		pendingSub
		fl *flight[fetched[T]]
	}
	var waiters []waiter
	leading := map[int]*flight[fetched[T]]{}
	if s.cfg.Caching && !s.cfg.DisableCoalescing {
		for i, sq := range fresh {
			fl, leads := d.flights.join(sq.Key())
			if leads {
				leading[i] = fl
				toFetch = append(toFetch, pendingSub{i, sq})
			} else {
				waiters = append(waiters, waiter{pendingSub{i, sq}, fl})
			}
		}
	} else {
		for i, sq := range fresh {
			toFetch = append(toFetch, pendingSub{i, sq})
		}
	}

	// A leader must complete its flight on every outcome, or followers hang
	// until their own contexts expire.
	finishLeader := func(idx int) {
		if fl, ok := leading[idx]; ok {
			d.flights.finish(fresh[idx].Key(), fl, results[idx])
		}
	}

	var wg sync.WaitGroup
	single := func(p pendingSub) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[p.idx] = d.fetchOne(ctx, p.sq, traceID)
			finishLeader(p.idx)
		}()
	}

	var spanMu sync.Mutex
	var batchSpans []*trace.Span
	if s.cfg.DisableBatching {
		for _, p := range toFetch {
			single(p)
		}
	} else {
		// Group by resolved owner; singleton groups keep the plain
		// single-message path (a batch of one would only add envelope
		// overhead).
		groups := map[string][]pendingSub{}
		var order []string
		for _, p := range toFetch {
			owner, err := s.cfg.DNS.Resolve(p.sq.Target)
			if err != nil {
				err = fmt.Errorf("site %s: resolving %s: %w", s.cfg.Name, p.sq.Target, err)
				results[p.idx] = d.failed(traceID, p.sq.Target.String(), p.sq.Query, err)
				finishLeader(p.idx)
				continue
			}
			if _, ok := groups[owner]; !ok {
				order = append(order, owner)
			}
			groups[owner] = append(groups[owner], p)
		}
		for _, owner := range order {
			group := groups[owner]
			if len(group) == 1 {
				single(group[0])
				continue
			}
			for _, piece := range splitByByteCap(group, s.cfg.batchByteCap) {
				if len(piece) == 1 {
					// A piece collapses to one entry when that entry alone
					// exceeds the byte cap (or the cap leaves a remainder of
					// one). A batch of one buys nothing, so send a plain —
					// possibly oversized — message instead.
					single(piece[0])
					continue
				}
				wg.Add(1)
				go func(owner string, piece []pendingSub) {
					defer wg.Done()
					if sp := d.sendBatch(ctx, owner, piece, traceID, results, finishLeader); sp != nil {
						spanMu.Lock()
						batchSpans = append(batchSpans, sp)
						spanMu.Unlock()
					}
				}(owner, piece)
			}
		}
	}

	for _, w := range waiters {
		wg.Add(1)
		go func(w waiter) {
			defer wg.Done()
			select {
			case <-w.fl.done:
				if w.fl.res.Err != nil {
					// The flight failed — possibly the leader's deadline,
					// not ours. Fall back to a private fetch rather than
					// inheriting the leader's failure.
					results[w.idx] = d.fetchOne(ctx, w.sq, traceID)
					return
				}
				s.Metrics.Coalesced.Inc()
				r := w.fl.res
				r.span = nil
				if traceID != "" {
					// A marker span with this query's own trace ID; adopting
					// the leader's subtree would mix trace IDs in one tree.
					r.span = &trace.Span{TraceID: traceID, Site: s.cfg.Name, Query: w.sq.Query, Op: "coalesced"}
				}
				results[w.idx] = r
			case <-ctx.Done():
				err := fmt.Errorf("site %s: awaiting coalesced fetch: %w", s.cfg.Name, ctx.Err())
				results[w.idx] = d.failed(traceID, s.cfg.Name, w.sq.Query, err)
			}
		}(w)
	}
	wg.Wait()
	return results, batchSpans
}

// fetchOne routes one subrequest to the owner of its target as a single
// message, retrying transient failures within the context's deadline. The
// result carries the remote site's own unreachable-path list and — when
// traceID is set — the remote hop's span (a synthetic error span when the
// fetch failed). CPU is consumed for encode/decode; the network wait
// itself is not billed to this site's capacity.
func (d *dispatcher[T]) fetchOne(ctx context.Context, sq qeg.Subquery, traceID string) fetched[T] {
	s := d.s
	s.Metrics.Subqueries.Inc()
	s.Metrics.SubqueryRPCs.Inc()
	owner, err := s.cfg.DNS.Resolve(sq.Target)
	if err != nil {
		return d.failed(traceID, sq.Target.String(), sq.Query, fmt.Errorf("site %s: resolving %s: %w", s.cfg.Name, sq.Target, err))
	}
	var payload []byte
	s.cpu.Do(func() {
		m := &Message{Kind: d.kind, Query: sq.Query, TraceID: traceID}
		m.StampDeadline(ctx)
		payload = m.Encode()
	})
	respB, err := s.call.Call(ctx, owner, payload)
	if err != nil {
		return d.failed(traceID, owner, sq.Query, fmt.Errorf("site %s: calling %s: %w", s.cfg.Name, owner, err))
	}
	var r fetched[T]
	s.cpu.Do(func() {
		var resp *Message
		if resp, err = DecodeMessage(respB); err != nil {
			return
		}
		if err = resp.AsError(); err != nil {
			return
		}
		r.Unreachable, r.span = resp.Unreachable, resp.Span
		err = d.decode(resp, &r)
	})
	if err != nil {
		return d.failed(traceID, owner, sq.Query, fmt.Errorf("site %s: subanswer from %s: %w", s.cfg.Name, owner, err))
	}
	if d.cache {
		r.Err = s.cacheFetched(r.Frag)
	}
	return r
}

// splitByByteCap partitions one destination group into pieces whose encoded
// entry payloads stay under capBytes, preserving order. Every piece holds at
// least one entry, so a single oversized subquery still ships (the transport
// frame limit, not this cap, is the hard bound).
func splitByByteCap(group []pendingSub, capBytes int) [][]pendingSub {
	var pieces [][]pendingSub
	var cur []pendingSub
	size := 0
	for _, p := range group {
		b, err := json.Marshal(BatchEntry{Query: p.sq.Query})
		if err != nil {
			// A BatchEntry is a plain string struct; marshaling cannot fail.
			panic(fmt.Sprintf("site: encoding batch entry: %v", err))
		}
		n := len(b) + 1 // +1 for the JSON array separator
		if len(cur) > 0 && size+n > capBytes {
			pieces = append(pieces, cur)
			cur, size = nil, 0
		}
		cur = append(cur, p)
		size += n
	}
	if len(cur) > 0 {
		pieces = append(pieces, cur)
	}
	return pieces
}

// sendBatch ships one KindBatch message carrying piece's subrequests to
// owner, decodes the per-entry answers into results, and completes any
// flights those entries lead. It returns the remote hop's batch span (nil
// without tracing); per-entry spans ride as its children, so entry results
// carry no span of their own.
func (d *dispatcher[T]) sendBatch(ctx context.Context, owner string, piece []pendingSub, traceID string, results []fetched[T], finishLeader func(int)) *trace.Span {
	s := d.s
	entries := make([]BatchEntry, len(piece))
	for i, p := range piece {
		entries[i] = BatchEntry{Query: p.sq.Query}
		if d.kind != KindQuery {
			entries[i].Kind = d.kind // raw entries keep the kind-less wire form
		}
	}
	var payload []byte
	s.cpu.Do(func() {
		m := &Message{Kind: KindBatch, TraceID: traceID, Entries: entries}
		m.StampDeadline(ctx)
		payload = m.Encode()
	})
	s.Metrics.Subqueries.Add(int64(len(piece)))
	s.Metrics.SubqueryRPCs.Inc()
	s.Metrics.Batches.Inc()
	s.Metrics.BatchSize.Observe(float64(len(piece)))

	fail := func(err error) *trace.Span {
		for _, p := range piece {
			results[p.idx] = d.failed(traceID, owner, p.sq.Query, err)
			finishLeader(p.idx)
		}
		if traceID == "" {
			return nil
		}
		return &trace.Span{TraceID: traceID, Site: owner, Op: "batch", Error: err.Error()}
	}

	respB, err := s.call.Call(ctx, owner, payload)
	if err != nil {
		return fail(fmt.Errorf("site %s: batch to %s: %w", s.cfg.Name, owner, err))
	}
	var resp *Message
	s.cpu.Do(func() {
		resp, err = DecodeMessage(respB)
	})
	if err == nil {
		err = resp.AsError()
	}
	if err == nil && len(resp.Entries) != len(piece) {
		err = fmt.Errorf("%d answer entries for %d subqueries", len(resp.Entries), len(piece))
	}
	if err != nil {
		return fail(fmt.Errorf("site %s: batch answer from %s: %w", s.cfg.Name, owner, err))
	}

	for i, p := range piece {
		e := &resp.Entries[i]
		r := fetched[T]{Fetched: qeg.Fetched{Unreachable: e.Unreachable}}
		if e.Status != BatchEntryOK {
			r.Err = fmt.Errorf("site %s: batch entry from %s: %s", s.cfg.Name, owner, e.Error)
		} else {
			s.cpu.Do(func() {
				// Decode the entry as the reply a single subrequest would get.
				err = d.decode(&Message{Fragment: e.Fragment, Agg: e.Agg, Truncated: e.Truncated}, &r)
			})
			if err != nil {
				r.Err = fmt.Errorf("site %s: batch entry from %s: %w", s.cfg.Name, owner, err)
			} else if d.cache {
				r.Err = s.cacheFetched(r.Frag)
			}
		}
		results[p.idx] = r
		finishLeader(p.idx)
	}
	return resp.Span
}

// handleBatch answers a KindBatch message: every entry evaluates through the
// normal handler for its kind against one pinned snapshot — a single atomic
// load, so all entries of a batch answer from the same consistent version —
// and the per-entry outcomes return in request order with individual
// statuses. One failed entry does not fail the batch; the sender splices
// the others and marks only the failed target unreachable, exactly as an
// individual subquery failure would.
func (s *Site) handleBatch(ctx context.Context, msg *Message, reqBytes int) *Message {
	t0 := time.Now()
	if len(msg.Entries) == 0 {
		return errorMessage(fmt.Errorf("site %s: empty batch", s.cfg.Name))
	}
	snap := s.state.Load().store
	out := make([]BatchEntry, len(msg.Entries))
	var wg sync.WaitGroup
	for i, e := range msg.Entries {
		wg.Add(1)
		go func(i int, kind, query string) {
			defer wg.Done()
			em := &Message{Kind: KindQuery, Query: query, TraceID: msg.TraceID}
			handle := s.handleQuery
			if kind == KindAggregate {
				em.Kind, handle = KindAggregate, s.handleAggregate
			}
			resp := handle(ctx, em, len(query), snap)
			if err := resp.AsError(); err != nil {
				out[i] = BatchEntry{Kind: kind, Query: query, Status: BatchEntryError, Error: err.Error(),
					Span: errSpan(msg.TraceID, s.cfg.Name, query, err)}
				return
			}
			out[i] = BatchEntry{Kind: kind, Query: query, Status: BatchEntryOK, Fragment: resp.Fragment, Agg: resp.Agg,
				Unreachable: resp.Unreachable, Truncated: resp.Truncated, Span: resp.Span}
		}(i, e.Kind, e.Query)
	}
	wg.Wait()
	res := &Message{Kind: KindBatchResult, Entries: out}
	if msg.TraceID != "" {
		span := &trace.Span{TraceID: msg.TraceID, Site: s.cfg.Name, Op: "batch",
			BytesIn: reqBytes, Subqueries: len(msg.Entries)}
		for i := range out {
			if out[i].Span != nil {
				span.Children = append(span.Children, out[i].Span)
				out[i].Span = nil
			}
		}
		span.DurationUS = time.Since(t0).Microseconds()
		res.Span = span
	}
	return res
}
