package qeg

import (
	"context"
	"fmt"
	"sort"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
	"irisnet/internal/xpatheval"
)

// Fetched is the outcome of one subquery fetch.
type Fetched struct {
	// Frag is the remote answer fragment, rooted at the document root with
	// status tags; unused when Err is set.
	Frag *xmldb.Node
	// Unreachable lists the ID paths the remote answer itself could not
	// cover, so partial answers compose across hops.
	Unreachable []string
	// Bytes is the fragment's wire size (freshness ledger).
	Bytes int
	// Err marks a failed fetch: the target joins the answer as an
	// unreachable placeholder instead of failing the query.
	Err error
}

// Fetcher is the rest of the system as one gather loop sees it. The site
// layer implements it by routing subqueries to their owners; tests
// implement it by recursing into other stores.
type Fetcher interface {
	// Fetch resolves one round's fresh subqueries and returns one Fetched
	// per subquery, index-aligned. The context carries the query's
	// remaining deadline; fetches must give up once it expires.
	Fetch(ctx context.Context, sqs []Subquery) []Fetched
	// Evaluated runs after every local evaluation, before that round's
	// subqueries are fetched.
	Evaluated(res *Result)
}

// maxGatherRounds bounds the fetch rounds of one nested plan's
// evaluate/fetch fixpoint; in practice two or three rounds suffice, the
// bound only guards against pathological ownership configurations.
const maxGatherRounds = 64

// TruncatedError reports a gather loop that hit maxGatherRounds before the
// evaluate/fetch fixpoint converged. Gather returns it alongside the
// partial answer, whose Truncated flag is set and whose still-pending
// subtrees are marked unreachable.
type TruncatedError struct {
	// Query is the offending query.
	Query string
	// Rounds is the number of fetch rounds that ran.
	Rounds int
	// Pending are the subqueries the truncated loop never issued.
	Pending []Subquery
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("qeg: gather truncated: %q did not converge after %d rounds (%d subqueries pending)",
		e.Query, e.Rounds, len(e.Pending))
}

// Gathered is the outcome of one gather loop.
type Gathered struct {
	// Answer is the assembled C1/C2 answer fragment.
	Answer *fragment.Store
	// Unreachable lists, sorted, the ID paths of subtrees the answer could
	// not cover: failed fetches, downstream partial answers, and the
	// pending targets of a truncated loop.
	Unreachable []string
	// Truncated is set when a nested plan hit the round bound.
	Truncated bool
	// Fanout counts the subqueries fetched; zero means the answer came
	// from the local store alone.
	Fanout int
	// FetchedBytes sums the wire size of successfully fetched fragments.
	FetchedBytes int64
	// EvalTime is the time spent in local evaluation, Evaluated hooks
	// included.
	EvalTime time.Duration
}

// Gather executes the full query-evaluate-gather loop for a compiled query
// (one plan per union branch) against one store snapshot: evaluate
// locally, fetch the missing parts via subqueries, and splice everything
// into one C1/C2 answer fragment. The store is never mutated; caching is
// the fetcher's decision. A failed fetch does not fail the query — its
// target is marked unreachable (partial answer). A nested plan that does
// not converge within maxGatherRounds returns the partial answer together
// with a *TruncatedError.
//
// opts.Prov, when set, is the answer's staleness ledger: it receives the
// provenance of exactly the evaluation rounds whose local result merged
// into the answer (intermediate nested rounds re-read the same units).
func Gather(ctx context.Context, store *fragment.Store, plans []*Plan, f Fetcher, opts Options) (Gathered, error) {
	g := gatherer{
		ctx:    ctx,
		fetch:  f,
		opts:   opts,
		ledger: opts.Prov,
		ans:    fragment.NewStore(store.Root.Name, store.Root.ID()),
	}
	var trunc *TruncatedError
	for _, plan := range plans {
		t, err := g.gatherPlan(store, plan)
		if err != nil {
			return Gathered{}, err
		}
		if t != nil && trunc == nil {
			trunc = t
		}
	}
	g.out.Answer = g.ans
	g.out.Truncated = trunc != nil
	if len(g.unreachable) > 0 {
		g.out.Unreachable = make([]string, 0, len(g.unreachable))
		for k := range g.unreachable {
			g.out.Unreachable = append(g.out.Unreachable, k)
		}
		sort.Strings(g.out.Unreachable)
	}
	if trunc != nil {
		return g.out, trunc
	}
	return g.out, nil
}

// gatherer is the state of one Gather call.
type gatherer struct {
	ctx         context.Context
	fetch       Fetcher
	opts        Options
	ledger      *Provenance // the answer's ledger (Gather's opts.Prov)
	round       *Provenance // the latest nested round's own ledger
	ans         *fragment.Store
	seen        map[string]bool
	unreachable map[string]bool
	out         Gathered // the counters; Gather fills in the rest
}

// gatherPlan runs one plan to its fixpoint. Depth-0 plans finish after one
// fetch round: every subanswer is complete for its scope by induction.
// Nested plans (Section 4) must assemble the subtree at the gather point
// before their predicates can be evaluated, so they iterate evaluate ->
// fetch -> merge on a deep working copy of the snapshot (structural
// sharing does not preserve the parent axes they may navigate) until no
// new subqueries appear.
func (g *gatherer) gatherPlan(store *fragment.Store, plan *Plan) (*TruncatedError, error) {
	var work *fragment.Store
	if plan.NestedIdx >= 0 {
		work = store.Clone()
		store = work
	}
	for round := 0; ; round++ {
		res, err := g.evaluate(store, plan)
		if err != nil {
			return nil, err
		}
		var fresh []Subquery
		for _, sq := range res.Subqueries {
			if k := sq.Key(); !g.seen[k] {
				if g.seen == nil {
					g.seen = map[string]bool{}
				}
				g.seen[k] = true
				fresh = append(fresh, sq)
			}
		}
		if len(fresh) == 0 {
			return nil, g.mergeLocal(res)
		}
		if round == maxGatherRounds {
			// Out of rounds with work still pending: keep everything
			// gathered so far and mark the pending subtrees unreachable
			// instead of discarding the work.
			if err := g.mergeLocal(res); err != nil {
				return nil, err
			}
			for _, sq := range fresh {
				if err := g.markUnreachable(sq.Target); err != nil {
					return nil, err
				}
			}
			return &TruncatedError{Query: plan.Source, Rounds: round, Pending: fresh}, nil
		}
		g.out.Fanout += len(fresh)
		for i, r := range g.fetch.Fetch(g.ctx, fresh) {
			if err := g.splice(work, fresh[i], r); err != nil {
				return nil, err
			}
		}
		if work == nil {
			return nil, g.mergeLocal(res)
		}
	}
}

// evaluate runs one local evaluation. A depth-0 round always merges into
// the answer, so it records straight into the answer's ledger; a nested
// round gets its own ledger, which joins the answer's only if the round's
// result merges (mergeLocal).
func (g *gatherer) evaluate(store *fragment.Store, plan *Plan) (*Result, error) {
	t0 := time.Now()
	opts := g.opts
	g.round = nil
	if g.ledger != nil {
		opts.Prov = g.ledger
		if plan.NestedIdx >= 0 {
			g.round = NewProvenance(g.ledger.Now())
			opts.Prov = g.round
		}
	}
	res, err := Evaluate(store, plan, opts)
	if err == nil {
		g.fetch.Evaluated(res)
	}
	g.out.EvalTime += time.Since(t0)
	return res, err
}

// mergeLocal merges an evaluation round's local result into the answer,
// along with its ledger.
func (g *gatherer) mergeLocal(res *Result) error {
	if err := g.ans.MergeFragment(res.Fragment); err != nil {
		return fmt.Errorf("qeg: merging local result: %w", err)
	}
	if g.round != nil {
		g.ledger.Merge(g.round)
	}
	return nil
}

// splice merges one fetched subanswer into the answer (and the nested
// working copy, when there is one). A failed fetch becomes an unreachable
// placeholder; the seen-set guarantees it is not reissued. Unreachable
// markers carry no data, so merging drops them: the downstream site's
// partial-answer list is re-applied here.
func (g *gatherer) splice(work *fragment.Store, sq Subquery, r Fetched) error {
	if r.Err != nil {
		return g.markUnreachable(sq.Target)
	}
	g.out.FetchedBytes += int64(r.Bytes)
	if work != nil {
		if err := work.MergeFragment(r.Frag); err != nil {
			return fmt.Errorf("qeg: merging nested subanswer for %s: %w", sq.Target, err)
		}
	}
	if err := g.ans.MergeFragment(r.Frag); err != nil {
		return fmt.Errorf("qeg: splicing subanswer for %s: %w", sq.Target, err)
	}
	for _, us := range r.Unreachable {
		if p, err := xmldb.ParseIDPath(us); err == nil {
			if err := g.markUnreachable(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *gatherer) markUnreachable(p xmldb.IDPath) error {
	if err := g.ans.MarkUnreachable(p); err != nil {
		return fmt.Errorf("qeg: marking %s unreachable: %w", p, err)
	}
	if g.unreachable == nil {
		g.unreachable = map[string]bool{}
	}
	g.unreachable[p.Key()] = true
	return nil
}

// LCAPath extracts the ID path of a query's lowest common ancestor from
// the query text alone — the self-starting property of Section 3.4: the
// longest leading /name[@id='x'] sequence (for a union, the longest common
// such prefix across branches). No schema or global state is consulted.
func LCAPath(query string) (xmldb.IDPath, error) {
	expr, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	paths, err := unionBranches(expr)
	if err != nil {
		return nil, fmt.Errorf("qeg: %q: %w", query, err)
	}
	var lca xmldb.IDPath
	for i, p := range paths {
		prefix, _ := xpath.IDPrefix(p)
		if len(prefix) == 0 {
			return nil, fmt.Errorf("qeg: query %q has no routable ID prefix (it must start at the document root, e.g. /usRegion[@id='NE']/...)", query)
		}
		if i == 0 {
			lca = prefix
			continue
		}
		lca = commonIDPrefix(lca, prefix)
		if len(lca) == 0 {
			return nil, fmt.Errorf("qeg: union branches of %q share no common root", query)
		}
	}
	return lca, nil
}

func commonIDPrefix(a, b xmldb.IDPath) xmldb.IDPath {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i].Clone()
}

// ExtractOptions tunes ExtractAnswerFull.
type ExtractOptions struct {
	// ReportUnreachable includes selected nodes that are unreachable
	// placeholders in the returned node set, with their status="unreachable"
	// attribute retained so callers can tell data from markers. By default
	// such stubs are skipped like any other placeholder.
	ReportUnreachable bool
}

// ExtractAnswer runs the original user query against an assembled answer
// fragment and returns clean copies of the selected subtrees (status tags
// stripped). Consistency predicates are removed first: the fragment already
// reflects the freshness decisions QEG made, and the paper's owner-side
// semantics ("return the freshest data even if older than the tolerance")
// must not be re-filtered away. Unreachable placeholders (partial answers)
// are skipped; use ExtractAnswerFull to see them.
func ExtractAnswer(fragRoot *xmldb.Node, query string, now func() float64) ([]*xmldb.Node, error) {
	nodes, _, err := ExtractAnswerFull(fragRoot, query, now, ExtractOptions{})
	return nodes, err
}

// ExtractAnswerFull is ExtractAnswer plus partial-answer reporting: the
// second return value lists the ID paths of every unreachable-marked
// subtree in the fragment, and opts controls whether unreachable stubs
// matching the selection are surfaced as nodes.
func ExtractAnswerFull(fragRoot *xmldb.Node, query string, now func() float64, opts ExtractOptions) ([]*xmldb.Node, []string, error) {
	expr, err := xpath.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	expr = xpath.StripConsistency(expr)
	ctx := &xpatheval.Context{Root: fragRoot, Now: now}
	ns, err := xpatheval.Select(expr, ctx, fragRoot)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*xmldb.Node, 0, len(ns))
	for _, n := range ns {
		if xpatheval.IsAttrNode(n) {
			if !fragment.EffectiveStatus(n.Parent).HasLocalInfo() {
				continue
			}
			out = append(out, n.Clone())
			continue
		}
		if opts.ReportUnreachable && fragment.StatusOf(n) == fragment.StatusUnreachable {
			out = append(out, n.Clone())
			continue
		}
		// Placeholder stubs (incomplete/id-complete/unreachable) are
		// bookkeeping, not data: a predicate that vacuously passes on a stub
		// (e.g. a not() over missing children) must not surface the stub as
		// an answer. Genuine answer nodes always carry full local
		// information in the assembled fragment, by construction of the
		// gather phase.
		if !fragment.EffectiveStatus(n).HasLocalInfo() {
			continue
		}
		out = append(out, fragment.StripInternal(n))
	}
	var unreachable []string
	for _, p := range (&fragment.Store{Root: fragRoot}).UnreachablePaths() {
		unreachable = append(unreachable, p.String())
	}
	return out, unreachable, nil
}
