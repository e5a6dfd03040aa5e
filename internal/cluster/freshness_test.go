package cluster

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"

	"irisnet/internal/trace"
	"irisnet/internal/xmldb"
)

// TestQueryFreshnessEndToEnd: a cold query through the hierarchy ledgers
// owned and fetched provenance; repeating it against the warmed entry
// cache ledgers cached units; and the per-site freshness instruments
// advance. With the ledger disabled no span carries a report.
func TestQueryFreshnessEndToEnd(t *testing.T) {
	c, err := New(Hierarchical, Config{Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fe := c.NewFrontend()
	fe.ForceEntry = RootSiteName
	q := c.DB.BlockQuery(0, 0, 0)

	ans, span, err := fe.QueryTrace(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Nodes) == 0 {
		t.Fatal("cold query returned no data")
	}
	cold := trace.AggregateFreshness(span)
	if cold == nil {
		t.Fatal("cold query carried no freshness report")
	}
	if cold.OwnedUnits == 0 || cold.OwnedBytes <= 0 {
		t.Fatalf("owner's contribution not ledgered: %+v", cold)
	}
	if cold.FetchedBytes <= 0 {
		t.Fatalf("root fetched the block remotely but FetchedBytes=%d", cold.FetchedBytes)
	}

	_, span2, err := fe.QueryTrace(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	warm := trace.AggregateFreshness(span2)
	if warm == nil {
		t.Fatal("warm query carried no freshness report")
	}
	if warm.CachedUnits == 0 || warm.CachedBytes <= 0 {
		t.Fatalf("cache hit not ledgered: %+v", warm)
	}

	root := c.Sites[RootSiteName]
	if n := root.Metrics.AnswerStaleness.Count(); n < 2 {
		t.Fatalf("answer staleness histogram observed %d answers, want >= 2", n)
	}
	if root.Metrics.AnswerCacheBytes.Value() <= 0 {
		t.Fatal("answer cache-bytes counter did not advance on the warm query")
	}
	if root.Metrics.AnswerFetchedBytes.Value() <= 0 {
		t.Fatal("answer fetched-bytes counter did not advance on the cold query")
	}

	off, err := New(Hierarchical, Config{Caching: true, DisableFreshnessLedger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	feOff := off.NewFrontend()
	feOff.ForceEntry = RootSiteName
	_, spanOff, err := feOff.QueryTrace(context.Background(), off.DB.BlockQuery(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	spanOff.Walk(func(sp *trace.Span) {
		if sp.Freshness != nil {
			t.Errorf("ledger disabled but span at %s carries a report", sp.Site)
		}
	})
	if fr := trace.AggregateFreshness(spanOff); fr != nil {
		t.Fatalf("ledger disabled but aggregate is %+v", fr)
	}
}

// TestStaleCachedCopyIsRefetched: a cached copy that fails its freshness
// predicate must be re-fetched from the owner even when its stale data
// would also fail a data predicate. The root caches a block while space 1
// is unavailable; the space then becomes available, and once the copy is
// older than the tolerance the root's answer must equal the owner's.
func TestStaleCachedCopyIsRefetched(t *testing.T) {
	var mu sync.Mutex
	now := 1000.0
	clock := func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	c, err := New(Hierarchical, Config{Caching: true, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root := c.NewFrontend()
	root.ForceEntry = RootSiteName
	owner := c.NewFrontend()
	q := c.DB.BlockQuery(0, 0, 0) + "[@ts >= now() - 5]"

	space := c.DB.SpacePaths[0]
	if !c.DB.BlockPaths[0].IsPrefixOf(space) {
		t.Fatalf("space %s is not in the queried block %s", space, c.DB.BlockPaths[0])
	}
	if err := owner.Update(space, map[string]string{"available": "no"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Query(q); err != nil { // the root caches the block
		t.Fatal(err)
	}
	if err := owner.Update(space, map[string]string{"available": "yes"}, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now += 10
	mu.Unlock()

	want, err := owner.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := root.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if canon(got) != canon(want) {
		t.Fatalf("root answered from a stale cached copy: %d nodes, owner has %d\nroot:  %s\nowner: %s",
			len(got), len(want), canon(got), canon(want))
	}
}

// canon renders an answer node set order-independently.
func canon(ns []*xmldb.Node) string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Canonical()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
