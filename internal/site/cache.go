package site

import (
	"sort"
	"sync"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
)

// Bounded query-driven caching (DESIGN.md §11). When Config.CacheBudgetBytes
// is set on a caching site, the site tracks per-unit residency metadata —
// when each cached local-information unit was fetched and last used by a
// query — and evicts the coldest units through the copy-on-write
// fragment.COW.EvictLocalInfo transaction whenever the accounted cache
// bytes (fragment.Store.CachedBytes) exceed the budget. Eviction runs in
// the same COW transaction as the cache merge that caused the overflow, so
// every published version already respects the budget (up to units pinned
// by in-flight coalesced fetches); a low-frequency background pressure
// loop mops up growth from paths that bypass the merge hook (ownership
// migrations downgrading owned data to cached copies).
//
// Eviction always uses EvictLocalInfo — complete -> id-complete — which
// preserves the cache conditions C1/C2 and the invariants I1/I2 by
// construction: owned units are never candidates (EvictLocalInfo refuses
// them), and a downgraded node keeps its ID and its IDable child stubs, so
// ancestors of surviving data always retain their local ID information.

// pressureInterval is how often the background loop re-checks the budget.
const pressureInterval = 250 * time.Millisecond

// unitMeta is the residency record of one cached local-information unit.
type unitMeta struct {
	lastAccess float64 // site clock seconds; query touched the unit
	fetchedAt  float64 // site clock seconds; unit (re-)entered the cache
}

// cacheManager holds the eviction policy's state: per-unit recency metadata
// keyed by ID-path key, plus the pin table of units whose freshly fetched
// fragment is being merged. It is shared by query goroutines (touch), the
// dispatch layer (pin/unpin) and writers holding wmu (eviction), so it has
// its own small mutex; none of the critical sections block on I/O.
type cacheManager struct {
	mu    sync.Mutex
	units map[string]*unitMeta
	pins  map[string]int // target ID-path key -> active flight count
}

func newCacheManager() *cacheManager {
	return &cacheManager{units: map[string]*unitMeta{}, pins: map[string]int{}}
}

// pin marks a single unit as unevictable until the matching unpin. A status
// of complete covers only the node's own local information — not its
// descendants — so protecting exactly the pinned unit is sufficient; other
// units in the same subtree stay independently evictable.
func (c *cacheManager) pin(key string) {
	c.mu.Lock()
	c.pins[key]++
	c.mu.Unlock()
}

func (c *cacheManager) unpin(key string) {
	c.mu.Lock()
	c.unpinLocked(key)
	c.mu.Unlock()
}

func (c *cacheManager) unpinLocked(key string) {
	if c.pins[key] <= 1 {
		delete(c.pins, key)
	} else {
		c.pins[key]--
	}
}

// pinFragment pins exactly the units a fetched fragment carries, for the
// duration of the merge transaction installing them: the budget eviction
// running inside that transaction must not cancel the fetch it is
// committing. Pinning the precise unit set — rather than the fetch target's
// whole prefix for the flight's lifetime — keeps the rest of the cache
// evictable, so a published version can exceed the budget only by the one
// fragment being installed.
func (c *cacheManager) pinFragment(frag *xmldb.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	walkCompleteUnits(frag, func(key string) { c.pins[key]++ })
}

func (c *cacheManager) unpinFragment(frag *xmldb.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	walkCompleteUnits(frag, func(key string) { c.unpinLocked(key) })
}

// pinnedLocked reports whether the unit itself is pinned.
func (c *cacheManager) pinnedLocked(key string) bool {
	return c.pins[key] > 0
}

// walkCompleteUnits calls fn with the ID-path key of every complete unit in
// the fragment.
func walkCompleteUnits(root *xmldb.Node, fn func(key string)) {
	root.Walk(func(n *xmldb.Node) bool {
		if fragment.StatusOf(n) == fragment.StatusComplete {
			if p, ok := xmldb.IDPathOf(n); ok {
				fn(p.Key())
			}
		}
		return true
	})
}

// noteFetched records the units a cache merge just (re-)installed: fresh
// fetch and access stamps, so newly arrived data is the warmest and is
// evicted last.
func (c *cacheManager) noteFetched(frag *xmldb.Node, now float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	walkCompleteUnits(frag, func(key string) {
		m := c.units[key]
		if m == nil {
			m = &unitMeta{}
			c.units[key] = m
		}
		m.fetchedAt = now
		m.lastAccess = now
	})
}

// touchAnswer refreshes the access time of every tracked unit that appears
// in a query's answer fragment. Units the policy does not know about (owned
// data serialized into the answer) are left alone — they are not evictable.
func (c *cacheManager) touchAnswer(root *xmldb.Node, now float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	walkCompleteUnits(root, func(key string) {
		if m, ok := c.units[key]; ok {
			m.lastAccess = now
		}
	})
}

// seedFrom adopts cached units present in the store but missing from the
// metadata (complete copies left behind by an ownership migration, or units
// cached before a restart of the policy) as maximally cold entries. It
// reports whether anything was added.
func (c *cacheManager) seedFrom(root *xmldb.Node) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := false
	walkCompleteUnits(root, func(key string) {
		if _, ok := c.units[key]; !ok {
			c.units[key] = &unitMeta{}
			added = true
		}
	})
	return added
}

// forget drops a unit's metadata (evicted, or discovered to be un-evictable).
func (c *cacheManager) forget(key string) {
	c.mu.Lock()
	delete(c.units, key)
	c.mu.Unlock()
}

// candidates returns the tracked, unpinned unit keys sorted coldest first:
// by last access, then by fetch time, then by key for determinism.
func (c *cacheManager) candidates() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.units))
	for k := range c.units {
		if !c.pinnedLocked(k) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := c.units[keys[i]], c.units[keys[j]]
		if a.lastAccess != b.lastAccess {
			return a.lastAccess < b.lastAccess
		}
		if a.fetchedAt != b.fetchedAt {
			return a.fetchedAt < b.fetchedAt
		}
		return keys[i] < keys[j]
	})
	return keys
}

// evictToBudgetLocked trims the in-progress version down to the byte budget
// by evicting cold units, coldest first. The caller holds wmu and commits /
// publishes w afterwards, so merge and eviction land atomically in one
// version. Pinned units (in-flight coalesced fetches mid-merge) are
// skipped; the published total can therefore exceed the budget only by
// data a flight is actively installing, and by at most one unit when a
// single unit alone is larger than the whole budget. Returns the keys of
// the evicted units (callers on durable sites log them with the commit).
func (s *Site) evictToBudgetLocked(w *fragment.COW) []string {
	budget := s.cfg.CacheBudgetBytes
	if budget <= 0 || s.cache == nil {
		return nil
	}
	var evicted []string
	for pass := 0; pass < 2; pass++ {
		if int64(w.CachedBytes()) <= budget {
			break
		}
		for _, key := range s.cache.candidates() {
			if int64(w.CachedBytes()) <= budget {
				break
			}
			p, err := xmldb.ParseIDPath(key)
			if err != nil {
				s.cache.forget(key)
				continue
			}
			// EvictLocalInfo refuses owned and already-downgraded nodes;
			// either way the metadata entry is stale, so drop it.
			if err := w.EvictLocalInfo(p); err != nil {
				s.cache.forget(key)
				continue
			}
			s.cache.forget(key)
			s.Metrics.Evictions.Inc()
			evicted = append(evicted, key)
		}
		// Still over budget after draining the candidate list: the store
		// holds cached units the policy never saw through a merge (e.g.
		// complete copies created by delegating ownership away). Adopt them
		// as cold entries and run one more pass.
		if pass == 0 && int64(w.CachedBytes()) > budget {
			if !s.cache.seedFrom(s.state.Load().store.Root) {
				break
			}
		}
	}
	return evicted
}

// relieveCachePressure is the background loop body: when the published
// version is over budget — growth from a path without a merge-time eviction
// hook — build, trim and publish a new version.
func (s *Site) relieveCachePressure() {
	if s.cache == nil || s.cfg.CacheBudgetBytes <= 0 {
		return
	}
	if int64(s.state.Load().store.CachedBytes()) <= s.cfg.CacheBudgetBytes {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	st := s.state.Load()
	w := st.store.Begin()
	if evicted := s.evictToBudgetLocked(w); len(evicted) > 0 {
		s.walAppend(walOp{Op: opEvict, Paths: evicted})
		s.publishLocked(&siteState{store: w.Commit(), owned: st.owned, migrated: st.migrated})
	}
}

// pressureLoop runs relieveCachePressure until the site stops.
func (s *Site) pressureLoop() {
	defer s.loopWG.Done()
	t := time.NewTicker(pressureInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopPressure:
			return
		case <-t.C:
			s.relieveCachePressure()
		}
	}
}

// CacheBytes returns the accounted size of the site's cached (non-owned)
// data in the currently published version.
func (s *Site) CacheBytes() int {
	return s.state.Load().store.CachedBytes()
}
