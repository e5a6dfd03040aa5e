package fragment

import (
	"fmt"
	"math/rand"
	"testing"

	"irisnet/internal/xmldb"
)

// buildDoc makes a small reference document:
// root -> city{a,b} -> block{1,2} -> space{1,2} with an <available> field.
func buildDoc() *xmldb.Node {
	doc := xmldb.NewElem("usRegion", "NE")
	for _, city := range []string{"a", "b"} {
		c := doc.AddChild(xmldb.NewElem("city", city))
		for _, blk := range []string{"1", "2"} {
			b := c.AddChild(xmldb.NewElem("block", blk))
			for _, sp := range []string{"1", "2"} {
				n := b.AddChild(xmldb.NewElem("parkingSpace", sp))
				av := n.AddChild(xmldb.NewNode("available"))
				av.Text = "yes"
			}
		}
	}
	return doc
}

func buildStore(t *testing.T) (*Store, []xmldb.IDPath) {
	t.Helper()
	stores, owned, err := Partition(buildDoc(), NewAssignment("solo"))
	if err != nil {
		t.Fatal(err)
	}
	return stores["solo"], owned["solo"]
}

// localIDInfoStub builds a local-info fragment: <name id=..> with IDable
// child stubs.
func localIDInfoStub(name, id, childName string, childIDs ...string) *xmldb.Node {
	n := xmldb.NewElem(name, id)
	for _, cid := range childIDs {
		n.AddChild(xmldb.NewElem(childName, cid))
	}
	return n
}

func spath(parts ...string) xmldb.IDPath {
	p := xmldb.IDPath{{Name: "usRegion", ID: "NE"}}
	for i := 0; i+1 < len(parts); i += 2 {
		p = p.Child(parts[i], parts[i+1])
	}
	return p
}

func TestCOWApplyUpdateSharesSiblings(t *testing.T) {
	base, _ := buildStore(t)
	base.Seal()
	target := spath("city", "a", "block", "1", "parkingSpace", "1")

	w := base.Begin()
	if err := w.ApplyUpdate(target, map[string]string{"available": "no"}, map[string]string{"meter": "broken"}, 42); err != nil {
		t.Fatal(err)
	}
	next := w.Commit()

	// The old version is untouched.
	oldN := base.NodeAt(target)
	if got := oldN.ChildNamed("available").Text; got != "yes" {
		t.Fatalf("base mutated: available = %q", got)
	}
	if _, ok := oldN.Attr("meter"); ok {
		t.Fatal("base mutated: meter attribute appeared")
	}
	// The new version has the update, with the timestamp.
	newN := next.NodeAt(target)
	if got := newN.ChildNamed("available").Text; got != "no" {
		t.Fatalf("new version: available = %q", got)
	}
	if ts, ok := Timestamp(newN); !ok || ts != 42 {
		t.Fatalf("new version timestamp = %v, %v", ts, ok)
	}
	// Sibling subtrees are shared structurally (same pointers)...
	sib := spath("city", "a", "block", "1", "parkingSpace", "2")
	if base.NodeAt(sib) != next.NodeAt(sib) {
		t.Fatal("untouched sibling subtree was copied, not shared")
	}
	other := spath("city", "b")
	if base.NodeAt(other) != next.NodeAt(other) {
		t.Fatal("untouched city subtree was copied, not shared")
	}
	// ...while the spine down to the touched node is fresh.
	for i := 1; i <= len(target); i++ {
		p := target[:i]
		if base.NodeAt(p) == next.NodeAt(p) {
			t.Fatalf("spine node %s is shared; must be path-copied", xmldb.IDPath(p))
		}
	}
	// Node-count accounting survived the transaction.
	if got, want := next.Size(), next.Root.CountNodes(); got != want {
		t.Fatalf("Size() = %d, walk = %d", got, want)
	}
	if base.Size() != base.Root.CountNodes() {
		t.Fatal("base count drifted")
	}
}

func TestCOWSequentialWritersKeepBothChanges(t *testing.T) {
	v0, _ := buildStore(t)
	v0.Seal()
	p1 := spath("city", "a", "block", "1", "parkingSpace", "1")
	p2 := spath("city", "b", "block", "2", "parkingSpace", "2")

	w1 := v0.Begin()
	if err := w1.ApplyUpdate(p1, map[string]string{"available": "u1"}, nil, 1); err != nil {
		t.Fatal(err)
	}
	v1 := w1.Commit()
	w2 := v1.Begin()
	if err := w2.ApplyUpdate(p2, map[string]string{"available": "u2"}, nil, 2); err != nil {
		t.Fatal(err)
	}
	v2 := w2.Commit()

	if got := v2.NodeAt(p1).ChildNamed("available").Text; got != "u1" {
		t.Fatalf("writer 2 lost writer 1's update: %q", got)
	}
	if got := v2.NodeAt(p2).ChildNamed("available").Text; got != "u2" {
		t.Fatalf("second update missing: %q", got)
	}
}

func TestCOWMergeMatchesMutableMerge(t *testing.T) {
	base, owned := buildStore(t)
	base.Seal()

	// An incoming answer fragment refreshing one space and introducing a
	// new block stub.
	frag := xmldb.NewElem("usRegion", "NE")
	SetStatus(frag, StatusIDComplete)
	city := frag.AddChild(xmldb.NewElem("city", "a"))
	SetStatus(city, StatusIDComplete)
	blk := city.AddChild(xmldb.NewElem("block", "1"))
	SetStatus(blk, StatusIDComplete)
	sp := blk.AddChild(xmldb.NewElem("parkingSpace", "1"))
	SetStatus(sp, StatusComplete)
	SetTimestamp(sp, 99)
	av := sp.AddChild(xmldb.NewNode("available"))
	av.Text = "merged"
	nb := city.AddChild(xmldb.NewElem("block", "9"))
	SetStatus(nb, StatusIncomplete)

	mutable := base.Clone()
	if err := mutable.MergeFragment(frag); err != nil {
		t.Fatal(err)
	}
	w := base.Begin()
	if err := w.MergeFragment(frag); err != nil {
		t.Fatal(err)
	}
	next := w.Commit()

	if !xmldb.Equal(mutable.Root, next.Root) {
		t.Fatalf("COW merge differs from mutable merge:\n%s\nvs\n%s", next.Root.Indented(), mutable.Root.Indented())
	}
	// Owned data was not clobbered by the merge (parkingSpace 1 is owned in
	// the base store, so the incoming complete copy must not replace it).
	p := spath("city", "a", "block", "1", "parkingSpace", "1")
	if got := next.NodeAt(p).ChildNamed("available").Text; got != "yes" {
		t.Fatalf("merge clobbered owned data: %q", got)
	}
	if got, want := next.Size(), next.Root.CountNodes(); got != want {
		t.Fatalf("Size() = %d, walk = %d", got, want)
	}
	// Invariant check against a reference document extended with the new
	// block stub the merge introduced.
	ref := buildDoc()
	ref.ChildNamed("city").AddChild(xmldb.NewElem("block", "9"))
	if errs := CheckInvariants(next, ref, owned, false); len(errs) > 0 {
		t.Fatalf("invariants after COW merge: %v", errs)
	}

	// Seeded write sequences run once in place and once as one
	// copy-on-write transaction per step must stay byte-identical.
	for seed := int64(1); seed <= 25; seed++ {
		checkWriteModesAgree(t, seed)
	}
}

// checkWriteModesAgree drives a seeded sequence of local-info installs,
// merges (fresh, stale-timestamp and owned-target) and evictions through
// the in-place mode on a private store and through Begin/Commit on sealed
// versions. After every step both trees must serialize identically, and
// their node counts and cached-byte accounts must agree with each other
// and with a fresh walk. Each step's outcome is also checked on its own
// terms, so a defect shared by both modes still fails: the step's expected
// effect (or refusal) on the target node, invariants I1/I2 against the
// document, and owned data equal to the document. No sealed version may
// change afterwards.
func checkWriteModesAgree(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	doc := buildDoc()
	// The site owns city a; the rest of the document is someone else's, so
	// city b arrives only through installs and merges.
	assign := NewAssignment("other")
	assign.Assign(spath("city", "a"), "site")
	stores, ownedBy, err := Partition(doc, assign)
	if err != nil {
		t.Fatal(err)
	}
	owned := ownedBy["site"]
	ownedSet := map[string]bool{}
	for _, q := range owned {
		ownedSet[q.Key()] = true
	}
	refStores, _, err := Partition(doc, NewAssignment("ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref := refStores["ref"]
	var paths []xmldb.IDPath
	ref.Root.Walk(func(n *xmldb.Node) bool {
		if p, ok := xmldb.IDPathOf(n); ok && n.ID() != "" {
			paths = append(paths, p)
		}
		return true
	})

	cur := stores["site"]
	cur.CachedBytes() // seed the incremental account
	inPlace := cur.Clone()
	cur.Seal()
	versions := []*Store{cur}
	printed := []string{cur.Root.String()}

	for step := 0; step < 40; step++ {
		p := paths[r.Intn(len(paths))]
		var op func(w *COW) error
		// check judges the step from the version before it, the version
		// after it and the error it returned.
		var check func(before, after *xmldb.Node, err error) error
		var desc string
		switch r.Intn(4) {
		case 0:
			// Install a local-information unit after its ancestors' local
			// ID information, as a fragment builder does: an owner refresh
			// of the document's own unit on owned targets, a field-edited
			// cached copy elsewhere.
			info := LocalInfo(ref.NodeAt(p))
			st := StatusOwned
			if !ownedSet[p.Key()] {
				st = StatusComplete
				if av := info.ChildNamed("available"); av != nil {
					av.Text = fmt.Sprint("install-", step)
				}
			}
			desc = "install " + p.String()
			op = func(w *COW) error {
				for i := 1; i < len(p); i++ {
					if err := w.installLocalIDInfo(p[:i], LocalIDInfo(ref.NodeAt(p[:i]))); err != nil {
						return err
					}
				}
				return w.installLocalInfo(p, info, st)
			}
			check = func(_, after *xmldb.Node, err error) error {
				if err != nil {
					return err
				}
				if n := after; StatusOf(n) != st || !xmldb.Equal(LocalInfo(n), info) {
					return fmt.Errorf("installed node is %v %s, want %v %s", StatusOf(n), LocalInfo(n), st, info)
				}
				return nil
			}
		case 1:
			// Merge a cached copy with a small random timestamp, so later
			// merges are often stale; targets under city a are owned.
			d, err := BuildDelta(ref, []xmldb.IDPath{p})
			if err != nil {
				t.Fatal(err)
			}
			n := d.NodeAt(p)
			ts := float64(r.Intn(5))
			SetTimestamp(n, ts)
			if av := n.ChildNamed("available"); av != nil {
				av.Text = fmt.Sprint("merge-", step)
			}
			incoming := LocalInfo(n)
			desc = "merge " + p.String()
			op = func(w *COW) error { return w.MergeFragment(d.Root) }
			check = func(before, after *xmldb.Node, err error) error {
				if err != nil {
					return err
				}
				keep := false
				if before != nil {
					switch StatusOf(before) {
					case StatusOwned:
						keep = true
					case StatusComplete:
						old, ok := Timestamp(before)
						keep = ok && ts < old
					}
				}
				if keep {
					if StatusOf(after) != StatusOf(before) || !xmldb.Equal(LocalInfo(after), LocalInfo(before)) {
						return fmt.Errorf("merge at ts %v overwrote %v node %s with %v %s",
							ts, StatusOf(before), LocalInfo(before), StatusOf(after), LocalInfo(after))
					}
					return nil
				}
				if StatusOf(after) != StatusComplete || !xmldb.Equal(LocalInfo(after), incoming) {
					return fmt.Errorf("fresh merge left %v %s, want complete %s", StatusOf(after), LocalInfo(after), incoming)
				}
				return nil
			}
		case 2:
			desc = "evict-local-info " + p.String()
			op = func(w *COW) error { return w.EvictLocalInfo(p) }
			check = func(before, after *xmldb.Node, err error) error {
				if before == nil || StatusOf(before) != StatusComplete {
					if err == nil {
						return fmt.Errorf("evicting a node that is not cached-complete succeeded")
					}
					return nil
				}
				if err != nil {
					return err
				}
				if StatusOf(after) != StatusIDComplete || !bareOfLocalInfo(after) ||
					!xmldb.Equal(LocalIDInfo(after), LocalIDInfo(before)) {
					return fmt.Errorf("evicted node is %v %s, want id-complete %s", StatusOf(after), after, LocalIDInfo(before))
				}
				return nil
			}
		default:
			desc = "evict-subtree " + p.String()
			op = func(w *COW) error { return w.EvictSubtree(p) }
			check = func(before, after *xmldb.Node, err error) error {
				holdsOwned := false
				for _, q := range owned {
					holdsOwned = holdsOwned || p.IsPrefixOf(q)
				}
				if before == nil || len(p) == 1 || holdsOwned {
					if err == nil {
						return fmt.Errorf("evicting the root, a missing node or owned data succeeded")
					}
					return nil
				}
				if err != nil {
					return err
				}
				if StatusOf(after) != StatusIncomplete || len(after.Children) != 0 || !bareOfLocalInfo(after) {
					return fmt.Errorf("evicted subtree is %v %s, want a bare stub", StatusOf(after), after)
				}
				return nil
			}
		}

		prev := cur
		errInPlace := op(inPlace.edit())
		w := cur.Begin()
		errCOW := op(w)
		cur = w.Commit()
		versions = append(versions, cur)
		printed = append(printed, cur.Root.String())

		label := fmt.Sprintf("seed %d step %d (%s)", seed, step, desc)
		if (errInPlace == nil) != (errCOW == nil) {
			t.Fatalf("%s: in place err=%v, copy-on-write err=%v", label, errInPlace, errCOW)
		}
		if !xmldb.Equal(inPlace.Root, cur.Root) || inPlace.Root.String() != cur.Root.String() {
			t.Fatalf("%s: modes differ:\n%s\nvs\n%s", label, inPlace.Root.Indented(), cur.Root.Indented())
		}
		if a, b, walk := inPlace.Size(), cur.Size(), cur.Root.CountNodes(); a != b || b != walk {
			t.Fatalf("%s: Size in place %d, copy-on-write %d, walk %d", label, a, b, walk)
		}
		if a, b, walk := inPlace.CachedBytes(), cur.CachedBytes(), cachedBytesIn(cur.Root); a != b || b != walk {
			t.Fatalf("%s: CachedBytes in place %d, copy-on-write %d, walk %d", label, a, b, walk)
		}
		if err := check(prev.NodeAt(p), cur.NodeAt(p), errCOW); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if errs := CheckInvariants(cur, doc, owned, false); len(errs) > 0 {
			t.Fatalf("%s: invariants: %v", label, errs)
		}
		for _, q := range owned {
			if got, want := LocalInfo(cur.NodeAt(q)), LocalInfo(xmldb.FindByIDPath(doc, q)); !xmldb.Equal(got, want) {
				t.Fatalf("%s: owned node %s is %s, document has %s", label, q, got, want)
			}
		}
	}
	for i, v := range versions {
		if got := v.Root.String(); got != printed[i] {
			t.Fatalf("seed %d: sealed version %d changed after later transactions", seed, i)
		}
	}
}

// bareOfLocalInfo reports whether n keeps nothing of a local-information
// unit: no text, no attribute but its id and status, no non-IDable child.
func bareOfLocalInfo(n *xmldb.Node) bool {
	for _, a := range n.Attrs {
		if a.Name != xmldb.AttrID && a.Name != xmldb.AttrStatus {
			return false
		}
	}
	for _, c := range n.Children {
		if c.ID() == "" {
			return false
		}
	}
	return n.Text == ""
}

func TestCOWMergeValidationLeavesVersionClean(t *testing.T) {
	base, _ := buildStore(t)
	base.Seal()
	bad := xmldb.NewElem("usRegion", "NE")
	SetStatus(bad, StatusIncomplete)
	bad.AddChild(xmldb.NewElem("city", "a")) // incomplete node with children: C1/C2 violation

	w := base.Begin()
	if err := w.MergeFragment(bad); err == nil {
		t.Fatal("invalid fragment accepted")
	}
	next := w.Commit()
	if !xmldb.Equal(base.Root, next.Root) {
		t.Fatal("rejected merge dirtied the new version")
	}
}

func TestCOWEvictions(t *testing.T) {
	base, _ := buildStore(t)
	// Downgrade one space to complete (cached) so it is evictable.
	p := spath("city", "b", "block", "1", "parkingSpace", "2")
	SetStatus(base.NodeAt(p), StatusComplete)
	base.Seal()

	w := base.Begin()
	if err := w.EvictLocalInfo(p); err != nil {
		t.Fatal(err)
	}
	next := w.Commit()
	if got := StatusOf(next.NodeAt(p)); got != StatusIDComplete {
		t.Fatalf("evicted node status = %v", got)
	}
	if StatusOf(base.NodeAt(p)) != StatusComplete {
		t.Fatal("eviction leaked into the base version")
	}
	if got, want := next.Size(), next.Root.CountNodes(); got != want {
		t.Fatalf("Size() = %d, walk = %d", got, want)
	}

	// Owned subtrees cannot be evicted.
	w2 := next.Begin()
	if err := w2.EvictSubtree(spath("city", "a")); err == nil {
		t.Fatal("evicted a subtree containing owned data")
	}
	// A cached-only node can be dropped wholesale.
	base2 := NewStore("usRegion", "NE")
	if err := base2.InstallLocalIDInfo(spath(), localIDInfoStub("usRegion", "NE", "city", "c")); err != nil {
		t.Fatal(err)
	}
	info := localIDInfoStub("city", "c", "block", "7")
	if err := base2.InstallLocalInfo(spath("city", "c"), info, StatusComplete); err != nil {
		t.Fatal(err)
	}
	base2.Seal()
	w3 := base2.Begin()
	if err := w3.EvictSubtree(spath("city", "c")); err != nil {
		t.Fatal(err)
	}
	v3 := w3.Commit()
	n := v3.NodeAt(spath("city", "c"))
	if StatusOf(n) != StatusIncomplete || len(n.Children) != 0 {
		t.Fatalf("evicted subtree not a bare stub: %s", n)
	}
	if got, want := v3.Size(), v3.Root.CountNodes(); got != want {
		t.Fatalf("Size() = %d, walk = %d", got, want)
	}
}

func TestSealedStorePanicsOnMutation(t *testing.T) {
	s, _ := buildStore(t)
	s.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a sealed store did not panic")
		}
	}()
	_ = s.MergeFragment(xmldb.NewElem("usRegion", "NE"))
}

func TestSizeAccountingAcrossMutators(t *testing.T) {
	s := NewStore("usRegion", "NE")
	check := func(step string) {
		t.Helper()
		if got, want := s.Size(), s.Root.CountNodes(); got != want {
			t.Fatalf("%s: Size() = %d, walk = %d", step, got, want)
		}
	}
	check("new")
	if err := s.InstallLocalIDInfo(spath(), localIDInfoStub("usRegion", "NE", "city", "a", "b")); err != nil {
		t.Fatal(err)
	}
	check("install-root-id-info")
	info := localIDInfoStub("city", "a", "block", "1")
	extra := info.AddChild(xmldb.NewNode("note"))
	extra.AddChild(xmldb.NewNode("deep"))
	if err := s.InstallLocalInfo(spath("city", "a"), info, StatusComplete); err != nil {
		t.Fatal(err)
	}
	check("install-local-info")
	// Reinstall with fewer children: the note subtree and block stub go away.
	if err := s.InstallLocalInfo(spath("city", "a"), localIDInfoStub("city", "a", "block", "2"), StatusComplete); err != nil {
		t.Fatal(err)
	}
	check("reinstall-local-info")
	if err := s.MarkUnreachable(spath("city", "b", "block", "3")); err != nil {
		t.Fatal(err)
	}
	check("mark-unreachable")
	w := s.Begin()
	if err := w.EvictLocalInfo(spath("city", "a")); err != nil {
		t.Fatal(err)
	}
	s = w.Commit()
	check("evict-local-info")
	w = s.Begin()
	if err := w.EvictSubtree(spath("city", "a")); err != nil {
		t.Fatal(err)
	}
	s = w.Commit()
	check("evict-subtree")
}

func TestCloneCarriesCount(t *testing.T) {
	s, _ := buildStore(t)
	want := s.Root.CountNodes()
	if got := s.Clone().Size(); got != want {
		t.Fatalf("clone Size() = %d, want %d", got, want)
	}
	// A literal store (count unknown) lazily computes and caches.
	lit := &Store{Root: s.Root.Clone()}
	if got := lit.Size(); got != want {
		t.Fatalf("literal Size() = %d, want %d", got, want)
	}
}

func TestCOWStressManyVersions(t *testing.T) {
	v, vOwned := buildStore(t)
	v.Seal()
	targets := []xmldb.IDPath{
		spath("city", "a", "block", "1", "parkingSpace", "1"),
		spath("city", "a", "block", "2", "parkingSpace", "2"),
		spath("city", "b", "block", "1", "parkingSpace", "2"),
	}
	for i := 0; i < 200; i++ {
		w := v.Begin()
		p := targets[i%len(targets)]
		if err := w.ApplyUpdate(p, map[string]string{"available": fmt.Sprint(i)}, nil, float64(i)); err != nil {
			t.Fatal(err)
		}
		v = w.Commit()
	}
	// The final version holds the last value written to each target.
	last := map[string]int{}
	for i := 0; i < 200; i++ {
		last[targets[i%len(targets)].Key()] = i
	}
	for _, p := range targets {
		if got := v.NodeAt(p).ChildNamed("available").Text; got != fmt.Sprint(last[p.Key()]) {
			t.Fatalf("%s = %q, want %d", p, got, last[p.Key()])
		}
	}
	if got, want := v.Size(), v.Root.CountNodes(); got != want {
		t.Fatalf("Size() = %d, walk = %d", got, want)
	}
	if errs := CheckInvariants(v, buildDoc(), vOwned, false); len(errs) > 0 {
		t.Fatalf("invariants after 200 versions: %v", errs)
	}
}
