package service

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

func TestWatchQueryDeliversChanges(t *testing.T) {
	fe, db, _, _, _ := deploy(t)
	target := db.SpacePaths[0]
	q := target.Parent().String() + "/parkingSpace[available='watch-me']"

	w, err := fe.WatchQuery(q, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	// Make the space match the standing query.
	if err := fe.Update(target, map[string]string{"available": "watch-me"}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case ch := <-w.C:
		if len(ch.Added) != 1 || len(ch.Removed) != 0 {
			t.Fatalf("first change = %+v", ch)
		}
		if !strings.Contains(ch.Added[0], "watch-me") {
			t.Fatalf("added = %v", ch.Added)
		}
		if ch.Seq != 1 {
			t.Fatalf("seq = %d", ch.Seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no change delivered after update")
	}

	// Un-match it: the watcher sees the removal.
	if err := fe.Update(target, map[string]string{"available": "no"}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case ch := <-w.C:
		if len(ch.Removed) != 1 || len(ch.Answer) != 0 {
			t.Fatalf("second change = %+v", ch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no removal delivered")
	}
	if w.Err() != nil {
		t.Fatalf("watch error: %v", w.Err())
	}
}

func TestWatchQueryStop(t *testing.T) {
	fe, db, _, _, _ := deploy(t)
	q := db.BlockQuery(0, 0, 0)
	w, err := fe.WatchQuery(q, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	w.Stop()
	// The channel closes after Stop.
	for range w.C {
	}
	// Stop is idempotent.
	w.Stop()
}

func TestWatchQueryValidation(t *testing.T) {
	fe, db, _, _, _ := deploy(t)
	if _, err := fe.WatchQuery("][", time.Millisecond); err == nil {
		t.Fatal("bad query should be rejected up front")
	}
	if _, err := fe.WatchQuery(db.BlockQuery(0, 0, 0), 0); err == nil {
		t.Fatal("non-positive interval should be rejected")
	}
}

func TestWatchQueryTerminatesOnError(t *testing.T) {
	fe, db, sites, _, _ := deploy(t)
	q := db.BlockQuery(0, 0, 0)
	w, err := fe.WatchQuery(q, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the deployment: the next poll fails and the watch terminates.
	for _, s := range sites {
		s.Stop()
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-w.C:
			if !ok {
				if w.Err() == nil {
					t.Fatal("terminated watch should report its error")
				}
				return
			}
		case <-deadline:
			t.Fatal("watch did not terminate after site failure")
		}
	}
}

// drainChanges reads every change that arrives until the channel stays
// quiet for the given window (or closes), preserving order.
func drainChanges(w *Watch, quiet time.Duration) []Change {
	var out []Change
	for {
		select {
		case ch, ok := <-w.C:
			if !ok {
				return out
			}
			out = append(out, ch)
		case <-time.After(quiet):
			return out
		}
	}
}

// TestWatchQuerySlowConsumerLosesNoDeltas is the coalescing regression
// test: a consumer that reads nothing while the answer changes several
// times must still be able to reconstruct the final answer by replaying
// the changes it eventually reads — every delivered delta is relative to
// the consumer's last observation, so folding changes together never drops
// an addition or reports a removal the consumer was never told about.
func TestWatchQuerySlowConsumerLosesNoDeltas(t *testing.T) {
	fe, db, _, _, _ := deploy(t)
	block := db.BlockPath(0, 0, 0)
	var spaces []xmldb.IDPath
	for _, p := range db.SpacePaths {
		if strings.HasPrefix(p.Key(), block.Key()+"/") {
			spaces = append(spaces, p)
		}
	}
	if len(spaces) < 2 {
		t.Fatalf("need two spaces under %s", block)
	}
	q := block.String() + "/parkingSpace[available='watch-me']"

	w, err := fe.WatchQuery(q, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	// settle waits until the poller has certainly evaluated the new state:
	// the update is visible through a query, then several intervals pass.
	settle := func(wantLen int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			nodes, err := fe.Query(q)
			if err == nil && len(nodes) == wantLen {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("answer never reached %d results", wantLen)
			}
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Three transitions with nothing read in between: grow to {A}, grow to
	// {A,B}, shrink to {B}. The old implementation diffed against the last
	// evaluation, so the undelivered "+A" was replaced by "+B" and the
	// final delivery reported "-A" — a removal the consumer never saw
	// enter.
	if err := fe.Update(spaces[0], map[string]string{"available": "watch-me"}, nil); err != nil {
		t.Fatal(err)
	}
	settle(1)
	if err := fe.Update(spaces[1], map[string]string{"available": "watch-me"}, nil); err != nil {
		t.Fatal(err)
	}
	settle(2)
	if err := fe.Update(spaces[0], map[string]string{"available": "no"}, nil); err != nil {
		t.Fatal(err)
	}
	settle(1)

	changes := drainChanges(w, 200*time.Millisecond)
	if len(changes) == 0 {
		t.Fatal("no changes delivered")
	}
	got := map[string]bool{}
	for _, ch := range changes {
		for _, a := range ch.Added {
			got[a] = true
		}
		for _, r := range ch.Removed {
			if !got[r] {
				t.Fatalf("delta loss: removal of %q delivered but its addition never was", r)
			}
			delete(got, r)
		}
	}
	finalNodes, err := fe.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	final := map[string]bool{}
	for _, n := range finalNodes {
		final[n.Canonical()] = true
	}
	if len(got) != len(final) {
		t.Fatalf("replayed deltas end at %d results, query says %d", len(got), len(final))
	}
	for k := range final {
		if !got[k] {
			t.Fatalf("replayed deltas missing %q", k)
		}
	}
	if w.Err() != nil {
		t.Fatalf("watch error: %v", w.Err())
	}
}

// TestWatchQuerySurvivesTransientFailures takes the entry site off the
// network briefly: the watch must ride out the failed evaluations and keep
// delivering once the site is back, instead of terminating on the first
// error.
func TestWatchQuerySurvivesTransientFailures(t *testing.T) {
	fe, db, sites, _, net := deploy(t)
	fe.WatchFailureBudget = 100
	target := db.SpacePaths[0]
	q := target.Parent().String() + "/parkingSpace[available='watch-me']"
	w, err := fe.WatchQuery(q, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	entry := "nb-" + workload.CityName(0) + "-" + workload.NeighborhoodName(0)
	net.Unregister(entry)
	time.Sleep(50 * time.Millisecond) // several failed polls
	if err := net.Register(entry, sites[entry].Handle); err != nil {
		t.Fatal(err)
	}

	if err := fe.Update(target, map[string]string{"available": "watch-me"}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case ch, ok := <-w.C:
		if !ok {
			t.Fatalf("watch terminated on transient failure: %v", w.Err())
		}
		if len(ch.Added) != 1 {
			t.Fatalf("change after heal = %+v", ch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no change delivered after partition healed")
	}
	if w.Err() != nil {
		t.Fatalf("watch error after recovery: %v", w.Err())
	}
}

// TestWatchQueryFailureBudgetExhausted verifies the bounded retry: with the
// entry permanently unreachable the watch terminates after the configured
// number of consecutive failures and reports the terminal error.
func TestWatchQueryFailureBudgetExhausted(t *testing.T) {
	fe, db, _, _, net := deploy(t)
	fe.WatchFailureBudget = 3
	q := db.BlockQuery(0, 0, 0)
	w, err := fe.WatchQuery(q, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	entry := "nb-" + workload.CityName(0) + "-" + workload.NeighborhoodName(0)
	net.Unregister(entry)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-w.C:
			if !ok {
				if w.Err() == nil {
					t.Fatal("exhausted watch should report its error")
				}
				if !strings.Contains(w.Err().Error(), "3 consecutive failures") {
					t.Fatalf("error should name the exhausted budget: %v", w.Err())
				}
				return
			}
		case <-deadline:
			t.Fatal("watch did not terminate after budget exhaustion")
		}
	}
}

// TestWatchQueryErrSetWhenChannelCloses is the ordering regression test: a
// consumer that sees C closed and immediately calls Err must get the
// terminal error. The poller used to close C before done, leaving a window
// in which Err still reported nil; the loop makes that window likely to be
// hit if the order ever regresses.
func TestWatchQueryErrSetWhenChannelCloses(t *testing.T) {
	fe, db, _, _, net := deploy(t)
	fe.WatchFailureBudget = 1
	net.Unregister("nb-" + workload.CityName(0) + "-" + workload.NeighborhoodName(0))
	q := db.BlockQuery(0, 0, 0)
	for i := 0; i < 2000; i++ {
		w, err := fe.WatchQuery(q, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		// Poll rather than block: a blocked receiver is woken on the
		// closing goroutine's processor and tends to run only after the
		// poller has exited, hiding the window.
		for open := true; open; {
			select {
			case _, open = <-w.C:
			default:
				runtime.Gosched()
			}
		}
		if w.Err() == nil {
			t.Fatalf("run %d: C closed but Err() is nil", i)
		}
	}
}

// TestWatchQueryDeliversPartialAnswers knocks out a site that owns part of
// a two-neighborhood answer: the watch keeps running and delivers the
// shrunken answer marked partial with the unreachable subtrees named, then
// converges back once the site returns.
func TestWatchQueryDeliversPartialAnswers(t *testing.T) {
	fe, db, sites, _, net := deploy(t)
	fe.WatchFailureBudget = 100
	q := db.TwoNeighborhoodQuery(0, 0, 1, 1, 0)
	w, err := fe.WatchQuery(q, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	// Initial full answer.
	select {
	case ch := <-w.C:
		if ch.Partial {
			t.Fatalf("initial answer unexpectedly partial: %+v", ch.Unreachable)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no initial change")
	}

	other := "nb-" + workload.CityName(0) + "-" + workload.NeighborhoodName(1)
	net.Unregister(other)
	deadline := time.After(5 * time.Second)
	for {
		var ch Change
		var ok bool
		select {
		case ch, ok = <-w.C:
			if !ok {
				t.Fatalf("watch terminated instead of delivering partial: %v", w.Err())
			}
		case <-deadline:
			t.Fatal("no partial change delivered while partitioned")
		}
		if ch.Partial {
			if len(ch.Unreachable) == 0 {
				t.Fatalf("partial change without unreachable provenance: %+v", ch)
			}
			break
		}
	}
	if err := net.Register(other, sites[other].Handle); err != nil {
		t.Fatal(err)
	}
	deadline = time.After(5 * time.Second)
	for {
		var ch Change
		var ok bool
		select {
		case ch, ok = <-w.C:
			if !ok {
				t.Fatalf("watch terminated after heal: %v", w.Err())
			}
		case <-deadline:
			t.Fatal("answer never converged back after heal")
		}
		if !ch.Partial && len(ch.Added) > 0 {
			return
		}
	}
}
