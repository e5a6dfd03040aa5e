package site

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strings"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/xmldb"
)

// Ownership migration (Section 4, "Ownership changes"). Transferring the
// subtree rooted at an IDable node from its current owner to a new site:
//
//  1. the new owner receives a copy of the local information of every
//     transferred node (one "take" message),
//  2. the new owner marks them owned,
//  3. the old owner downgrades its copies to complete,
//  4. the DNS entries are repointed to the new owner.
//
// The old owner holds its writer mutex for the duration, so no update or
// merge can slip in mid-transfer; queries keep reading the last published
// version throughout and then atomically observe the post-transfer state.
// Queries arriving at the old owner afterwards (stale DNS) are still
// answerable from its complete copy, and updates are forwarded
// (site.handleUpdate).

// Delegate transfers ownership of the node at path (and every descendant
// this site owns) to the named site. It is driven by the load-balancing
// harness and by the "delegate" wire message.
func (s *Site) Delegate(path xmldb.IDPath, newOwner string) error {
	if newOwner == s.cfg.Name {
		return fmt.Errorf("site %s: cannot delegate %s to itself", s.cfg.Name, path)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	st := s.state.Load()

	if !st.owned[path.Key()] {
		return fmt.Errorf("site %s: does not own %s", s.cfg.Name, path)
	}
	transfer := ownedUnder(st.owned, path)

	// The transfer fragment carries the ancestors' local ID information
	// plus the local information of every transferred node: exactly the
	// data the new owner must hold to satisfy I1/I2. It is read from the
	// published (immutable) version.
	frag, err := fragment.BuildDelta(st.store, transfer)
	if err != nil {
		return fmt.Errorf("site %s: %w", s.cfg.Name, err)
	}

	keys := make([]string, len(transfer))
	for i, p := range transfer {
		keys[i] = p.String()
	}
	take := &Message{
		Kind:     KindTake,
		Fragment: frag.Root.StringSized(frag.Size()),
		Paths:    keys,
	}
	respB, err := s.call.Call(context.Background(), newOwner, take.Encode())
	if err != nil {
		return fmt.Errorf("site %s: transferring %s to %s: %w", s.cfg.Name, path, newOwner, err)
	}
	resp, err := DecodeMessage(respB)
	if err != nil {
		return err
	}
	if e := resp.AsError(); e != nil {
		return fmt.Errorf("site %s: new owner rejected transfer: %w", s.cfg.Name, e)
	}

	// Step 3: downgrade local copies; step 4: repoint DNS (the atomic
	// commit point from the rest of the system's perspective). The store
	// downgrade, ownership table and forwarding table change together in
	// one published version.
	w := st.store.Begin()
	owned := copyOwned(st.owned)
	migrated := copyMigrated(st.migrated)
	for _, p := range transfer {
		delete(owned, p.Key())
		migrated[p.Key()] = newOwner
		// Ignore a missing node: ownership of a stub can be delegated even
		// though there is nothing to downgrade (mirrors the pre-COW code).
		_ = w.SetStatusAt(p, fragment.StatusComplete)
	}
	lsn := s.walAppend(walOp{Op: opDelegate, Paths: keys, Owner: newOwner})
	s.publishLocked(&siteState{store: w.Commit(), owned: owned, migrated: migrated})
	// Rare control-plane op: waiting under wmu is acceptable, and the
	// registry repoint below must not outrun the durable forwarding table.
	s.walWait(lsn)
	if s.summaries != nil {
		// Ownership changed hands: cached aggregate summaries may now cover
		// subtrees this site should route elsewhere, so drop them all.
		s.summaries.flush()
	}
	if s.cfg.Registry != nil {
		for _, p := range transfer {
			s.cfg.Registry.Set(naming.DNSName(p, s.cfg.Service), newOwner)
		}
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "ownership delegated",
		slog.String("path", path.String()), slog.String("to", newOwner),
		slog.Int("nodes", len(transfer)))
	return nil
}

// ownedUnder returns the sorted owned paths at or below path.
func ownedUnder(owned map[string]bool, path xmldb.IDPath) []xmldb.IDPath {
	prefix := path.Key()
	var out []xmldb.IDPath
	for k := range owned {
		if k == prefix || strings.HasPrefix(k, prefix+"/") {
			p, err := xmldb.ParseIDPath(k)
			if err != nil {
				continue
			}
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	return out
}

// handleDelegate serves the wire form of Delegate.
func (s *Site) handleDelegate(msg *Message) *Message {
	p, err := xmldb.ParseIDPath(msg.Path)
	if err != nil {
		return errorMessage(err)
	}
	if err := s.Delegate(p, msg.NewOwner); err != nil {
		return errorMessage(err)
	}
	return &Message{Kind: KindOK}
}

// handleTake accepts ownership of the transferred nodes.
func (s *Site) handleTake(msg *Message) *Message {
	frag, err := xmldb.ParseString(msg.Fragment)
	if err != nil {
		return errorMessage(err)
	}
	var paths []xmldb.IDPath
	for _, k := range msg.Paths {
		p, err := xmldb.ParseIDPath(k)
		if err != nil {
			return errorMessage(fmt.Errorf("site %s: bad transfer path %q: %w", s.cfg.Name, k, err))
		}
		paths = append(paths, p)
	}
	var takeErr error
	var lsn uint64
	s.cpu.Do(func() {
		s.wmu.Lock()
		defer s.wmu.Unlock()
		st := s.state.Load()
		w := st.store.Begin()
		if takeErr = w.MergeFragment(frag); takeErr != nil {
			return
		}
		owned := copyOwned(st.owned)
		migrated := copyMigrated(st.migrated)
		for _, p := range paths {
			if err := w.SetStatusAt(p, fragment.StatusOwned); err != nil {
				takeErr = fmt.Errorf("site %s: transferred node %s missing after merge", s.cfg.Name, p)
				return
			}
			owned[p.Key()] = true
			delete(migrated, p.Key())
		}
		lsn = s.walAppend(walOp{Op: opTake, Frag: msg.Fragment, Paths: msg.Paths})
		s.publishLocked(&siteState{store: w.Commit(), owned: owned, migrated: migrated})
	})
	if takeErr != nil {
		return errorMessage(takeErr)
	}
	// The old owner downgrades its copy on this ack; the accepted
	// ownership must be durable before that happens.
	s.walWait(lsn)
	if s.summaries != nil {
		s.summaries.flush()
	}
	return &Message{Kind: KindOK}
}
