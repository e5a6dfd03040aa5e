package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
	"irisnet/internal/xpatheval"
)

// canonical renders a subtree with attributes and children sorted, so two
// answers holding the same data compare equal regardless of order. The
// owner timestamp is left out when skipTS is set: the reference document
// does not know the owners' clocks.
func canonical(sb *strings.Builder, n *xmldb.Node, skipTS bool) {
	sb.WriteByte('<')
	sb.WriteString(n.Name)
	attrs := make([]string, 0, len(n.Attrs))
	for _, a := range n.Attrs {
		if a.Name == "status" || (skipTS && a.Name == xmldb.AttrTimestamp) {
			continue
		}
		attrs = append(attrs, a.Name+"="+strconv.Quote(a.Value))
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		sb.WriteByte(' ')
		sb.WriteString(a)
	}
	sb.WriteByte('>')
	sb.WriteString(strings.TrimSpace(n.Text))
	kids := make([]string, len(n.Children))
	for i, c := range n.Children {
		var kb strings.Builder
		canonical(&kb, c, skipTS)
		kids[i] = kb.String()
	}
	sort.Strings(kids)
	for _, k := range kids {
		sb.WriteString(k)
	}
	sb.WriteString("</>")
}

// answerHash is the canonical hash of an answer's node set.
func answerHash(nodes []*xmldb.Node, skipTS bool) uint64 {
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		var sb strings.Builder
		canonical(&sb, n, skipTS)
		parts[i] = sb.String()
	}
	sort.Strings(parts)
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Oracle answers queries centrally over a full copy of the document, the
// reference every distributed answer must equal. Answers are memoized: the
// query space is finite.
type Oracle struct {
	doc    *xmldb.Node
	skipTS bool
	memo   map[string]uint64
}

func newOracle(doc *xmldb.Node, skipTS bool) *Oracle {
	return &Oracle{doc: doc, skipTS: skipTS, memo: map[string]uint64{}}
}

// Nodes evaluates a query (consistency predicates stripped) centrally; an
// aggregate yields one node holding its value, as the frontend renders it.
func (o *Oracle) Nodes(q string) ([]*xmldb.Node, error) {
	aggQ, isAgg, err := xpath.ParseAggregate(q)
	if err != nil {
		return nil, err
	}
	inner := q
	if isAgg {
		inner = aggQ.InnerSource()
	}
	expr, err := xpath.Parse(inner)
	if err != nil {
		return nil, err
	}
	ctx := &xpatheval.Context{Root: o.doc, Now: func() float64 { return float64(time.Now().UnixNano()) / 1e9 }}
	ns, err := xpatheval.Select(xpath.StripConsistency(expr), ctx, o.doc)
	if err != nil {
		return nil, err
	}
	if isAgg {
		if aggQ.Fn != xpath.AggCount {
			return nil, fmt.Errorf("oracle: only count aggregates are checked")
		}
		n := xmldb.NewNode(aggQ.Fn.String())
		n.Text = formatValue(float64(len(ns)))
		return []*xmldb.Node{n}, nil
	}
	return ns, nil
}

// Hash is the memoized canonical hash of the central answer.
func (o *Oracle) Hash(q string) (uint64, error) {
	if h, ok := o.memo[q]; ok {
		return h, nil
	}
	ns, err := o.Nodes(q)
	if err != nil {
		return 0, err
	}
	h := answerHash(ns, o.skipTS)
	o.memo[q] = h
	return h, nil
}

// checkAnswers counts the recorded answers that differ from the central
// answer to the same query.
func checkAnswers(o *Oracle, clients []*clientStats) (wrong int64, examples []string, err error) {
	for _, cs := range clients {
		for q, hashes := range cs.answers {
			want, err := o.Hash(q)
			if err != nil {
				return 0, nil, err
			}
			for h, n := range hashes {
				if h != want {
					wrong += n
					if len(examples) < 3 {
						examples = append(examples, q)
					}
				}
			}
		}
	}
	return wrong, examples, nil
}

// diffAnswers describes how a distributed answer differs from the central
// one: the spaces missing from it and the ones it should not hold.
func diffAnswers(got, want []*xmldb.Node) string {
	key := func(n *xmldb.Node) string {
		var sb strings.Builder
		canonical(&sb, n, true)
		return sb.String()
	}
	have := map[string]bool{}
	for _, n := range got {
		have[key(n)] = true
	}
	var missing []string
	for _, n := range want {
		k := key(n)
		if have[k] {
			delete(have, k)
		} else {
			missing = append(missing, k)
		}
	}
	out := fmt.Sprintf("%d missing, %d unexpected", len(missing), len(have))
	if len(missing) > 0 {
		out += "; missing e.g. " + missing[0]
	}
	for k := range have {
		out += "; unexpected e.g. " + k
		break
	}
	return out
}

// currentDoc is the initial document with every acked reading applied.
func currentDoc(initial *xmldb.Node, u *Updater) *xmldb.Node {
	doc := initial.Clone()
	for _, a := range u.acked {
		n := xmldb.FindByIDPath(doc, a.Path)
		for name, v := range a.Fields {
			if c := n.ChildNamed(name); c != nil {
				c.Text = v
			}
		}
	}
	return doc
}

// readBack checks that every acked reading is visible to a strict read:
// one query per neighborhood, which self-starts at the neighborhood's
// owner and reads owned data. It returns the acked readings missing.
func readBack(c *Cluster, u *Updater) (lost int64, err error) {
	fe := c.NewFrontend()
	// block ID path key -> space id -> space
	have := map[string]map[string]*xmldb.Node{}
	for city := 0; city < c.DB.Cfg.Cities; city++ {
		for nb := 0; nb < c.DB.Cfg.Neighborhoods; nb++ {
			nbPath := c.DB.NeighborhoodPath(city, nb)
			q := nbPath.String() + "/block"
			ans, err := fe.QueryFull(context.Background(), q)
			if err != nil {
				return 0, fmt.Errorf("read-back %s: %w", q, err)
			}
			if ans.Partial() {
				return 0, fmt.Errorf("read-back %s: partial answer", q)
			}
			for _, blk := range ans.Nodes {
				spaces := map[string]*xmldb.Node{}
				for _, sp := range blk.Children {
					spaces[sp.ID()] = sp
				}
				have[append(nbPath, xmldb.Step{Name: blk.Name, ID: blk.ID()}).Key()] = spaces
			}
		}
	}
	for _, a := range u.acked {
		block := a.Path[:len(a.Path)-1]
		n := have[block.Key()][a.Path[len(a.Path)-1].ID]
		if n == nil {
			lost++
			continue
		}
		for name, v := range a.Fields {
			if ch := n.ChildNamed(name); ch == nil || ch.Text != v {
				lost++
				break
			}
		}
	}
	return lost, nil
}

// replaySample picks up to max distinct queries, seeded.
func replaySample(clients []*clientStats, max int, seed int64) []string {
	set := map[string]bool{}
	for _, cs := range clients {
		for q := range cs.answers {
			set[q] = true
		}
	}
	qs := make([]string, 0, len(set))
	for q := range set {
		qs = append(qs, q)
	}
	sort.Strings(qs)
	rng := rand.New(rand.NewSource(streamSeed(seed, -11)))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	if len(qs) > max {
		qs = qs[:max]
	}
	return qs
}
