package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"irisnet/internal/naming"
	"irisnet/internal/transport"
)

// Span is one timed interval of the traced run: a client request, a call
// into the transport, or a site handler serving a message.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Req is the ID of the root span of the request this span serves.
	Req uint64 `json:"req"`
	// Name is "query", "update", "call" or "handle".
	Name string `json:"name"`
	// Kind is the message kind of a call or handler (query, batch,
	// aggregate, update, ...), or the client request's kind at a root.
	Kind string `json:"kind,omitempty"`
	// Site is the caller's site for a call ("" = a client) and the serving
	// site for a handler; Dest is a call's destination.
	Site  string `json:"site,omitempty"`
	Dest  string `json:"dest,omitempty"`
	Start int64  `json:"start"` // ns since the recorder started
	End   int64  `json:"end"`
	Bytes int    `json:"bytes,omitempty"` // call: request + response bytes
}

// Dur is the span's length in nanoseconds.
func (s *Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps every span of a traced run in memory.
type Recorder struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []*Span

	// pending pairs calls with the handlers they reached: both wrappers
	// see the same request bytes, so the call registers under a hash of
	// them and the handler claims the oldest call with that hash.
	pmu     sync.Mutex
	pending map[uint64][]*Span
}

func newRecorder() *Recorder {
	return &Recorder{t0: time.Now(), pending: map[uint64][]*Span{}}
}

func (r *Recorder) expect(key uint64, call *Span) {
	r.pmu.Lock()
	r.pending[key] = append(r.pending[key], call)
	r.pmu.Unlock()
}

// claim returns the oldest pending call with the key, or nil.
func (r *Recorder) claim(key uint64) *Span {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	q := r.pending[key]
	if len(q) == 0 {
		return nil
	}
	if len(q) == 1 {
		delete(r.pending, key)
	} else {
		r.pending[key] = q[1:]
	}
	return q[0]
}

// forget drops a call no handler claimed (dial error, timeout), so a
// later identical request cannot be paired with it.
func (r *Recorder) forget(key uint64, call *Span) {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	q := r.pending[key]
	for i, c := range q {
		if c == call {
			q = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(r.pending, key)
	} else {
		r.pending[key] = q
	}
}

func (r *Recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent (nil = a new root).
func (r *Recorder) begin(name, kind, site string, parent *Span) *Span {
	s := &Span{ID: r.nextID.Add(1), Name: name, Kind: kind, Site: site, Start: r.now()}
	if parent != nil {
		s.Parent, s.Req = parent.ID, parent.Req
	} else {
		s.Req = s.ID
	}
	return s
}

func (r *Recorder) end(s *Span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns the finished spans.
func (r *Recorder) Spans() []*Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.spans...)
}

// WriteJSONL writes every span as one JSON object per line.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

func withSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

func payloadHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// messageKind reads the kind of an encoded site message without decoding
// it: json.Marshal writes the struct's first field, "kind", first.
func messageKind(b []byte) string {
	const prefix = `{"kind":"`
	if !bytes.HasPrefix(b, []byte(prefix)) {
		return "?"
	}
	rest := b[len(prefix):]
	if i := bytes.IndexByte(rest, '"'); i >= 0 {
		return string(rest[:i])
	}
	return "?"
}

// tracedNet wraps the shared transport for one site or client: every call
// records a call span under the span in its ctx, and every handler the
// site registers records a handler span whose ctx carries it to the
// handler's own outgoing calls.
type tracedNet struct {
	inner transport.Network
	site  string // "" for clients
	rec   *Recorder
}

func (n *tracedNet) Call(site string, payload []byte) ([]byte, error) {
	return n.CallContext(context.Background(), site, payload)
}

func (n *tracedNet) CallContext(ctx context.Context, dest string, payload []byte) ([]byte, error) {
	sp := n.rec.begin("call", messageKind(payload), n.site, spanFrom(ctx))
	sp.Dest = dest
	key := payloadHash(payload)
	n.rec.expect(key, sp)
	resp, err := n.inner.CallContext(ctx, dest, payload)
	n.rec.forget(key, sp)
	sp.Bytes = len(payload) + len(resp)
	n.rec.end(sp)
	return resp, err
}

// Register wraps the handler so each message served records a span whose
// parent is the call that sent it.
func (n *tracedNet) Register(site string, h transport.Handler) error {
	rec := n.rec
	return n.inner.Register(site, func(ctx context.Context, payload []byte) ([]byte, error) {
		sp := rec.begin("handle", messageKind(payload), site, rec.claim(payloadHash(payload)))
		resp, err := h(withSpan(ctx, sp), payload)
		rec.end(sp)
		return resp, err
	})
}

func (n *tracedNet) Unregister(site string) { n.inner.Unregister(site) }

// countingStore wraps the name registry and counts lookups.
type countingStore struct {
	inner   naming.Store
	lookups atomic.Int64
}

func (c *countingStore) Lookup(name string) (string, bool) {
	c.lookups.Add(1)
	return c.inner.Lookup(name)
}

func (c *countingStore) Set(name, site string) { c.inner.Set(name, site) }

// selfTime is a span's duration minus the part of it its children cover.
// Overlapping children (parallel subqueries) are merged first, so covered
// time is counted once; children are clipped to the parent's interval.
func selfTime(parent *Span, children []*Span) (self, covered int64) {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.Dur() - covered, covered
}
