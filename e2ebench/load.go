package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"irisnet/internal/qeg"
	"irisnet/internal/service"
	"irisnet/internal/site"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// window is the measured interval; a sample counts when its request
// started and finished inside it.
type window struct {
	mu         sync.RWMutex
	start, end time.Time
}

func (w *window) set(start, end time.Time) {
	w.mu.Lock()
	w.start, w.end = start, end
	w.mu.Unlock()
}

func (w *window) contains(a, b time.Time) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return !w.start.IsZero() && !a.Before(w.start) && !b.After(w.end)
}

// stageTimes accumulates the traced client's per-step costs.
type stageTimes struct {
	route, encode, decode, parse, extract time.Duration
	queries, parsed                       int64
	answerBytes                           int64
}

// clientStats is one closed-loop client's record of the measured window.
type clientStats struct {
	lat      []float64 // ms, complete answers
	failed   int64     // errors and partial answers
	attempts int64
	// answers counts each (query, answer hash) pair, for the oracle.
	answers map[string]map[uint64]int64
	stages  stageTimes
}

// Load drives the cluster: nproc closed-loop query clients plus the
// open-loop sensor stream, running until stopped.
type Load struct {
	c       *Cluster
	win     *window
	stop    atomic.Bool
	wg      sync.WaitGroup
	clients []*clientStats
	upd     *Updater
	// hashAnswers records every answer's hash (the data queries see does
	// not change during the run); otherwise only the query texts are kept.
	hashAnswers bool
}

func startLoad(c *Cluster, streams []*QueryStream, upd *Updater, win *window) *Load {
	l := &Load{c: c, win: win, upd: upd, hashAnswers: c.Spec.OccupiedOnly}
	for _, qs := range streams {
		cs := &clientStats{answers: map[string]map[uint64]int64{}}
		l.clients = append(l.clients, cs)
		fe := c.NewFrontend()
		l.wg.Add(1)
		go func(qs *QueryStream) {
			defer l.wg.Done()
			l.runClient(fe, qs, cs)
		}(qs)
	}
	upd.start(win)
	return l
}

// Stop ends the load and waits for every client and update to finish.
func (l *Load) Stop() {
	l.stop.Store(true)
	l.wg.Wait()
	l.upd.stopAndWait()
}

func (l *Load) runClient(fe *service.Frontend, qs *QueryStream, cs *clientStats) {
	traced := l.c.Rec != nil
	for !l.stop.Load() {
		q := qs.Next()
		t0 := time.Now()
		var nodes []*xmldb.Node
		var partial bool
		var err error
		var st stageTimes
		if traced {
			nodes, partial, err = tracedQuery(l.c.Rec, fe, q, &st)
		} else {
			var ans *service.Answer
			ans, err = fe.QueryFull(context.Background(), q)
			if err == nil {
				nodes, partial = ans.Nodes, ans.Partial()
			}
		}
		t1 := time.Now()
		if !l.win.contains(t0, t1) {
			continue
		}
		cs.attempts++
		cs.stages.add(st)
		if err != nil || partial {
			cs.failed++
			continue
		}
		cs.lat = append(cs.lat, float64(t1.Sub(t0))/1e6)
		var h uint64
		if l.hashAnswers {
			h = answerHash(nodes, false)
		}
		m := cs.answers[q]
		if m == nil {
			m = map[uint64]int64{}
			cs.answers[q] = m
		}
		m[h]++
	}
}

// tracedQuery runs the frontend's steps one public call at a time, timing
// each: resolve the entry site, encode, call, decode the reply, parse the
// answer fragment and extract the answer. Aggregates stop after decode:
// their reply is a partial state, not a fragment.
func tracedQuery(rec *Recorder, fe *service.Frontend, q string, st *stageTimes) ([]*xmldb.Node, bool, error) {
	root := rec.begin("query", "query", "", nil)
	defer rec.end(root)
	ctx, cancel := context.WithTimeout(withSpan(context.Background(), root), queryTimeout)
	defer cancel()

	aggQ, isAgg, err := xpath.ParseAggregate(q)
	if err != nil {
		return nil, false, err
	}
	routed := q
	kind := site.KindQuery
	if isAgg {
		routed, kind = aggQ.InnerSource(), site.KindAggregate
		root.Kind = "aggregate"
	}
	t0 := time.Now()
	entry, _, err := fe.RouteOf(routed)
	if err != nil {
		return nil, false, err
	}
	t1 := time.Now()
	msg := &site.Message{Kind: kind, Query: q}
	msg.StampDeadline(ctx)
	payload := msg.Encode()
	t2 := time.Now()
	respB, err := fe.Net.CallContext(ctx, entry, payload)
	if err != nil {
		return nil, false, err
	}
	t3 := time.Now()
	resp, err := site.DecodeMessage(respB)
	if err != nil {
		return nil, false, err
	}
	if e := resp.AsError(); e != nil {
		return nil, false, e
	}
	t4 := time.Now()
	st.route += t1.Sub(t0)
	st.encode += t2.Sub(t1)
	st.decode += t4.Sub(t3)
	st.queries++
	st.answerBytes += int64(len(respB))
	if isAgg {
		if resp.Agg == nil {
			return nil, false, fmt.Errorf("aggregate reply without partial state")
		}
		v, ok := resp.Agg.Partial.Final(aggQ.Fn)
		var nodes []*xmldb.Node
		if ok {
			n := xmldb.NewNode(aggQ.Fn.String())
			n.Text = formatValue(v)
			nodes = []*xmldb.Node{n}
		}
		return nodes, len(resp.Unreachable) > 0 || resp.Truncated, nil
	}
	frag, err := xmldb.ParseString(resp.Fragment)
	if err != nil {
		return nil, false, err
	}
	t5 := time.Now()
	nodes, marked, err := qeg.ExtractAnswerFull(frag, q, fe.Clock, qeg.ExtractOptions{})
	if err != nil {
		return nil, false, err
	}
	t6 := time.Now()
	st.parse += t5.Sub(t4)
	st.extract += t6.Sub(t5)
	st.parsed++
	return nodes, len(resp.Unreachable) > 0 || len(marked) > 0 || resp.Truncated, nil
}

// Updater is the open-loop sensor stream: readings fall due at a fixed
// rate, at most nproc are outstanding, and each is timed from when it was
// due, so a stall is charged to every reading it delays.
type Updater struct {
	c       *Cluster
	stream  *UpdateStream
	rate    float64
	workers int

	stopCh chan struct{}
	wg     sync.WaitGroup

	mu        sync.Mutex
	lat       []float64 // ms, from due to ack
	lateMS    []float64
	attempted int64
	failed    int64
	// acked holds each space's last acknowledged reading (by sequence).
	acked map[string]Reading
	// failedPaths lists spaces whose update failed: their state is unknown.
	failedPaths map[string]bool
}

type updateJob struct {
	r   Reading
	due time.Time
}

func newUpdater(c *Cluster, stream *UpdateStream, rate float64, workers int) *Updater {
	return &Updater{c: c, stream: stream, rate: rate, workers: workers,
		acked: map[string]Reading{}, failedPaths: map[string]bool{}}
}

func (u *Updater) start(win *window) {
	u.stopCh = make(chan struct{})
	jobs := make(chan updateJob)
	var workers sync.WaitGroup
	for i := 0; i < u.workers; i++ {
		fe := u.c.NewFrontend()
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range jobs {
				u.apply(fe, j, win)
			}
		}()
	}
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		defer func() { close(jobs); workers.Wait() }()
		t0 := time.Now()
		interval := time.Duration(float64(time.Second) / u.rate)
		for i := 0; ; i++ {
			due := t0.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				select {
				case <-u.stopCh:
					return
				case <-time.After(d):
				}
			}
			select {
			case <-u.stopCh:
				return
			case jobs <- updateJob{r: u.stream.Next(), due: due}:
			}
			if win.contains(due, due) {
				late := float64(time.Since(due)) / 1e6
				u.mu.Lock()
				u.lateMS = append(u.lateMS, late)
				u.mu.Unlock()
			}
		}
	}()
}

func (u *Updater) apply(fe *service.Frontend, j updateJob, win *window) {
	ctx := context.Background()
	var root *Span
	if u.c.Rec != nil {
		root = u.c.Rec.begin("update", "update", "", nil)
		ctx = withSpan(ctx, root)
	}
	err := fe.UpdateContext(ctx, j.r.Path, j.r.Fields, nil)
	done := time.Now()
	if root != nil {
		u.c.Rec.end(root)
	}
	key := j.r.Path.Key()
	u.mu.Lock()
	defer u.mu.Unlock()
	if err != nil {
		u.failedPaths[key] = true
	} else if a, ok := u.acked[key]; !ok || j.r.Seq > a.Seq {
		u.acked[key] = j.r
	}
	if !win.contains(j.due, done) {
		return
	}
	u.attempted++
	if err != nil {
		u.failed++
		return
	}
	u.lat = append(u.lat, float64(done.Sub(j.due))/1e6)
}

func (u *Updater) stopAndWait() {
	close(u.stopCh)
	u.wg.Wait()
}

// stamp sends every space its current values once, so every space carries
// an owner timestamp before the freshness-predicate workload starts.
func stamp(c *Cluster, workers int) error {
	paths := c.DB.SpacePaths
	var next atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		fe := c.NewFrontend()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(paths) {
					return
				}
				n := xmldb.FindByIDPath(c.DB.Doc, paths[i])
				fields := map[string]string{}
				for _, ch := range n.Children {
					fields[ch.Name] = ch.Text
				}
				if err := fe.Update(paths[i], fields, nil); err != nil {
					errs <- fmt.Errorf("stamping %s: %w", paths[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}
