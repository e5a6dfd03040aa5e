package main

import "testing"

// TestSelfTime checks self time on a hand-built span tree: a handler
// [0,100) with two overlapping parallel calls [10,40) and [20,50), one
// disjoint call [60,70), and one call sticking out past its end [90,120).
// Covered time is the union clipped to the handler: [10,50) + [60,70) +
// [90,100) = 60, so self time is 40 — not the 100-30-30-10-30 = 0 that
// subtracting each child would give.
func TestSelfTime(t *testing.T) {
	parent := &Span{Start: 0, End: 100}
	kids := []*Span{
		{Start: 20, End: 50},
		{Start: 10, End: 40},
		{Start: 60, End: 70},
		{Start: 90, End: 120},
	}
	self, covered := selfTime(parent, kids)
	if covered != 60 || self != 40 {
		t.Fatalf("selfTime = (self %d, covered %d), want (40, 60)", self, covered)
	}

	if self, covered := selfTime(parent, nil); self != 100 || covered != 0 {
		t.Fatalf("leaf selfTime = (%d, %d), want (100, 0)", self, covered)
	}
	nested := []*Span{{Start: 10, End: 90}, {Start: 20, End: 30}, {Start: 40, End: 80}}
	if self, _ := selfTime(parent, nested); self != 20 {
		t.Fatalf("nested children: self = %d, want 20", self)
	}
}

// TestAnalyzeSpans checks the per-layer reduction of a recorded trace: a
// client query calls a site whose handler fans out to two parallel calls
// reaching a batch handler each; handlers are children of their calls.
func TestAnalyzeSpans(t *testing.T) {
	rec := newRecorder()
	add := func(s *Span) { rec.spans = append(rec.spans, s) }
	add(&Span{ID: 1, Req: 1, Name: "query", Start: 0, End: 1000})
	add(&Span{ID: 2, Parent: 1, Req: 1, Name: "call", Kind: "query", Start: 10, End: 990, Bytes: 2048})
	add(&Span{ID: 3, Parent: 2, Req: 1, Name: "handle", Kind: "query", Start: 50, End: 950})
	add(&Span{ID: 4, Parent: 3, Req: 1, Name: "call", Kind: "batch", Start: 100, End: 500, Bytes: 1024})
	add(&Span{ID: 5, Parent: 3, Req: 1, Name: "call", Kind: "batch", Start: 300, End: 700, Bytes: 1024})
	add(&Span{ID: 6, Parent: 4, Req: 1, Name: "handle", Kind: "batch", Start: 150, End: 450})
	add(&Span{ID: 7, Parent: 5, Req: 1, Name: "handle", Kind: "batch", Start: 350, End: 650})

	got := analyzeSpans(rec, 0, 1000)
	// wire: (980-900 + 400-300 + 400-300) / 3 ns = 93.33 ns
	if want := (80.0 + 100 + 100) / 3 / 1e3; abs(got.wireUS-want) > 1e-9 {
		t.Errorf("wireUS = %v, want %v", got.wireUS, want)
	}
	if got.callsPerQuery != 3 || got.kbPerQuery != 4 {
		t.Errorf("calls/query = %v, KiB/query = %v, want 3 and 4", got.callsPerQuery, got.kbPerQuery)
	}
	// Query handler: 900 long, children cover [100,700) = 600, self 300.
	if abs(got.querySelfUS-0.3) > 1e-9 {
		t.Errorf("querySelfUS = %v, want 0.3", got.querySelfUS)
	}
	if abs(got.batchSelfUS-0.3) > 1e-9 {
		t.Errorf("batchSelfUS = %v, want 0.3", got.batchSelfUS)
	}
	// Wait: query handler covered 600, batch handlers 0 each: mean 200 ns.
	if abs(got.wait-0.2) > 1e-9 {
		t.Errorf("wait = %v, want 0.2", got.wait)
	}
	// A window that excludes the trace sees nothing.
	if empty := analyzeSpans(rec, 2000, 3000); empty.callsPerQuery != 0 || empty.wireUS != 0 {
		t.Errorf("out-of-window spans counted: %+v", empty)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
