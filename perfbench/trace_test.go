package main

import (
	"math"
	"testing"
)

// tree is a request with nested spans: root [0,100] holding a [10,30] and
// b [40,90], and b holding c [50,60].
func tree(req int32) []span {
	return []span{
		{name: "root", req: req, parent: -1, start: 0, end: 100},
		{name: "a", req: req, parent: 0, start: 10, end: 30},
		{name: "b", req: req, parent: 0, start: 40, end: 90},
		{name: "c", req: req, parent: 2, start: 50, end: 60},
	}
}

func TestSelfTimes(t *testing.T) {
	spans := tree(0)
	self := selfTimes(spans)
	want := []int64{30, 20, 40, 10}
	sum := int64(0)
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != spans[0].end-spans[0].start {
		t.Errorf("self times sum to %d, the root lasts %d", sum, spans[0].end-spans[0].start)
	}
	if err := checkNesting(spans); err != nil {
		t.Errorf("well-nested tree rejected: %v", err)
	}
}

func TestCheckNestingRejects(t *testing.T) {
	outside := tree(0)
	outside[3].end = 95 // c leaves b
	overlap := tree(0)
	overlap[2].start = 25 // b starts before a ends
	otherReq := tree(0)
	otherReq[1].req = 1
	for name, spans := range map[string][]span{"outside": outside, "overlap": overlap, "other request": otherReq} {
		if checkNesting(spans) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLayerSeconds(t *testing.T) {
	// Two requests of the same shape, one scaled ×3, and a set-up request
	// the filter leaves out.
	spans := tree(0)
	for _, s := range tree(1) {
		s.start *= 3
		s.end *= 3
		s.parent += int32(len(tree(0)))
		if s.parent < int32(len(tree(0))) {
			s.parent = -1
		}
		spans = append(spans, s)
	}
	spans = append(spans, span{name: "setup", req: -1, parent: -1, start: 0, end: 1e9})
	per, n := layerSeconds(spans, func(req int32) bool { return req >= 0 })
	if n != 2 {
		t.Fatalf("%d requests, want 2", n)
	}
	want := map[string]float64{"root": 60e-9, "a": 40e-9, "b": 80e-9, "c": 20e-9}
	total := 0.0
	for name, w := range want {
		if math.Abs(per[name]-w) > 1e-18 {
			t.Errorf("%s: %g s per request, want %g", name, per[name], w)
		}
		total += per[name]
	}
	if _, ok := per["setup"]; ok {
		t.Error("the filtered-out set-up request was counted")
	}
	if math.Abs(total-200e-9) > 1e-18 {
		t.Errorf("layers sum to %g s per request, the mean root lasts 2e-7", total)
	}
}

// TestTracerNests: spans opened inside one another get the right parents,
// and a nil tracer records nothing.
func TestTracerNests(t *testing.T) {
	tr := newTracer()
	tr.request(7)
	root := tr.begin("root")
	a := tr.begin("a")
	tr.end(a)
	b := tr.begin("b")
	c := tr.begin("c")
	tr.abandon()
	if len(tr.open) != 0 {
		t.Fatalf("abandon left %d spans open", len(tr.open))
	}
	wantParent := map[int32]int32{root: -1, a: root, b: root, c: b}
	for id, p := range wantParent {
		if got := tr.spans[id].parent; got != p {
			t.Errorf("span %s: parent %d, want %d", tr.spans[id].name, got, p)
		}
		if tr.spans[id].req != 7 {
			t.Errorf("span %s: request %d, want 7", tr.spans[id].name, tr.spans[id].req)
		}
	}
	if err := checkNesting(tr.spans); err != nil {
		t.Error(err)
	}
	var none *tracer
	none.request(1)
	none.end(none.begin("x"))
	none.abandon()
}
