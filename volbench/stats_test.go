package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.1, 1}, {0.01, 1},
	}
	for _, c := range cases {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	cands := []float64{50, 90, 99, 99.9}
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := highestSupportedPercentile(c.n, cands); got != c.want {
			t.Errorf("n=%d: got p%v, want p%v", c.n, got, c.want)
		}
	}
}

// at is a fixed clock for schedule tests.
var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(msec float64) time.Time { return t0.Add(time.Duration(msec * float64(time.Millisecond))) }

func TestLatenessOnTime(t *testing.T) {
	// 100 FPS: frame k due every 10 ms; each frame takes 2 ms end to end.
	var arr []arrival
	for k := 3; k < 8; k++ {
		arr = append(arr, arrival{k, at(float64(k)*10 + 2)})
	}
	anchor := scheduleAnchor(arr, 100)
	if !anchor.Equal(at(2)) {
		t.Fatalf("anchor = %v, want %v", anchor.Sub(t0), 2*time.Millisecond)
	}
	for i, l := range lateness(arr, anchor, 100) {
		if math.Abs(l) > 1e-9 {
			t.Errorf("frame %d lateness %v, want 0", arr[i].frame, l)
		}
	}
}

func TestLatenessSkippedTick(t *testing.T) {
	// The frame loop skipped a tick after frame 4: frame 5 goes out at
	// tick 6's time and every later frame stays one interval late.
	arr := []arrival{
		{3, at(30)}, {4, at(40)}, {5, at(60)}, {6, at(70)},
	}
	got := lateness(arr, scheduleAnchor(arr, 100), 100)
	want := []float64{0, 0, 10, 10}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("frame %d lateness %v, want %v", arr[i].frame, got[i], want[i])
		}
	}
}

func TestLatenessAnchorFromEarliestFrame(t *testing.T) {
	// A slow first frame must not set the schedule: the anchor is the
	// earliest arrival minus its offset, over every frame seen.
	arr := []arrival{{0, at(25)}, {1, at(12)}, {2, at(22)}}
	anchor := scheduleAnchor(arr, 100)
	if !anchor.Equal(at(2)) {
		t.Fatalf("anchor = %v, want 2ms", anchor.Sub(t0))
	}
	got := lateness(arr, anchor, 100)
	if math.Abs(got[0]-23) > 1e-9 || math.Abs(got[1]) > 1e-9 {
		t.Errorf("lateness = %v, want [23 0 0]", got)
	}
}

func TestLatenessPerIncarnation(t *testing.T) {
	// A scene reaped and rebuilt restarts its frame counter at 0. Each
	// incarnation keeps its own anchor, so the rebuilt scene's frames are
	// not measured against the first schedule.
	first := []arrival{{0, at(1)}, {1, at(11)}, {2, at(21)}}
	second := []arrival{{0, at(5001)}, {1, at(5011)}}
	for name, arr := range map[string][]arrival{"first": first, "second": second} {
		for i, l := range lateness(arr, scheduleAnchor(arr, 100), 100) {
			if math.Abs(l) > 1e-9 {
				t.Errorf("%s incarnation frame %d lateness %v, want 0", name, arr[i].frame, l)
			}
		}
	}
	// Pooled under one anchor, the second incarnation would read ~5 s late.
	pooled := append(append([]arrival(nil), first...), second...)
	if l := lateness(pooled, scheduleAnchor(pooled, 100), 100); l[3] < 4999 {
		t.Errorf("pooled lateness %v: incarnations are not independent", l[3])
	}
}

func TestFramesOwedLeaveAndRejoin(t *testing.T) {
	window := interval{at(1000), at(11000)}
	conns := []interval{
		{at(0), at(3000)},      // joined before the window: owes 2 s of it
		{at(5000), at(6500)},   // rejoined: owes 1.5 s; the gap owes nothing
		{at(10000), at(12000)}, // still watching at the end: owes 1 s
		{at(20000), at(21000)}, // after the window
	}
	got := framesOwed(conns, window, 30)
	if want := 30 * (2 + 1.5 + 1); math.Abs(got-want) > 1e-9 {
		t.Errorf("frames owed = %v, want %v", got, want)
	}
}

func TestUnionMergesOverlaps(t *testing.T) {
	got := union([]interval{{at(5), at(8)}, {at(0), at(3)}, {at(2), at(4)}, {at(8), at(9)}})
	want := []interval{{at(0), at(4)}, {at(5), at(9)}}
	if len(got) != len(want) {
		t.Fatalf("union = %v", got)
	}
	for i := range want {
		if !got[i].from.Equal(want[i].from) || !got[i].to.Equal(want[i].to) {
			t.Errorf("interval %d = [%v, %v], want [%v, %v]", i,
				got[i].from.Sub(t0), got[i].to.Sub(t0), want[i].from.Sub(t0), want[i].to.Sub(t0))
		}
	}
}

func TestFailedRatio(t *testing.T) {
	var o opCounts
	if o.failedRatio() != 0 {
		t.Error("nothing attempted must read 0")
	}
	o.add(opCounts{joins: 4, framesBegun: 96, joinsNoFrame: 1, reconnects: 1})
	o.add(opCounts{framesAbandoned: 2, decodes: 1, clientErrors: 1})
	if o.attempted() != 100 || o.failed() != 6 {
		t.Fatalf("attempted %d failed %d, want 100 and 6", o.attempted(), o.failed())
	}
	if got := o.failedRatio(); math.Abs(got-0.06) > 1e-12 {
		t.Errorf("failed ratio = %v, want 0.06", got)
	}
}

func TestLoadGuard(t *testing.T) {
	if err := loadGuard(2, 2); err != nil {
		t.Errorf("2 clients on 2 CPUs: %v", err)
	}
	if err := loadGuard(3, 2); err == nil {
		t.Error("3 clients on 2 CPUs passed the load guard")
	}
}

func TestSplitAddsUp(t *testing.T) {
	hf := &hubFrame{
		cullStart: at(0), cullEnd: at(1),
		serEnd:    at(3),
		sendStart: at(2.5), sendEnd: at(4), // the writer started before serialize ended
		have: haveAll,
	}
	s := splitFrame(hf, at(10), 4*time.Millisecond)
	sum := s.cull + s.serialize + s.queueWait + s.send + s.transit + s.decode
	if math.Abs(sum-s.real) > 1e-9 || math.Abs(s.real-10) > 1e-9 {
		t.Errorf("stages sum to %v, e2e from frame start %v, want both 10", sum, s.real)
	}
	if s.queueWait != 0 || math.Abs(s.send-1) > 1e-9 || math.Abs(s.decode-4) > 1e-9 || math.Abs(s.transit-2) > 1e-9 {
		t.Errorf("split = %+v", s)
	}
}
