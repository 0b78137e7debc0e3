package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of samples:
// the smallest value with at least q of the samples at or below it. It
// sorts a copy, so callers may pass live slices. No samples read as NaN.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is percentile(samples, 0.5).
func median(samples []float64) float64 { return percentile(samples, 0.5) }

// minTail is how many samples must lie beyond a reported percentile for
// that percentile to be trusted.
const minTail = 10

// highestSupportedPercentile returns the highest of the candidate
// percentiles (ascending, in percent) that leaves at least minTail of n
// samples beyond it, or 0 when even the lowest does not.
func highestSupportedPercentile(n int, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if float64(n)*(100-p)/100 >= minTail-1e-9 {
			best = p
		}
	}
	return best
}

// arrival is one frame completed at a client: the hub frame number (the
// scene's tick counter) and when the client finished handling it.
type arrival struct {
	frame int
	at    time.Time
}

// scheduleAnchor returns the time frame 0 was due on a scene incarnation's
// frame schedule: the earliest arrival minus its frame's offset k/fps.
// Every arrival is then at or after its own due time, and a frame the
// frame loop produced late (or after skipped ticks) shows as late.
func scheduleAnchor(arrivals []arrival, fps int) time.Time {
	var anchor time.Time
	for i, a := range arrivals {
		t := a.at.Add(-frameOffset(a.frame, fps))
		if i == 0 || t.Before(anchor) {
			anchor = t
		}
	}
	return anchor
}

// frameOffset is frame k's offset k/fps from the schedule anchor.
func frameOffset(frame, fps int) time.Duration {
	return time.Duration(frame) * time.Second / time.Duration(fps)
}

// lateness returns each arrival's lateness in milliseconds against the
// incarnation's schedule: arrival minus (anchor + k/fps).
func lateness(arrivals []arrival, anchor time.Time, fps int) []float64 {
	out := make([]float64, len(arrivals))
	for i, a := range arrivals {
		out[i] = ms(a.at.Sub(anchor.Add(frameOffset(a.frame, fps))))
	}
	return out
}

// interval is a span of wall time [from, to).
type interval struct{ from, to time.Time }

// framesOwed returns how many frames a scene at fps owes its clients over
// their connected intervals (Welcome to leave), counting only the part of
// each interval inside the measurement window. Time between a leave and
// the next join owes nothing.
func framesOwed(conns []interval, window interval, fps int) float64 {
	total := 0.0
	for _, c := range conns {
		from, to := c.from, c.to
		if from.Before(window.from) {
			from = window.from
		}
		if to.After(window.to) {
			to = window.to
		}
		if to.After(from) {
			total += to.Sub(from).Seconds() * float64(fps)
		}
	}
	return total
}

// opCounts tallies the operations a run attempted and those that failed.
// Operations are joins plus frames begun at a client; a failure is a join
// that never held a frame, a client error, a reconnect, a frame abandoned
// mid-burst or a decode error.
type opCounts struct {
	joins, framesBegun                   int
	joinsNoFrame, clientErrors           int
	reconnects, framesAbandoned, decodes int
}

func (o opCounts) attempted() int { return o.joins + o.framesBegun }

func (o opCounts) failed() int {
	return o.joinsNoFrame + o.clientErrors + o.reconnects + o.framesAbandoned + o.decodes
}

// failedRatio is failed ÷ attempted (0 when nothing was attempted).
func (o opCounts) failedRatio() float64 {
	if o.attempted() == 0 {
		return 0
	}
	return float64(o.failed()) / float64(o.attempted())
}

func (o *opCounts) add(p opCounts) {
	o.joins += p.joins
	o.framesBegun += p.framesBegun
	o.joinsNoFrame += p.joinsNoFrame
	o.clientErrors += p.clientErrors
	o.reconnects += p.reconnects
	o.framesAbandoned += p.framesAbandoned
	o.decodes += p.decodes
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
