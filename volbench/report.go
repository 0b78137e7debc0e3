package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"volcast/internal/obs"
)

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricSpec struct {
	name, unit, better string
}

// e2eMetrics are what a viewer of the system sees, each steady enough
// across seeds to carry a regression bound; every untraced run reports
// each of them.
var e2eMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"e2e_p50_ms", "ms", "lower"},
	{"delivery_ratio", "1", "higher"},
	{"decoded_mpts_s", "Mpt/s", "higher"},
	{"ttff_p50_ms", "ms", "lower"},
	{"ttff_p90_ms", "ms", "lower"},
	{"cpu_ms_per_frame", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// codecModeNames are the position coders of the codec table.
var codecModeNames = []string{"morton", "octree", "octreeAC", "auto", "layered"}

// layerMetrics are the per-layer metrics every traced run reports. The
// e2e p99 rides with them, measured in the traced run's untraced pass:
// on small-fast it follows how often the host stalls the frame loop's
// timer wake-ups, too unsteady across runs for a bound.
var layerMetrics = func() []metricSpec {
	m := []metricSpec{
		{"e2e_p99_ms", "ms", "lower"},
		{"hub.cull_ms.p50", "ms", "lower"},
		{"hub.serialize_ms.p50", "ms", "lower"},
		{"hub.serialize_ms.p99", "ms", "lower"},
		{"hub.queue_wait_ms.p50", "ms", "lower"},
		{"hub.send_ms.p50", "ms", "lower"},
		{"hub.push_to_socket_ms.p99", "ms", "lower"},
		{"hub.bytes_per_frame", "B", "lower"},
		{"hub.drops_per_s", "1/s", "lower"},
		{"hub.tick_skips", "count", "lower"},
		{"hub.store_builds", "count", "lower"},
		{"hub.sessions_reaped", "count", "lower"},
		{"vivo.build_s", "s", "lower"},
		{"codec.encode_ns_per_pt", "ns", "lower"},
		{"codec.bits_per_pt", "bit", "lower"},
		{"codec.decode_ns_per_pt", "ns", "lower"},
		{"blockcache.encode.hit_rate", "1", "higher"},
		{"blockcache.decode.hit_rate", "1", "higher"},
		{"transport.decode_ms.p50", "ms", "lower"},
		{"transport.burst_ms.p50", "ms", "lower"},
		{"transport.burst_ms.p99", "ms", "lower"},
		{"transport.transit_ms.p50", "ms", "lower"},
		{"transport.frames_dropped", "count", "lower"},
		{"transport.reconnects", "count", "lower"},
		{"transport.heartbeat_misses", "count", "lower"},
		{"transport.delta_savings", "1", "higher"},
		{"runtime.alloc_bytes_per_frame", "B", "lower"},
		{"runtime.gc_pause_ms", "ms", "lower"},
		{"split.residual_ms", "ms", "lower"},
		{"split.anchor_gap_ms", "ms", "lower"},
		{"overhead.e2e_p50_ms", "ms", "lower"},
		{"overhead.e2e_p99_ms", "ms", "lower"},
		{"overhead.delivery_ratio", "1", "higher"},
		{"overhead.decoded_mpts_s", "Mpt/s", "higher"},
		{"overhead.cpu_ms_per_frame", "ms", "lower"},
		{"check.cells_checked", "count", "higher"},
		{"failed_ratio", "1", "lower"},
		{"e2e.samples", "count", "higher"},
	}
	for _, mode := range codecModeNames {
		m = append(m,
			metricSpec{"codec." + mode + ".encode_ns_per_pt", "ns", "lower"},
			metricSpec{"codec." + mode + ".decode_ns_per_pt", "ns", "lower"},
			metricSpec{"codec." + mode + ".bits_per_pt", "bit", "lower"},
		)
	}
	return m
}()

// frameKey names one frame delivered to one join.
type frameKey struct {
	join  string
	frame int
}

// contains reports whether t falls inside the interval, ends included.
func (iv interval) contains(t time.Time) bool { return !t.Before(iv.from) && !t.After(iv.to) }

// endToEnd computes a pass's e2e metrics (peak_rss_mb is the caller's:
// it spans the whole run) and its number of e2e samples. The median
// lateness is the median over the measured hubs' windows, so a tick the
// frame loop skipped in one window moves that window only; the p99 pools
// every window's frames, so it rests on as many samples beyond it as the
// run holds; the rates pool every window; time to first frame pools
// every join of the pass.
func endToEnd(w *workload, r *passResult) (map[string]float64, int) {
	var p50, late []float64
	var delivered, owed, points, secs float64
	var cpu time.Duration
	for _, hr := range r.hubs {
		h := hubEndToEnd(w, hr)
		p50 = append(p50, median(h.late))
		late = append(late, h.late...)
		delivered += float64(len(h.late))
		owed += h.owed
		points += h.points
		secs += hr.window.to.Sub(hr.window.from).Seconds()
		cpu += hr.cpu
	}
	var ttff []float64
	for _, j := range r.joins {
		if !j.firstFrame.IsZero() {
			ttff = append(ttff, ms(j.firstFrame.Sub(j.dialAt)))
		}
	}
	return map[string]float64{
		"setup_s":          median(r.setupS),
		"e2e_p50_ms":       median(p50),
		"e2e_p99_ms":       percentile(late, 0.99),
		"delivery_ratio":   ratio(delivered, owed),
		"decoded_mpts_s":   points / secs / 1e6,
		"ttff_p50_ms":      median(ttff),
		"ttff_p90_ms":      percentile(ttff, 0.90),
		"cpu_ms_per_frame": ratio(ms(cpu), delivered),
	}, len(late)
}

// hubE2E is what one measured hub's window delivered: each frame's
// lateness, the frames owed and the points decoded.
type hubE2E struct {
	late         []float64
	owed, points float64
}

func hubEndToEnd(w *workload, r *hubResult) hubE2E {
	fps := w.fps
	type incKey struct {
		scene uint32
		inc   int
	}
	arrivals := map[incKey][]arrival{}
	var conns []interval
	points := int64(0)
	for _, j := range r.joins {
		points += j.stats.Points
		for _, c := range j.conns {
			if c.incarnation < 0 {
				continue
			}
			end := c.closeAt
			if end.IsZero() {
				end = r.window.to
			}
			conns = append(conns, interval{c.welcomeAt, end})
			k := incKey{j.scene, c.incarnation}
			for _, d := range c.done {
				arrivals[k] = append(arrivals[k], arrival{d.frame, d.at})
			}
		}
	}
	var late []float64
	for _, arr := range arrivals {
		l := lateness(arr, scheduleAnchor(arr, fps), fps)
		for i, a := range arr {
			if r.window.contains(a.at) {
				late = append(late, l[i])
			}
		}
	}
	return hubE2E{late: late, owed: framesOwed(conns, r.window, fps), points: float64(points)}
}

// opsOf tallies a pass's operations over every join it made.
func opsOf(r *passResult) opCounts {
	var o opCounts
	for _, j := range r.joins {
		o.joins++
		if j.firstFrame.IsZero() {
			o.joinsNoFrame++
		}
		if j.err != nil {
			o.clientErrors++
		}
		o.reconnects += j.stats.Reconnects
		o.decodes += j.stats.DecodeErrors
		o.framesAbandoned += j.stats.FramesDropped
		for _, c := range j.conns {
			o.framesAbandoned += c.abandoned
			o.framesBegun += len(c.done) + c.abandoned
		}
		o.framesBegun += j.stats.FramesDropped
	}
	return o
}

// hubFrame is one subscriber-frame as the hub's spans record it.
type hubFrame struct {
	cullStart, cullEnd time.Time
	serEnd             time.Time
	sendStart, sendEnd time.Time
	have               uint8 // bit 0 cull, 1 serialize, 2 send
}

const haveAll = 7

// hubFrames joins the hub's spans into per-(join, frame) timelines. A
// subscriber's spans map to its join through SubscriberLabel, whose
// "scene<N>/<name>" carries the join's unique Hello name; the frame-wide
// cull span that preceded a serialize span is the one that ended closest
// before it started.
func hubFrames(r *hubResult) map[frameKey]*hubFrame {
	at := func(s obs.Span) (time.Time, time.Time) {
		start := r.hubEpoch.Add(time.Duration(s.Start))
		return start, start.Add(time.Duration(s.Dur))
	}
	culls := map[int32][]obs.Span{}
	for _, s := range r.hubSpans {
		if s.Stage == obs.StageCull && s.User == obs.PipelineUser {
			culls[s.Frame] = append(culls[s.Frame], s)
		}
	}
	name := func(sub int32) string {
		l := r.labels[sub]
		return l[strings.IndexByte(l, '/')+1:]
	}
	out := map[frameKey]*hubFrame{}
	lastSend := map[int32]time.Time{}
	get := func(s obs.Span) *hubFrame {
		k := frameKey{name(s.User), int(s.Frame)}
		hf := out[k]
		if hf == nil {
			hf = &hubFrame{}
			out[k] = hf
		}
		return hf
	}
	for _, s := range r.hubSpans {
		if s.User < 0 {
			continue
		}
		switch s.Stage {
		case obs.StageSerialize:
			hf := get(s)
			start, end := at(s)
			hf.serEnd = end
			hf.have |= 2
			best := time.Duration(math.MaxInt64)
			for _, c := range culls[s.Frame] {
				cs, ce := at(c)
				if gap := start.Sub(ce); gap >= -time.Millisecond && gap < best {
					best, hf.cullStart, hf.cullEnd = gap, cs, ce
					hf.have |= 1
				}
			}
		case obs.StageSend:
			hf := get(s)
			if s.Start < 0 {
				// The writer records a zero start for every FrameComplete
				// after the first in one vectored write; such a frame went
				// out in the write that ended the previous frame's send.
				hf.sendStart, hf.sendEnd = lastSend[s.User], lastSend[s.User]
			} else {
				hf.sendStart, hf.sendEnd = at(s)
				lastSend[s.User] = hf.sendEnd
			}
			hf.have |= 4
		}
	}
	return out
}

// split is one delivered frame cut into consecutive stages, each from
// the previous boundary to the next. Boundaries are made monotone, so a
// stage that overlapped the one before it (the writer starting before
// the last subscriber was enqueued) reads 0 and the stages add up to the
// frame's e2e from the hub's real frame start.
type split struct {
	cull, serialize, queueWait, send, transit, decode, real float64
}

func splitFrame(hf *hubFrame, arrived time.Time, decode time.Duration) split {
	t1 := hf.cullEnd
	t2 := later(t1, hf.serEnd)
	t3 := later(t2, hf.sendStart)
	t4 := later(t3, hf.sendEnd)
	rest := ms(arrived.Sub(t4))
	dec := math.Max(0, math.Min(ms(decode), rest))
	return split{
		cull:      ms(t1.Sub(hf.cullStart)),
		serialize: ms(t2.Sub(t1)),
		queueWait: ms(t3.Sub(t2)),
		send:      ms(t4.Sub(t3)),
		transit:   rest - dec,
		decode:    dec,
		real:      ms(arrived.Sub(hf.cullStart)),
	}
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// perLayer computes the traced pass's per-layer metrics from its spans,
// counters and probes; samples is its delivered-frame count. traced and
// untraced are the two passes' e2e metrics, for the tracing overhead.
func perLayer(w *workload, r *hubResult, samples int, traced, untraced map[string]float64) (map[string]float64, error) {
	out := map[string]float64{}
	secs := r.window.to.Sub(r.window.from).Seconds()
	delivered := float64(samples)
	inWin := func(s obs.Span) bool {
		return r.window.contains(r.hubEpoch.Add(time.Duration(s.Start)))
	}
	var cull, ser, send []float64
	for _, s := range r.hubSpans {
		if !inWin(s) {
			continue
		}
		d := float64(s.Dur) / 1e6
		switch {
		case s.Stage == obs.StageCull && s.User == obs.PipelineUser:
			cull = append(cull, d)
		case s.Stage == obs.StageSerialize && s.User >= 0:
			ser = append(ser, d)
		case s.Stage == obs.StageSend && s.User >= 0 && s.Start >= 0:
			send = append(send, d)
		}
	}
	out["hub.cull_ms.p50"] = median(cull)
	out["hub.serialize_ms.p50"] = median(ser)
	out["hub.serialize_ms.p99"] = percentile(ser, 0.99)
	out["hub.send_ms.p50"] = median(send)
	out["hub.push_to_socket_ms.p99"] = median(r.sessionP99)

	// Window deltas of the hub's counters.
	delta := func(name string) float64 { return float64(r.end[name] - r.start[name]) }
	var bytes, frames float64
	for k := 0; k < w.scenes; k++ {
		bytes += delta(fmt.Sprintf("hub.session.%d.bytes", k))
		frames += delta(fmt.Sprintf("hub.session.%d.frames", k))
	}
	out["hub.bytes_per_frame"] = ratio(bytes, delivered)
	out["hub.drops_per_s"] = (delta("transport.drops.enqueue") + delta("transport.drops.slowclient")) / secs
	scheduled := 0.0
	for k := 0; k < w.scenes; k++ {
		var conns []interval
		for _, j := range r.joins {
			if j.scene != uint32(k) {
				continue
			}
			for _, c := range j.conns {
				if !c.welcomeAt.IsZero() {
					conns = append(conns, interval{c.welcomeAt, later(c.closeAt, c.welcomeAt)})
				}
			}
		}
		scheduled += framesOwed(union(conns), r.window, w.fps)
	}
	out["hub.tick_skips"] = scheduled - frames
	out["hub.store_builds"] = float64(r.final["hub.sessions.store_builds"])
	out["hub.sessions_reaped"] = float64(r.final["hub.sessions.reaped"])
	hits, misses := float64(r.final["blockcache.encode.hits"]), float64(r.final["blockcache.encode.misses"])
	out["blockcache.encode.hit_rate"] = ratio(hits, hits+misses)
	dh, dm := delta("blockcache.decode.hits"), delta("blockcache.decode.misses")
	out["blockcache.decode.hit_rate"] = ratio(dh, dh+dm)

	var builds []float64
	for _, b := range r.factory.buildTimes() {
		builds = append(builds, b.Seconds())
	}
	out["vivo.build_s"] = median(builds)
	p := r.factory.probe
	out["codec.encode_ns_per_pt"] = ratio(float64(p.encodeNS.Load()), float64(p.points.Load()))
	out["codec.bits_per_pt"] = storeBitsPerPoint(r.factory)

	// Client side: decode spans, burst latency, transit, stats.
	var decodeMS, burst, transit []float64
	var decodeNS, points, deltaBytes, deltaFull float64
	var dropped, reconnects, hbMisses int
	hub := hubFrames(r)
	var splits []split
	for _, j := range r.joins {
		decodes := map[int]time.Duration{}
		for _, s := range j.tracer.Snapshot() {
			if s.Stage == obs.StageDecode {
				decodes[int(s.Frame)] = time.Duration(s.Dur)
				decodeNS += float64(s.Dur)
				decodeMS = append(decodeMS, float64(s.Dur)/1e6)
			}
		}
		points += float64(j.stats.Points)
		burst = append(burst, j.burst...)
		deltaBytes += float64(j.stats.DeltaBytes)
		deltaFull += float64(j.stats.DeltaFullBytes)
		dropped += j.stats.FramesDropped
		reconnects += j.stats.Reconnects
		hbMisses += j.stats.HeartbeatMisses
		for _, c := range j.conns {
			dropped += c.abandoned
			for _, d := range c.done {
				k := frameKey{j.name, d.frame}
				hf := hub[k]
				if hf == nil || hf.have != haveAll || !r.window.contains(d.at) {
					continue
				}
				if fc, ok := c.firstCell[d.frame]; ok {
					transit = append(transit, ms(fc.Sub(hf.sendStart)))
				}
				splits = append(splits, splitFrame(hf, d.at, decodes[d.frame]))
			}
		}
	}
	out["codec.decode_ns_per_pt"] = ratio(decodeNS, points)
	out["transport.decode_ms.p50"] = median(decodeMS)
	out["transport.burst_ms.p50"] = median(burst)
	out["transport.burst_ms.p99"] = percentile(burst, 0.99)
	out["transport.transit_ms.p50"] = median(transit)
	out["transport.frames_dropped"] = float64(dropped)
	out["transport.reconnects"] = float64(reconnects)
	out["transport.heartbeat_misses"] = float64(hbMisses) + float64(r.final["transport.heartbeat.misses"])
	out["transport.delta_savings"] = ratio(deltaFull-deltaBytes, deltaFull)
	out["runtime.alloc_bytes_per_frame"] = ratio(float64(r.allocBytes), delivered)
	out["runtime.gc_pause_ms"] = ms(r.gcPause)

	if len(splits) == 0 {
		return nil, fmt.Errorf("no delivered frame could be matched to its hub spans")
	}
	col := func(f func(split) float64) []float64 {
		v := make([]float64, len(splits))
		for i, s := range splits {
			v[i] = f(s)
		}
		return v
	}
	stages := []struct {
		name string
		f    func(split) float64
	}{
		{"cull", func(s split) float64 { return s.cull }},
		{"serialize", func(s split) float64 { return s.serialize }},
		{"queue_wait", func(s split) float64 { return s.queueWait }},
		{"send", func(s split) float64 { return s.send }},
		{"transit_reassembly", func(s split) float64 { return s.transit }},
		{"decode", func(s split) float64 { return s.decode }},
	}
	realMedian := median(col(func(s split) float64 { return s.real }))
	sum := 0.0
	for _, st := range stages {
		m := median(col(st.f))
		out["split."+st.name+"_ms"] = m
		sum += m
	}
	out["hub.queue_wait_ms.p50"] = out["split.queue_wait_ms"]
	out["split.e2e_real_p50_ms"] = realMedian
	out["split.residual_ms"] = realMedian - sum
	out["split.anchor_gap_ms"] = traced["e2e_p50_ms"] - realMedian
	out["split.frames"] = float64(len(splits))

	for _, m := range []string{"e2e_p50_ms", "e2e_p99_ms", "delivery_ratio", "decoded_mpts_s", "cpu_ms_per_frame"} {
		out["overhead."+m] = traced[m] - untraced[m]
	}
	out["check.cells_checked"] = float64(r.check.cells.Load())
	out["e2e.samples"] = float64(samples)
	return out, nil
}

// union merges overlapping intervals.
func union(in []interval) []interval {
	s := append([]interval(nil), in...)
	sort.Slice(s, func(i, j int) bool { return s[i].from.Before(s[j].from) })
	var out []interval
	for _, iv := range s {
		if n := len(out); n > 0 && !iv.from.After(out[n-1].to) {
			out[n-1].to = later(out[n-1].to, iv.to)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// storeBitsPerPoint is the stored layered blocks' size per point, over
// the first incarnation of every scene, read through Store accessors.
func storeBitsPerPoint(f *storeFactory) float64 {
	var bits, pts float64
	for scene := range f.content {
		st := f.store(uint32(scene), 0)
		if st == nil {
			continue
		}
		for fi := 0; fi < st.NumFrames(); fi++ {
			for _, id := range st.Frame(fi).Occupied.IDs() {
				if b := st.LayeredBlock(fi, id); b != nil {
					bits += float64(8 * b.Size())
					pts += float64(b.NumPoints)
				}
			}
		}
	}
	return ratio(bits, pts)
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints every metric by name with its unit, then the result
// line holding the specs' metrics. A spec metric that was not measured
// fails the run.
func writeResult(out io.Writer, specs []metricSpec, values map[string]float64, ops opCounts) error {
	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), e2eMetrics...), layerMetrics...) {
		units[m.name] = m.unit
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		u := units[strings.TrimPrefix(n, "traced.")]
		if u == "" {
			u = unitOf(n)
		}
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", n, values[n], u)
	}
	res := result{Correct: true, Attempted: ops.attempted(), Failed: ops.failed(), Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// unitOf names the unit of a detail metric from its suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	default:
		return "count"
	}
}
