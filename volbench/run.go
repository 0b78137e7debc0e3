package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"volcast/internal/blockcache"
	"volcast/internal/hub"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/pointcloud"
	"volcast/internal/trace"
	"volcast/internal/transport"
)

// encodeTierBytes sizes the hub's shared encode tier to hold every scene
// of a workload, so a reaped scene rebuilds from it.
const encodeTierBytes = 128 << 20

// setupTimeout bounds how long a set-up may take before the run is
// declared hung.
const setupTimeout = 60 * time.Second

// warmUp separates the end of set-up from the measurement window.
const warmUp = 2 * time.Second

// Span ring sizes for the traced pass: large enough that no span of a
// 60-second run is overwritten.
const (
	hubSpanCap    = 1 << 19
	clientSpanCap = 1 << 16
)

// passOpts selects what one pass over a workload does.
type passOpts struct {
	// setups is how many cold set-ups to time; the last reps of them
	// continue into a measurement window each, of window/reps.
	setups, reps int
	window       time.Duration
	// traced turns on per-layer observation: the hub and client tracers,
	// the BuildStore timer's encode probe and the stream check.
	traced bool
}

// joinRecord is one viewer join (one RunClient call) and everything
// observed about it from outside the client.
type joinRecord struct {
	name   string
	scene  uint32
	dialAt time.Time
	conns  []*connRecord
	// firstFrame is when the join first held a complete frame; ready
	// closes at that moment.
	firstFrame time.Time
	ready      chan struct{}
	stats      transport.ClientStats
	err        error
	burst      []float64
	tracer     *obs.Tracer
}

// passResult is what a pass measured: every hub's set-up time and joins,
// and each measured hub's window.
type passResult struct {
	setupS []float64
	joins  []*joinRecord
	hubs   []*hubResult
}

// hubResult is what one measured hub's window saw.
type hubResult struct {
	joins      []*joinRecord
	window     interval
	cpu        time.Duration
	allocBytes uint64
	gcPause    time.Duration
	// start/end hold the counters at the window edges; final holds them
	// after the measured hub's last frame.
	start, end, final map[string]int64
	sessionP99        []float64
	hubSpans          []obs.Span
	hubEpoch          time.Time
	// labels maps hub subscriber ids to their "scene<N>/<name>" label.
	labels  map[int32]string
	factory *storeFactory
	check   *checkStats
}

// pass runs a workload's viewers against fresh hubs.
type pass struct {
	w       *workload
	seed    int64
	content []*pointcloud.Video
	study   *trace.Study
	plans   [][]joinPlan
	opts    passOpts
	res     passResult
	// start is when the pass began; viewers' pose streams run from it
	// across the pass's hubs.
	start time.Time

	// mu guards the joins of the hub being run.
	mu      sync.Mutex
	joinSeq int
	pending []*joinRecord
}

func newPass(w *workload, seed int64, content []*pointcloud.Video, study *trace.Study, opts passOpts) *pass {
	p := &pass{w: w, seed: seed, content: content, study: study, opts: opts}
	p.plans = w.plans(seed, p.hubWindow())
	return p
}

// userTurn is how long a viewer replays one study user before moving to
// the next.
const userTurn = time.Second

// studySeed fixes the user study every run replays, as a trace-driven
// evaluation replays one recorded study. How many points a viewer's
// cells carry follows where its users stand, and a study generated from
// each run's seed moved join-churn's e2e median by up to a third between
// seeds; the run's seed moves the content and the churn schedule.
const studySeed = 1

// viewerTrace is the pose stream of viewer v for a join that starts at
// offset into the pass. Viewers take turns through the study's users —
// even viewers its headset half, odd viewers its phone half — for
// userTurn each, so every viewer spreads its load over many users.
func viewerTrace(study *trace.Study, v int, offset time.Duration) *trace.Trace {
	half := len(study.Traces) / 2
	first := study.Traces[0]
	turn := int(userTurn.Seconds() * float64(first.Hz))
	skip := int(offset.Seconds() * float64(first.Hz))
	out := &trace.Trace{UserID: v, Hz: first.Hz}
	for i := skip; i < first.Len(); i++ {
		u := v%2*half + (i/turn+v/2)%half
		out.Samples = append(out.Samples, study.Traces[u].Samples[i])
	}
	return out
}

// hubWindow is the measurement window of each measured hub.
func (p *pass) hubWindow() time.Duration { return p.opts.window / time.Duration(p.opts.reps) }

// run times every set-up and measures the last reps hubs.
func (p *pass) run() (*passResult, error) {
	p.start = time.Now()
	for i := 0; i < p.opts.setups; i++ {
		if err := p.runHub(i >= p.opts.setups-p.opts.reps); err != nil {
			return nil, err
		}
	}
	return &p.res, nil
}

// hubCounters are the hub-registry counters read at the window edges.
func hubCounters(scenes int) []string {
	names := []string{"transport.drops.enqueue", "transport.drops.slowclient",
		"hub.sessions.store_builds", "hub.sessions.reaped",
		"blockcache.encode.hits", "blockcache.encode.misses", "transport.heartbeat.misses"}
	for k := 0; k < scenes; k++ {
		prefix := fmt.Sprintf("hub.session.%d.", k)
		names = append(names, prefix+"frames", prefix+"bytes")
	}
	return names
}

// processCounters are the process-registry counters the client side and
// the decode tier write.
var processCounters = []string{"blockcache.decode.hits", "blockcache.decode.misses"}

func readCounters(hubReg *metrics.Registry, scenes int) map[string]int64 {
	out := map[string]int64{}
	for _, n := range hubCounters(scenes) {
		out[n] = hubReg.Counter(n).Value()
	}
	for _, n := range processCounters {
		out[n] = metrics.Default().Counter(n).Value()
	}
	return out
}

// resetDecodeTier empties the process-wide decode tier, so every set-up
// starts from cold client caches.
func resetDecodeTier() {
	blockcache.SetBudgetMB(0)
	blockcache.SetBudgetMB(blockcache.DefaultBudgetMB)
}

// runHub starts a hub, brings every viewer to its first frame and, when
// measure is set, measures a window.
func (p *pass) runHub(measure bool) error {
	runtime.GC()
	resetDecodeTier()
	reg := metrics.NewRegistry()
	var tracer *obs.Tracer
	var probe *cacheProbe
	if p.opts.traced {
		tracer = obs.New(hubSpanCap)
		probe = &cacheProbe{}
	}
	factory := newStoreFactory(p.content, probe)
	t0 := time.Now()
	h, err := hub.New(hub.Config{
		NewStore:   factory.newStore,
		EncodeTier: blockcache.New("encode", encodeTierBytes, reg),
		FPS:        p.w.fps,
		Logf:       func(string, ...any) {},
		Trace:      tracer,
		Metrics:    reg,
		ReapAfter:  p.w.reapAfter,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- h.Serve(ln) }()
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var windowStart time.Time
	firsts := make([]*joinRecord, len(p.plans))
	var vwg, cwg sync.WaitGroup
	check := &checkStats{}
	for i := range p.plans {
		first := p.newJoin(p.plans[i][0].scene)
		firsts[i] = first
		v := &viewer{
			p: p, idx: i, addr: addr, factory: factory,
			started: started, windowStart: &windowStart,
			cwg: &cwg, check: check,
			// The stream check follows the first viewer of the traced pass.
			tee: p.opts.traced && i == 0,
		}
		plan := p.plans[i]
		if !measure {
			plan = plan[:1]
		}
		vwg.Add(1)
		go func() {
			defer vwg.Done()
			v.run(ctx, first, plan)
		}()
	}

	shutdown := func() error {
		cancel()
		if !waitTimeout(&vwg, 30*time.Second) {
			return fmt.Errorf("hang: viewers did not stop")
		}
		h.Shutdown()
		select {
		case err := <-serveDone:
			if err != nil {
				return err
			}
		case <-time.After(30 * time.Second):
			return fmt.Errorf("hang: hub did not stop")
		}
		if !waitTimeout(&cwg, 30*time.Second) {
			return fmt.Errorf("hang: stream check did not finish")
		}
		return nil
	}

	// Set-up ends when every viewer holds a frame; its time is counted to
	// the first one.
	deadline := time.After(setupTimeout)
	for _, j := range firsts {
		select {
		case <-j.ready:
		case <-deadline:
			shutdown()
			return fmt.Errorf("hang: set-up took over %v", setupTimeout)
		}
	}
	firstAt := firsts[0].firstFrame
	for _, j := range firsts[1:] {
		if j.firstFrame.Before(firstAt) {
			firstAt = j.firstFrame
		}
	}
	p.res.setupS = append(p.res.setupS, firstAt.Sub(t0).Seconds())
	if !measure {
		p.res.joins = append(p.res.joins, p.takeJoins()...)
		return shutdown()
	}

	// Measurement window, after a warm-up that lets the decode tier and
	// the hub's per-subscriber state settle: set-up already timed the
	// cold start.
	time.Sleep(warmUp)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	windowStart = time.Now()
	hr := &hubResult{factory: factory, check: check}
	hr.start = readCounters(reg, p.w.scenes)
	close(started)

	sampleDone := make(chan struct{})
	var p99s []float64
	go func() {
		defer close(sampleDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			for _, si := range h.SessionInfos() {
				if si.Subscribers > 0 && si.WindowFrames > 0 {
					p99s = append(p99s, si.P99MS)
				}
			}
		}
	}()

	time.Sleep(time.Until(windowStart.Add(p.hubWindow())))
	hr.window = interval{windowStart, time.Now()}
	hr.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	hr.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	hr.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	hr.end = readCounters(reg, p.w.scenes)
	if err := shutdown(); err != nil {
		return err
	}
	<-sampleDone
	hr.sessionP99 = p99s
	hr.final = readCounters(reg, p.w.scenes)
	hr.joins = p.takeJoins()
	p.res.joins = append(p.res.joins, hr.joins...)
	if tracer != nil {
		hr.hubSpans = tracer.Snapshot()
		hr.hubEpoch = tracer.Epoch()
		hr.labels = map[int32]string{}
		for _, s := range hr.hubSpans {
			if _, ok := hr.labels[s.User]; !ok && s.User >= 0 {
				hr.labels[s.User] = h.SubscriberLabel(int(s.User))
			}
		}
	}
	p.res.hubs = append(p.res.hubs, hr)
	return nil
}

// newJoin records a join of the hub being run; its Hello name is unique
// within the pass, so hub spans map back to it.
func (p *pass) newJoin(scene uint32) *joinRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.joinSeq++
	j := &joinRecord{name: fmt.Sprintf("j%d", p.joinSeq), scene: scene, ready: make(chan struct{})}
	if p.opts.traced {
		j.tracer = obs.New(clientSpanCap)
	}
	p.pending = append(p.pending, j)
	return j
}

// takeJoins hands over the joins of the hub just stopped.
func (p *pass) takeJoins() []*joinRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.pending
	p.pending = nil
	return out
}

// viewer runs one client's joins in order.
type viewer struct {
	p           *pass
	idx         int
	addr        string
	factory     *storeFactory
	started     <-chan struct{}
	windowStart *time.Time
	cwg         *sync.WaitGroup
	check       *checkStats
	tee         bool
}

func (v *viewer) run(ctx context.Context, first *joinRecord, plan []joinPlan) {
	for k, jp := range plan {
		rec := first
		if k > 0 {
			// Later joins dial at their start offset into the window.
			if !v.waitWindow(ctx) || !sleepUntil(ctx, v.windowStart.Add(jp.start)) {
				return
			}
			rec = v.p.newJoin(jp.scene)
		}
		// Every join leaves at its stop offset into the window.
		jctx, cancel := context.WithCancel(ctx)
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			if v.waitWindow(jctx) && sleepUntil(jctx, v.windowStart.Add(jp.stop)) {
				cancel()
			}
		}()
		v.join(jctx, rec, jp.scene)
		cancel()
		<-stopped
	}
}

// waitWindow waits for the measurement window to open, reporting false
// when ctx ends first.
func (v *viewer) waitWindow(ctx context.Context) bool {
	select {
	case <-v.started:
		return true
	case <-ctx.Done():
		return false
	}
}

// join runs one RunClient to completion, observing it through its dial,
// frame-latency callback and tracer.
func (v *viewer) join(ctx context.Context, rec *joinRecord, scene uint32) {
	p := v.p
	readyOnce := sync.Once{}
	cfg := transport.ClientConfig{
		Addr:      v.addr,
		ID:        uint32(v.idx + 1),
		Name:      rec.name,
		Scene:     scene,
		Trace:     viewerTrace(p.study, v.idx, time.Since(p.start)),
		Duration:  time.Hour, // the context ends the join
		Decode:    true,
		Layers:    p.w.layers,
		Tracer:    rec.tracer,
		Reconnect: true,
		OnFrameLatency: func(d time.Duration) {
			rec.burst = append(rec.burst, ms(d))
		},
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			at := time.Now()
			d := net.Dialer{Timeout: 5 * time.Second}
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			if rec.dialAt.IsZero() {
				rec.dialAt = at
			}
			cr := &connRecord{incarnation: -1, firstCell: map[int]time.Time{}}
			rec.conns = append(rec.conns, cr)
			var tee *io.PipeWriter
			if v.tee {
				pr, pw := io.Pipe()
				tee = pw
				v.cwg.Add(1)
				go func() {
					defer v.cwg.Done()
					v.check.run(pr, cr, scene, v.factory)
				}()
			}
			return newTap(c, cr, tee,
				func() int { return v.factory.incarnation(scene) },
				func(d frameDone) {
					readyOnce.Do(func() {
						rec.firstFrame = d.at
						close(rec.ready)
					})
				}), nil
		},
	}
	start := time.Now()
	rec.stats, rec.err = transport.RunClient(ctx, cfg)
	if rec.dialAt.IsZero() {
		rec.dialAt = start // never dialed
	}
}

// sleepUntil waits until t or ctx ends, reporting whether t was reached.
func sleepUntil(ctx context.Context, t time.Time) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// waitTimeout waits for wg up to d.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
