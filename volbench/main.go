// Command volbench is volcast's end-to-end benchmark. It hosts the hub
// on loopback and drives decoding transport clients against it, then
// reports what a viewer sees — frame lateness against the scene's frame
// schedule, delivery ratio, decoded points per second, time to first
// frame, CPU per frame, memory and set-up time — and, in a traced run,
// what each layer (hub, vivo, codec, blockcache, transport, runtime)
// contributed. It observes every layer from outside, through public
// calls and the config it supplies; it adds no instrumentation to the
// program.
//
//	volbench --workload small-fast --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object: with --trace 0 it
// holds the end-to-end metrics, with --trace 1 the per-layer ones. A
// failed correctness check, the load guard or a hang exits non-zero
// without that line.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
	"volcast/internal/testutil/leakcheck"
	"volcast/internal/trace"
)

// watchdogAfter ends a run that has not finished, as a hang.
const watchdogAfter = 175 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("volbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: small-fast or join-churn")
	seed := fs.Int64("seed", 1, "seed for content, poses and the join schedule")
	seconds := fs.Int("seconds", 30, "length of the measurement window")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics, split check, stream check, codec table")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err == nil {
		err = loadGuard(w.clients, runtime.NumCPU())
	}
	if err != nil {
		fmt.Fprintf(stderr, "volbench: %v\n", err)
		return 2
	}
	watchdog := time.AfterFunc(watchdogAfter, func() {
		fmt.Fprintf(stderr, "volbench: hang: run still going after %v\n", watchdogAfter)
		os.Exit(3)
	})
	defer watchdog.Stop()

	// Pin the process-wide knobs the environment could otherwise move.
	blockcache.SetBudgetMB(blockcache.DefaultBudgetMB)
	par.SetWorkers(runtime.GOMAXPROCS(0))

	fmt.Fprintf(stdout, "volbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "host %s\n", hostBlock())
	genStart := time.Now()
	content := w.content(*seed)
	window := time.Duration(*seconds) * time.Second
	study := trace.GenerateStudy(int((window+2*setupTimeout).Seconds())*contentFPS, studySeed)
	fmt.Fprintf(stdout, "content %d scene(s) × %d frames × %d points, generated in %.2fs\n",
		w.scenes, w.frames, w.points, time.Since(genStart).Seconds())

	leaks := leakcheck.Take()
	values, ops, err := measure(w, *seed, content, study, window, *traced == 1, *traceDir, stdout)
	if err == nil {
		lc := &leakReport{}
		leaks.CheckWithin(lc, 10*time.Second)
		err = lc.err
	}
	if err != nil {
		fmt.Fprintf(stderr, "volbench: FAILED: %v\n", err)
		return 1
	}
	values["peak_rss_mb"] = peakRSSMB()
	values["failed_ratio"] = ops.failedRatio()
	specs := e2eMetrics
	if *traced == 1 {
		specs = layerMetrics
	}
	fmt.Fprintf(stdout, "ops attempted=%d failed=%d (joins %d, frames begun %d; no-frame joins %d, client errors %d, reconnects %d, abandoned frames %d, decode errors %d)\n",
		ops.attempted(), ops.failed(), ops.joins, ops.framesBegun, ops.joinsNoFrame, ops.clientErrors, ops.reconnects, ops.framesAbandoned, ops.decodes)
	if err := writeResult(stdout, specs, values, ops); err != nil {
		fmt.Fprintf(stderr, "volbench: FAILED: %v\n", err)
		return 1
	}
	return 0
}

// measure runs the passes a run needs and returns its metrics.
func measure(w *workload, seed int64, content []*pointcloud.Video, study *trace.Study, window time.Duration, traced bool, traceDir string, stdout io.Writer) (map[string]float64, opCounts, error) {
	var ops opCounts
	runPass := func(opts passOpts) (*passResult, map[string]float64, int, error) {
		r, err := newPass(w, seed, content, study, opts).run()
		if err != nil {
			return nil, nil, 0, err
		}
		ops.add(opsOf(r))
		if ops.decodes > 0 {
			return nil, nil, 0, fmt.Errorf("%d decode error(s) at clients", ops.decodes)
		}
		vals, samples := endToEnd(w, r)
		if samples == 0 {
			return nil, nil, 0, errors.New("no frame was delivered in the window")
		}
		tail := highestSupportedPercentile(samples, []float64{50, 90, 99, 99.9})
		fmt.Fprintf(stdout, "pass traced=%v: %d window(s), %d e2e samples (highest percentile with %d beyond: p%g), set-ups %.3v s\n",
			opts.traced, len(r.hubs), samples, minTail, tail, r.setupS)
		return r, vals, samples, nil
	}
	if !traced {
		_, vals, _, err := runPass(passOpts{setups: w.setups, reps: w.reps, window: window})
		return vals, ops, err
	}

	// The traced comparison measures one hub per pass, so its per-layer
	// figures come from one window.
	_, plain, _, err := runPass(passOpts{setups: 1, reps: 1, window: window})
	if err != nil {
		return nil, ops, err
	}
	pr, tvals, samples, err := runPass(passOpts{setups: 1, reps: 1, window: window, traced: true})
	if err != nil {
		return nil, ops, err
	}
	r := pr.hubs[0]
	layers, err := perLayer(w, r, samples, tvals, plain)
	if err != nil {
		return nil, ops, err
	}
	if n := r.check.mismatches.Load(); n > 0 {
		return nil, ops, fmt.Errorf("stream check: %d of %d cells differ from the store", n, r.check.cells.Load())
	}
	if r.check.cells.Load() == 0 {
		return nil, ops, errors.New("stream check compared no cells")
	}
	if err := checkSplit(layers); err != nil {
		return nil, ops, err
	}
	table, err := codecTable(pointcloud.SynthScene(pointcloud.DefaultSceneConfig(codecFrames, pointcloud.QualityLow.Points(), seed)))
	if err != nil {
		return nil, ops, err
	}
	for k, v := range table {
		layers[k] = v
	}
	layers["e2e_p99_ms"] = plain["e2e_p99_ms"]
	for name, v := range tvals {
		layers["traced."+name] = v
	}
	if err := writeSpans(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)), r); err != nil {
		fmt.Fprintf(stdout, "spans not written: %v\n", err)
	}
	return layers, ops, nil
}

// splitTolerance is how far the per-stage medians may sum from the e2e
// median, as a share of it. Medians of stages need not add exactly to
// the median of their sums; a larger gap means a stage is missing.
const splitTolerance = 0.25

// checkSplit fails a traced run whose stages do not add up to its e2e.
func checkSplit(layers map[string]float64) error {
	e2e, residual := layers["split.e2e_real_p50_ms"], layers["split.residual_ms"]
	if math.Abs(residual) > splitTolerance*e2e+0.05 {
		return fmt.Errorf("split check: stage medians miss the e2e median %.3f ms by %.3f ms", e2e, residual)
	}
	return nil
}

// loadGuard refuses a workload that would open more client connections
// than the machine has CPUs: past that, the run measures the scheduler.
func loadGuard(clients, nproc int) error {
	if clients > nproc {
		return fmt.Errorf("load guard: workload opens %d client connections but nproc is %d", clients, nproc)
	}
	return nil
}

// hostBlock describes where the run happened.
func hostBlock() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit)
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// leakReport adapts leakcheck's report to an error.
type leakReport struct{ err error }

func (*leakReport) Helper() {}

func (l *leakReport) Errorf(format string, args ...any) {
	l.err = fmt.Errorf(format, args...)
}

// codecFrames is how many paper-size frames the codec table codes.
const codecFrames = 2

// codecTable encodes and decodes paper-size frames (the paper's lowest
// rung, 330K points) with every position coder, one cell at a time on
// one goroutine, and reports ns/point both ways and bits/point. A decode
// error or a point count that does not round-trip fails the run.
func codecTable(v *pointcloud.Video) (map[string]float64, error) {
	b, ok := v.Bounds()
	if !ok {
		return nil, errors.New("codec table: empty video")
	}
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		return nil, err
	}
	params := map[string]codec.Params{
		"morton":   {QuantBits: 10},
		"octree":   {QuantBits: 10, Octree: true},
		"octreeAC": {QuantBits: 10, Octree: true, Arithmetic: true},
		"auto":     {QuantBits: 10, Auto: true},
		"layered":  {QuantBits: 10, Layers: uint8(len(storeStrides))},
	}
	out := map[string]float64{}
	for _, mode := range codecModeNames {
		enc := codec.NewEncoder(params[mode])
		var dec codec.Decoder
		var encNS, decNS, bits, pts float64
		for _, frame := range v.Frames {
			for id, idxs := range g.Partition(frame) {
				start := time.Now()
				blk := enc.EncodeCell(id, frame, idxs, g.Bounds(id))
				mid := time.Now()
				dc, err := dec.Decode(blk.Data)
				end := time.Now()
				if err != nil {
					return nil, fmt.Errorf("codec table: %s cell %d: %w", mode, id, err)
				}
				if len(dc.Points) != blk.NumPoints {
					return nil, fmt.Errorf("codec table: %s cell %d decoded %d of %d points", mode, id, len(dc.Points), blk.NumPoints)
				}
				encNS += float64(mid.Sub(start))
				decNS += float64(end.Sub(mid))
				bits += float64(8 * blk.Size())
				pts += float64(len(idxs))
			}
		}
		out["codec."+mode+".encode_ns_per_pt"] = encNS / pts
		out["codec."+mode+".decode_ns_per_pt"] = decNS / pts
		out["codec."+mode+".bits_per_pt"] = bits / pts
	}
	return out, nil
}

// writeSpans writes the traced pass's spans, hub and clients, one JSON
// object a line, with absolute times in nanoseconds since the window
// start.
func writeSpans(path string, r *hubResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	emit := func(src string, epoch time.Time, s obs.Span) {
		start := epoch.Add(time.Duration(s.Start)).Sub(r.window.from).Nanoseconds()
		fmt.Fprintf(bw, `{"src":%q,"stage":%q,"frame":%d,"user":%d,"start_ns":%d,"dur_ns":%d}`+"\n",
			src, s.Stage, s.Frame, s.User, start, s.Dur)
	}
	for _, s := range r.hubSpans {
		src := "hub"
		if l, ok := r.labels[s.User]; ok {
			src = "hub:" + l
		}
		emit(src, r.hubEpoch, s)
	}
	for _, j := range r.joins {
		for _, s := range j.tracer.Snapshot() {
			emit("client:"+j.name, j.tracer.Epoch(), s)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
