package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"volcast/internal/wire"
)

// benchmarkFile is the repo's BENCHMARK.json, relative to this package.
var benchmarkFile = filepath.Join("..", "BENCHMARK.json")

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("%s: %v", benchmarkFile, err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNamesMatchBenchmarkFile keeps the metrics the program reports
// and the ones BENCHMARK.json declares identical: names, units and
// directions, in order.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	spec := loadBenchSpec(t)
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		want := e2eMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, program has %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		want := layerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, program has %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), e2eMetrics...), layerMetrics...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q unit %q breaks the naming rules", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	spec := loadBenchSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d = %s, program has %s", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if err := loadGuard(workloads[i].clients, 2); err != nil {
			t.Errorf("workload %s does not fit a 2-CPU box: %v", w.Name, err)
		}
	}
}

// TestChurnPlanMixesJoinKinds checks the churn schedule's fixed shape:
// every viewer starts in the same scene, rounds cycle the scenes, and
// followers join half a round after the leader.
func TestChurnPlanMixesJoinKinds(t *testing.T) {
	w, err := findWorkload("join-churn")
	if err != nil {
		t.Fatal(err)
	}
	plans := w.plans(1, 30*time.Second)
	a, b := plans[0], plans[1]
	if len(a) != len(b) || len(a) < 7 {
		t.Fatalf("plans have %d and %d joins", len(a), len(b))
	}
	if a[0].scene != b[0].scene {
		t.Error("set-up joins are in different scenes")
	}
	scenes := map[uint32]int{}
	for r := 1; r < len(a); r++ {
		if a[r].scene != b[r].scene || b[r].start-a[r].start != churnRound/2 {
			t.Errorf("round %d: leader %+v follower %+v", r, a[r], b[r])
		}
		if a[r].scene == a[r-1].scene {
			t.Errorf("round %d repeats the previous scene", r)
		}
		if a[r].start < a[r-1].stop {
			t.Errorf("round %d starts before the previous round left", r)
		}
		scenes[a[r].scene]++
	}
	if len(scenes) != w.scenes {
		t.Errorf("rounds visit %d scenes, want %d", len(scenes), w.scenes)
	}
}

// TestScannerSplitsStream feeds a server stream to the tap in awkward
// chunk sizes and checks what it reports.
func TestScannerSplitsStream(t *testing.T) {
	var stream []byte
	add := func(m wire.Message) {
		b, err := wire.EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, b...)
	}
	add(&wire.Welcome{FPS: 30, NumFrames: 30})
	add(&wire.CellData{Frame: 7, CellID: 1, Payload: make([]byte, 300)})
	add(&wire.CellData{Frame: 7, CellID: 2, Payload: make([]byte, 5)})
	add(&wire.FrameComplete{Frame: 7, Cells: 2, Bytes: 305})
	add(&wire.Ping{Seq: 1})
	add(&wire.CellData{Frame: 8, CellID: 1, Payload: make([]byte, 40)}) // FrameComplete lost
	add(&wire.CellData{Frame: 9, CellID: 1, Payload: make([]byte, 40)})
	add(&wire.FrameComplete{Frame: 9, Cells: 1, Bytes: 40})

	for _, chunk := range []int{1, 3, 7, 64, len(stream)} {
		rec := &connRecord{incarnation: -1, firstCell: map[int]time.Time{}}
		var frames []frameDone
		client, server := net.Pipe()
		server.Close()
		tap := newTap(client, rec, nil, func() int { return 4 }, func(d frameDone) { frames = append(frames, d) })
		for i := 0; i < len(stream); i += chunk {
			tap.scan.feed(stream[i:min(i+chunk, len(stream))], at(float64(i)))
		}
		if rec.incarnation != 4 || rec.welcomeAt.IsZero() {
			t.Errorf("chunk %d: welcome not seen", chunk)
		}
		if len(frames) != 2 || frames[0].frame != 7 || frames[0].cells != 2 || frames[1].frame != 9 {
			t.Errorf("chunk %d: frames %+v", chunk, frames)
		}
		if rec.abandoned != 1 {
			t.Errorf("chunk %d: abandoned = %d, want 1", chunk, rec.abandoned)
		}
		if len(rec.firstCell) != 3 {
			t.Errorf("chunk %d: first cells of %d frames, want 3", chunk, len(rec.firstCell))
		}
		tap.Close()
	}
}
