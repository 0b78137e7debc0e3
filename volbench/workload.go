package main

import (
	"fmt"
	"math/rand"
	"time"

	"volcast/internal/pointcloud"
)

// workload is one benchmark input shape. Everything random in it derives
// from the run's seed; the shape itself (sizes, rates, the join schedule)
// is fixed, so runs with different seeds stay comparable.
type workload struct {
	name string
	// points and frames size each scene's looped synthetic video; scenes
	// is how many distinct videos the hub hosts.
	points, frames, scenes int
	// fps is the rate every scene plays at.
	fps int
	// reps splits the measurement window over this many hubs, each with
	// its own set-up; the median lateness is the median over them, so a
	// tick the frame loop skipped moves one hub's figure only.
	reps int
	// setups is how many cold set-ups an untraced run times, the last
	// reps of them going on into a window; setup_s is their median.
	// Join-churn's set-up joins stay fewer than its rebuilt and warm
	// joins, so its ttff_p50_ms remains a warm-join time.
	setups int
	// clients is the number of concurrent decoding viewers.
	clients int
	// layers makes viewers advertise layered serving.
	layers bool
	// reapAfter is the hub's empty-session grace (<0 never reaps).
	reapAfter time.Duration
	// churn switches from one long join per viewer to rounds of joins
	// across the scenes.
	churn bool
}

// join-churn's frames hold 50K points rather than 100K: at 100K its two
// decoding viewers kept 2 cores two-thirds busy, and e2e p50 rose 24%
// under a background load of 30% of one core (13% at 50K) and by
// half while the host's other tenants slowed CPU time 20%.
var workloads = []workload{
	{name: "small-fast", points: 4_000, frames: 30, scenes: 1, fps: 60, reps: 4, setups: 9, clients: 2, reapAfter: -1},
	{name: "join-churn", points: 50_000, frames: 30, scenes: 3, fps: contentFPS, reps: 1, setups: 3, clients: 2, layers: true, reapAfter: 200 * time.Millisecond, churn: true},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// contentFPS is the synthetic videos' rate, the paper's 30 FPS.
const contentFPS = 30

// content generates the workload's scenes from the seed: scene k is the
// looped three-performer stage the study's viewers watch, seeded
// seed*7919+k, so scenes are distinct.
func (w *workload) content(seed int64) []*pointcloud.Video {
	out := make([]*pointcloud.Video, w.scenes)
	for k := range out {
		out[k] = pointcloud.SynthScene(pointcloud.DefaultSceneConfig(w.frames, w.points, seed*7919+int64(k)))
	}
	return out
}

// joinPlan is one scheduled join of a viewer: the scene and, relative to
// the measurement window's start, when it dials and when it leaves. The
// first join of every viewer is its set-up join: it dials as the hub
// starts and its start offset is ignored.
type joinPlan struct {
	scene       uint32
	start, stop time.Duration
}

// Churn round shape: each round one viewer (the leader) joins a scene,
// the other follows half a round later into the live scene, and both
// leave a beat before the next round so the scene empties and is reaped.
const (
	churnRound      = 4 * time.Second
	churnFirstLeave = 2 * time.Second
	churnGap        = 250 * time.Millisecond
)

// plans returns each viewer's joins for a window of the given length.
// Static workloads hold one join for the whole window. Churn cycles the
// scenes in a seeded order, so each run has the same mix of cold joins
// (first build of a scene), rebuilt joins (a reaped scene whose blocks
// are still in the encode tier) and warm joins (scene live).
func (w *workload) plans(seed int64, window time.Duration) [][]joinPlan {
	out := make([][]joinPlan, w.clients)
	if !w.churn {
		for i := range out {
			out[i] = []joinPlan{{scene: 0, stop: window}}
		}
		return out
	}
	order := rand.New(rand.NewSource(seed)).Perm(w.scenes)
	for i := range out {
		out[i] = []joinPlan{{scene: uint32(order[0]), stop: min(churnFirstLeave, window)}}
	}
	for r := 1; ; r++ {
		start := churnFirstLeave + churnGap + time.Duration(r-1)*churnRound
		if start >= window {
			break
		}
		stop := min(start+churnRound-churnGap, window)
		scene := uint32(order[r%w.scenes])
		for i := range out {
			s := start
			if i > 0 {
				s += churnRound / 2
			}
			if s < stop {
				out[i] = append(out[i], joinPlan{scene: scene, start: s, stop: stop})
			}
		}
	}
	return out
}
