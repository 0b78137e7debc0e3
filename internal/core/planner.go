package core

import (
	"volcast/internal/cell"
	"volcast/internal/geom"
	"volcast/internal/metrics"
	"volcast/internal/multicast"
	"volcast/internal/obs"
	"volcast/internal/phy"
	"volcast/internal/vivo"
)

// Mode selects the delivery pipeline.
type Mode int

// The evaluated systems.
const (
	// ModeVanilla downloads every cell of every frame at full density.
	ModeVanilla Mode = iota
	// ModeViVo applies viewport+occlusion+distance optimizations per
	// user with unicast delivery (the multi-user ViVo of Table 1).
	ModeViVo
	// ModeMulticast is the paper's proposal: ViVo visibility plus
	// viewport-similarity multicast grouping with beam design.
	ModeMulticast
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeVanilla:
		return "vanilla"
	case ModeViVo:
		return "vivo"
	case ModeMulticast:
		return "multicast"
	default:
		return "mode?"
	}
}

// FrameContent points at one user's content source (store + frame); the
// session engine uses it when users sit on different quality rungs.
type FrameContent struct {
	Store *vivo.Store
	Frame int
}

// FrameInput is everything the planner needs to schedule one frame.
type FrameInput struct {
	// Store is the encoded content; Frame indexes into it.
	Store *vivo.Store
	Frame int
	// PerUser optionally overrides Store/Frame per user (users at
	// different quality rungs read different stores; cross-store groups
	// then share no multicast payload).
	PerUser []FrameContent
	// Requests holds each user's fetch decision for this frame.
	Requests []vivo.Request
	// Positions are the users' receive-antenna positions.
	Positions []geom.Vec3
	// Bodies are the blockage cylinders in the room (typically one per
	// user; the planner excludes receivers per link itself).
	Bodies []phy.Body
	// CustomBeams enables multi-lobe beam design for groups.
	CustomBeams bool
	// RSSOffsetsDB optionally perturbs each user's link by a dB offset
	// (small-scale fading); len must equal Requests when non-nil.
	RSSOffsetsDB []float64
	// Seq tags the plan's tracing spans with the caller's frame number
	// (the session step or evaluation frame). It does not affect the plan.
	Seq int
}

// FramePlan is the planner's schedule for one frame.
type FramePlan struct {
	// Groups partitions user indices: singletons are unicast, larger
	// groups multicast their overlapped cells.
	Groups [][]int
	// Users carries the per-user bytes and unicast rates used.
	Users []multicast.User
	// PlanTime is the total airtime (seconds) of the schedule.
	PlanTime float64
	// Airtime is the MAC's post-overhead fraction for this user count.
	Airtime float64

	problem *multicast.Problem
}

// AchievableFPS converts the plan's airtime into a frame rate, capped at
// the content rate.
func (p *FramePlan) AchievableFPS(capFPS float64) float64 {
	if p.PlanTime <= 0 {
		return capFPS
	}
	f := p.Airtime / p.PlanTime
	if f > capFPS {
		return capFPS
	}
	return f
}

// OverlapBytes returns Sm for a member set of the planned frame.
func (p *FramePlan) OverlapBytes(members []int) int {
	return p.problem.OverlapBytes(members)
}

// Planner builds per-frame delivery schedules on one network.
//
// Plan mutates the network's shared blockage state, so a Planner must not
// be driven from multiple goroutines; parallel evaluations each build
// their own Planner (and Network).
type Planner struct {
	Net *Network
	// Metrics receives plan timings and airtime stats; nil disables
	// instrumentation (every metrics instrument is nil-safe).
	Metrics *metrics.Registry
	// Trace receives per-frame plan and beam-design spans; nil disables
	// tracing (every tracer method is nil-safe).
	Trace *obs.Tracer
}

// NewPlanner returns a planner for the network.
func NewPlanner(net *Network) *Planner { return &Planner{Net: net} }

// overlapBytes returns Sm for a member set: the commonly requested cells,
// counted at the densest stride any member wants (the single multicast
// copy must satisfy the most demanding member).
func overlapBytes(store *vivo.Store, frame int, reqs []vivo.Request, members []int) int {
	if len(members) == 0 {
		return 0
	}
	// Seed from the first member, then intersect in place; the temporary
	// map per further member is sized up front, and an emptied
	// intersection short-circuits the remaining members.
	common := make(map[cell.ID]int, len(reqs[members[0]].Cells)) // cell -> min stride
	for _, c := range reqs[members[0]].Cells {
		common[c.ID] = c.Stride
	}
	for _, m := range members[1:] {
		if len(common) == 0 {
			return 0
		}
		cur := make(map[cell.ID]int, len(reqs[m].Cells))
		for _, c := range reqs[m].Cells {
			cur[c.ID] = c.Stride
		}
		for id, st := range common {
			st2, ok := cur[id]
			if !ok {
				delete(common, id)
				continue
			}
			if st2 < st {
				common[id] = st2
			}
		}
	}
	size := store.SizeOracle(frame)
	total := 0
	for id, st := range common {
		total += size(id, st)
	}
	return total
}

// excludeNearAny drops bodies within 0.3 m of any receiver position: a
// user does not block their own link.
func excludeNearAny(bodies []phy.Body, rxs []geom.Vec3) []phy.Body {
	out := make([]phy.Body, 0, len(bodies))
	for _, b := range bodies {
		keep := true
		for _, rx := range rxs {
			d := geom.V(b.Center.X-rx.X, 0, b.Center.Z-rx.Z)
			if d.Len() < 0.3 {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, b)
		}
	}
	return out
}

// Plan schedules one frame under the given mode. For unicast modes the
// partition is all-singletons; for ModeMulticast the greedy
// viewport-similarity grouping of the paper's Tm(k) model runs.
func (pl *Planner) Plan(mode Mode, in FrameInput) (*FramePlan, error) {
	defer pl.Metrics.Timer("core.plan").Time()()
	defer pl.Trace.Begin(in.Seq, obs.PipelineUser, obs.StagePlan).End()
	n := len(in.Requests)
	contentFor := func(u int) FrameContent {
		if len(in.PerUser) == n {
			return in.PerUser[u]
		}
		return FrameContent{Store: in.Store, Frame: in.Frame}
	}
	users := make([]multicast.User, n)
	for u := 0; u < n; u++ {
		c := contentFor(u)
		pl.Net.SetBodies(excludeNearAny(in.Bodies, in.Positions[u:u+1]))
		off := 0.0
		if len(in.RSSOffsetsDB) == n {
			off = in.RSSOffsetsDB[u]
		}
		users[u] = multicast.User{
			ID:              u,
			RequestBytes:    in.Requests[u].Bytes(c.Store.SizeOracle(c.Frame)),
			UnicastRateMbps: pl.Net.UnicastRateOffset(in.Positions[u], off),
		}
	}
	pl.Net.SetBodies(in.Bodies)

	prob := &multicast.Problem{
		Users: users,
		OverlapBytes: func(members []int) int {
			if len(members) == 0 {
				return 0
			}
			c0 := contentFor(members[0])
			for _, m := range members[1:] {
				if contentFor(m) != c0 {
					return 0 // different rungs share no payload
				}
			}
			return overlapBytes(c0.Store, c0.Frame, in.Requests, members)
		},
		MulticastRate: func(members []int) float64 {
			// Each candidate-group rate estimate runs a beam design (the
			// multi-lobe synthesis when CustomBeams is on), so attribute
			// it to the beam stage.
			defer pl.Trace.Begin(in.Seq, obs.PipelineUser, obs.StageBeam).End()
			pos := make([]geom.Vec3, len(members))
			var offs []float64
			if len(in.RSSOffsetsDB) == n {
				offs = make([]float64, len(members))
			}
			for i, m := range members {
				pos[i] = in.Positions[m]
				if offs != nil {
					offs[i] = in.RSSOffsetsDB[m]
				}
			}
			// Group members are receivers: their own bodies do not
			// block their links; everyone else remains a blocker.
			pl.Net.SetBodies(excludeNearAny(in.Bodies, pos))
			defer pl.Net.SetBodies(in.Bodies)
			return pl.Net.MulticastRateOffset(pos, offs, in.CustomBeams)
		},
	}
	var groups [][]int
	if mode == ModeMulticast {
		var err error
		groups, err = prob.Greedy()
		if err != nil {
			return nil, err
		}
	} else {
		groups = make([][]int, n)
		for u := range groups {
			groups[u] = []int{u}
		}
	}
	planTime := prob.PlanTime(groups)
	pl.Metrics.Counter("core.frames_planned").Inc()
	pl.Metrics.Histogram("core.frame_airtime_ms", nil).Observe(planTime * 1000)
	return &FramePlan{
		Groups:   groups,
		Users:    users,
		PlanTime: planTime,
		Airtime:  pl.Net.MAC.AirtimeFrac(n),
		problem:  prob,
	}, nil
}
