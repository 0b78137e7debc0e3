package hub_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/hub"
	"volcast/internal/metrics"
	"volcast/internal/pointcloud"
	"volcast/internal/testutil/gate"
	"volcast/internal/testutil/leakcheck"
	"volcast/internal/transport"
	"volcast/internal/vivo"
)

// gatedScene returns a NewStore factory whose build encodes frame 0 and
// then holds every later frame at the returned gate until it is released.
func gatedScene(t *testing.T) (func(uint32, codec.BlockCache) (*vivo.Store, error), *gate.Cache) {
	t.Helper()
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{
		Frames: 4, FPS: 30, PointsPerFrame: 1500, Seed: 7, Sway: 1,
	})
	b, _ := video.Bounds()
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		t.Fatal(err)
	}
	gc := gate.New(g.OccupiedCells(video.Frames[0]).Count())
	return func(uint32, codec.BlockCache) (*vivo.Store, error) {
		return vivo.BuildStore(video, g, codec.NewEncoder(codec.DefaultParams()).Cached(gc), []int{1, 2})
	}, gc
}

func serveHub(t *testing.T, cfg hub.Config) (*hub.Hub, string) {
	t.Helper()
	h, err := hub.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	go func() {
		if err := h.ListenAndServe("127.0.0.1:0", ready); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	return h, <-ready
}

// TestColdJoinOutlastingIdleTimeout: the scene's full build takes four
// client idle timeouts, yet the client is welcomed and shown frame 0
// before the build ends, its connection stays alive on heartbeats while
// frame 1 encodes, and frames flow once the build moves on — with no
// reconnect.
func TestColdJoinOutlastingIdleTimeout(t *testing.T) {
	snap := leakcheck.Take()
	const idle = 250 * time.Millisecond
	newStore, gc := gatedScene(t)
	defer gc.Release()
	h, addr := serveHub(t, hub.Config{
		NewStore: newStore, Logf: t.Logf, Metrics: metrics.NewRegistry(),
		HeartbeatEvery: 50 * time.Millisecond, ReapAfter: -1,
	})

	var mu sync.Mutex
	var firstFrame, releasedAt time.Time
	release := time.AfterFunc(4*idle, func() {
		mu.Lock()
		releasedAt = time.Now()
		mu.Unlock()
		gc.Release()
	})
	defer release.Stop()
	stats, err := transport.RunClient(context.Background(), transport.ClientConfig{
		Addr: addr, ID: 1, Name: "cold",
		Duration:    2 * time.Second,
		Reconnect:   true,
		IdleTimeout: idle,
		OnFrameLatency: func(time.Duration) {
			mu.Lock()
			if firstFrame.IsZero() {
				firstFrame = time.Now()
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	h.Shutdown()

	mu.Lock()
	defer mu.Unlock()
	if stats.Reconnects != 0 || stats.HeartbeatMisses != 0 {
		t.Errorf("reconnects %d, heartbeat misses %d; want 0 and 0", stats.Reconnects, stats.HeartbeatMisses)
	}
	if firstFrame.IsZero() || releasedAt.IsZero() || !firstFrame.Before(releasedAt) {
		t.Errorf("first frame at %v, build released at %v: frame 0 must arrive while the build still runs",
			firstFrame, releasedAt)
	}
	// Frames 1+ flow for the second after the release (30 FPS).
	if stats.Frames < 10 {
		t.Errorf("received %d frames, want ≥ 10", stats.Frames)
	}
	snap.Check(t)
}

// TestFrameLoopCountsTickSkips stalls frame 1's encode for twenty frame
// periods: the frame loop waits on it, its ticker drops the ticks that
// fall due meanwhile, and hub.session.<scene>.tick_skips must count them.
func TestFrameLoopCountsTickSkips(t *testing.T) {
	snap := leakcheck.Take()
	const fps, stall = 100, 200 * time.Millisecond
	newStore, gc := gatedScene(t)
	defer gc.Release()
	reg := metrics.NewRegistry()
	h, addr := serveHub(t, hub.Config{
		NewStore: newStore, Logf: t.Logf, Metrics: reg,
		FPS: fps, HeartbeatEvery: 50 * time.Millisecond, ReapAfter: -1,
	})

	release := time.AfterFunc(stall, gc.Release)
	defer release.Stop()
	stats, err := transport.RunClient(context.Background(), transport.ClientConfig{
		Addr: addr, ID: 1, Name: "stalled", Duration: stall + 500*time.Millisecond,
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	h.Shutdown()
	if stats.Frames < 2 {
		t.Errorf("received %d frames, want frames on both sides of the stall", stats.Frames)
	}
	// The stall spans about stall×fps = 20 periods; leave room for a
	// late release and a slow race-detector build.
	if got := reg.Counter("hub.session.0.tick_skips").Value(); got < 10 {
		t.Errorf("tick_skips = %d after a %v stall at %d FPS, want ≥ 10", got, stall, fps)
	}
	snap.Check(t)
}
