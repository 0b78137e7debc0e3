package vivo

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/pointcloud"
	"volcast/internal/testutil/gate"
)

// completeStore encodes every frame the way a store read must see it —
// each occupied cell once as a layered block — and assembles the store
// only afterwards: the all-frames-first reference a progressive build
// must match byte for byte.
func completeStore(t *testing.T, v *pointcloud.Video, g *cell.Grid, ss []int) *Store {
	t.Helper()
	enc := codec.NewEncoder(codec.DefaultParams()).Layered(uint8(len(ss)))
	frames := make([]*FrameBlocks, len(v.Frames))
	for fi, f := range v.Frames {
		fb := &FrameBlocks{Occupied: g.OccupiedCells(f), Blocks: map[cell.ID]*codec.Block{}}
		for id, idxs := range g.Partition(f) {
			fb.Blocks[id] = enc.EncodeCell(id, f, idxs, g.Bounds(id))
		}
		frames[fi] = fb
	}
	st, err := NewStore(g, ss, v.FPS, frames)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func writeBytes(t *testing.T, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteStore(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildStoreServesFrameZeroFirst stalls a build after frame 0 with a
// gating encode cache: BuildStore must return with frame 0 readable,
// reads of frame 1 must wait for the release, concurrent readers of
// every accessor must be race-clean while the build runs, and the
// finished store must serialize byte-identically to one whose frames
// were all encoded before it existed.
func TestBuildStoreServesFrameZeroFirst(t *testing.T) {
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{Frames: 4, FPS: 30, PointsPerFrame: 3000, Seed: 5, Sway: 1})
	b, _ := video.Bounds()
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		t.Fatal(err)
	}
	ss := []int{1, 2}
	frame0Cells := g.OccupiedCells(video.Frames[0]).Count()
	gc := gate.New(frame0Cells)
	defer gc.Release()

	built := make(chan *Store, 1)
	go func() {
		st, err := BuildStore(video, g, codec.NewEncoder(codec.DefaultParams()).Cached(gc), ss)
		if err != nil {
			t.Error(err)
		}
		built <- st
	}()
	var st *Store
	select {
	case st = <-built:
	case <-time.After(10 * time.Second):
		t.Fatal("BuildStore did not return while frames 1+ were held")
	}
	if st == nil {
		t.FailNow()
	}
	if st.NumFrames() != 4 {
		t.Fatalf("NumFrames = %d, want 4", st.NumFrames())
	}
	if fb := st.Frame(0); fb == nil || fb.Occupied.Count() != frame0Cells {
		t.Fatal("frame 0 not readable after BuildStore returned")
	}

	// The builder is parked inside frame 1's encodes: a read of frame 1
	// must wait for them.
	deadline := time.Now().Add(10 * time.Second)
	for !gc.Holding() {
		if time.Now().After(deadline) {
			t.Fatal("the build never reached frame 1")
		}
		time.Sleep(time.Millisecond)
	}
	frame1 := make(chan *FrameBlocks, 1)
	go func() { frame1 <- st.Frame(1) }()
	select {
	case <-frame1:
		t.Fatal("Frame(1) returned before its encode was released")
	case <-time.After(50 * time.Millisecond):
	}

	// Readers of every accessor, started mid-build, each compare what
	// they see with the reference once the frame is theirs to read.
	ref := completeStore(t, video, g, ss)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for fi := 0; fi < st.NumFrames(); fi++ {
				if got, want := st.FrameBytes(fi), ref.FrameBytes(fi); got != want {
					t.Errorf("reader %d: FrameBytes(%d) = %d, want %d", r, fi, got, want)
				}
				st.Frame(fi).Occupied.ForEach(func(id cell.ID) {
					if !bytes.Equal(st.LayeredBlock(fi, id).Data, ref.LayeredBlock(fi, id).Data) {
						t.Errorf("reader %d: frame %d cell %d differs", r, fi, id)
					}
					if st.Block(fi, id, 2).Size() != st.SizeOracle(fi)(id, 2) {
						t.Errorf("reader %d: size oracle disagrees with Block", r)
					}
				})
			}
		}(r)
	}
	written := make(chan []byte, 1)
	go func() {
		var buf bytes.Buffer
		if err := WriteStore(&buf, st); err != nil {
			t.Error(err)
		}
		written <- buf.Bytes()
	}()

	gc.Release()
	if fb := <-frame1; fb == nil {
		t.Error("Frame(1) is nil after the release")
	}
	wg.Wait()
	if err := st.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := <-written, writeBytes(t, ref); !bytes.Equal(got, want) {
		t.Errorf("progressive store serializes to %d bytes, the complete reference to %d (or differs)", len(got), len(want))
	}
}

// TestStoreWaitOnAssembledStores: Wait on a built store returns once its
// build ends, and stores assembled by ReadStore or NewStore, which never
// had a build running, are complete from the start.
func TestStoreWaitOnAssembledStores(t *testing.T) {
	st := buildTestStore(t, 2, 500)
	if err := st.Wait(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStore(bytes.NewReader(writeBytes(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Wait(); err != nil {
		t.Fatal(err)
	}
	empty, err := NewStore(st.Grid(), []int{1}, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Wait(); err != nil || empty.Frame(0) != nil {
		t.Error("an empty assembled store must be complete and frameless")
	}
}

// TestNewStoreRejectsHoles: an assembled frame must carry one block per
// occupied cell, so no rung of any occupied cell can be missing.
func TestNewStoreRejectsHoles(t *testing.T) {
	st := buildTestStore(t, 1, 2_000)
	if err := st.Wait(); err != nil {
		t.Fatal(err)
	}
	fb := st.Frame(0)
	if _, err := NewStore(st.Grid(), st.Strides(), 30, []*FrameBlocks{fb}); err != nil {
		t.Fatalf("complete frame rejected: %v", err)
	}
	holed := &FrameBlocks{Occupied: fb.Occupied, Blocks: map[cell.ID]*codec.Block{}}
	for id, b := range fb.Blocks {
		holed.Blocks[id] = b
	}
	for id := range holed.Blocks {
		delete(holed.Blocks, id)
		break
	}
	if _, err := NewStore(st.Grid(), st.Strides(), 30, []*FrameBlocks{holed}); err == nil {
		t.Error("frame missing an occupied cell's block accepted")
	}
	if _, err := NewStore(st.Grid(), st.Strides(), 30, []*FrameBlocks{nil}); err == nil {
		t.Error("nil frame accepted")
	}
}
