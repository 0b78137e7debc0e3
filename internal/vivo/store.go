package vivo

import (
	"context"
	"fmt"
	"sort"

	"volcast/internal/blockcache"
	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/par"
	"volcast/internal/pointcloud"
	"volcast/internal/tier"
)

// FrameBlocks holds one frame's encoded cells, as a content server
// would store them: each occupied cell once, as a layered block whose
// layer prefixes serve every density rung of the store's ladder.
type FrameBlocks struct {
	// Occupied is the frame's occupied-cell set.
	Occupied *cell.Set
	// Blocks maps cellID → the cell's layered block; it holds exactly
	// the occupied cells.
	Blocks map[cell.ID]*codec.Block
}

// Store is the server-side content store: every frame of a video,
// partitioned on one grid and encoded per cell once, with a ladder of
// density rungs served as layer prefixes of that single encode. It is
// the data source for both the offline experiments and the TCP
// streaming server.
//
// A store from BuildStore fills in progressively, in playback order:
// every read of a frame (Frame and everything built on it) waits until
// that frame is encoded, so no reader ever sees a partly built frame.
type Store struct {
	grid    *cell.Grid
	strides []int
	ladder  tier.Ladder
	frames  []*FrameBlocks
	fps     int
	// ready[fi] closes once frames[fi] is written; nil when every frame
	// was present at construction.
	ready []chan struct{}
	// built closes once the background build has finished; err, written
	// before that close, is its outcome.
	built chan struct{}
	err   error
}

// BuildStore partitions and encodes the video in playback order. It
// encodes frame 0, returns the store, and keeps encoding frames 1…N−1
// one at a time in index order in the background. Each frame's cells
// are spread across the par pool (the encoder is stateless), so frame k
// is ready as early as the pool allows: the build stays ahead of a frame
// loop started at frame 0 whenever a frame encodes within one frame
// period. Reads of a frame wait
// for it, and Wait waits for the whole video. The strides slice must
// include 1 (full density); it is sorted and deduplicated. Cell slots
// are filled by index, so the store is identical for any pool width.
//
// Each cell is encoded exactly once as a layered block of len(strides)
// layers and every rung is served as a layer prefix of that block — one
// encode serves every tier, and a coarse rung's bytes alias the dense
// rung's buffer. An encoder that already requests layering
// (Params.Layers > 0) keeps its own layer count.
//
// Unless the encoder already carries a cache, encoding runs through the
// process-wide content-addressed encode tier (internal/blockcache), so
// temporally static cells are encoded once and reused across frames.
// Caching never changes the stored bytes — only whether the coder reruns.
func BuildStore(v *pointcloud.Video, g *cell.Grid, enc *codec.Encoder, strides []int) (*Store, error) {
	ss := dedupSorted(strides)
	if len(ss) == 0 || ss[0] != 1 {
		return nil, fmt.Errorf("vivo: strides must include 1, got %v", strides)
	}
	if enc.Cache == nil {
		enc = enc.Cached(blockcache.Blocks())
	}
	enc = enc.Layered(uint8(len(ss)))
	n := len(v.Frames)
	st := &Store{grid: g, strides: ss, ladder: tier.New(ss), fps: v.FPS,
		frames: make([]*FrameBlocks, n), ready: make([]chan struct{}, n), built: make(chan struct{})}
	for fi := range st.ready {
		st.ready[fi] = make(chan struct{})
	}

	// Wall-clock sampling happens inside the obs/metrics layers (Begin/End,
	// Time, TimeMillis) — the build path itself never reads the clock, so
	// the determinism check holds: stored bytes are a pure function of the
	// input video, grid, and encoder parameters.
	reg := metrics.Default()
	tr := obs.Default()
	stopBuild := reg.Timer("vivo.build_store").Time()
	encode := func(fi int) error {
		defer close(st.ready[fi])
		sp := tr.Begin(fi, obs.PipelineUser, obs.StageEncode)
		stopFrame := reg.Histogram("vivo.encode_frame_ms", nil).TimeMillis()
		fb, err := encodeFrame(v.Frames[fi], g, enc)
		stopFrame()
		sp.End()
		if err != nil {
			return err
		}
		st.frames[fi] = fb
		reg.Counter("vivo.frames_encoded").Inc()
		return nil
	}
	if n > 0 {
		if err := encode(0); err != nil {
			return nil, err
		}
	}
	go func() {
		var err error
		for fi := 1; fi < n && err == nil; fi++ {
			err = encode(fi)
		}
		// A failed frame stops the build: release the readers of the
		// frames it never reached (they read nil, as the failed one does).
		for _, ch := range st.ready {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
		stopBuild()
		st.err = err
		close(st.built)
	}()
	return st, nil
}

// NewStore assembles a store from pre-built frames — the ingestion path
// for content encoded elsewhere. The strides slice must include 1 and is
// sorted and deduplicated. Every frame must hold one non-nil block for
// each occupied cell and none for any other, so every rung of every
// occupied cell is servable.
func NewStore(g *cell.Grid, strides []int, fps int, frames []*FrameBlocks) (*Store, error) {
	ss := dedupSorted(strides)
	if len(ss) == 0 || ss[0] != 1 {
		return nil, fmt.Errorf("vivo: strides must include 1, got %v", strides)
	}
	for fi, fb := range frames {
		if fb == nil || fb.Occupied == nil {
			return nil, fmt.Errorf("vivo: frame %d is empty", fi)
		}
		if len(fb.Blocks) != fb.Occupied.Count() {
			return nil, fmt.Errorf("vivo: frame %d has %d blocks for %d occupied cells", fi, len(fb.Blocks), fb.Occupied.Count())
		}
		for id, b := range fb.Blocks {
			if b == nil || !fb.Occupied.Contains(id) {
				return nil, fmt.Errorf("vivo: frame %d cell %d: block missing or cell unoccupied", fi, id)
			}
		}
	}
	return &Store{grid: g, strides: ss, ladder: tier.New(ss), fps: fps, frames: frames}, nil
}

// Wait blocks until every frame is encoded and returns the build's
// error, if any; frames a failed build never produced read as nil.
// Stores not built by BuildStore are complete from the start.
func (s *Store) Wait() error {
	if s.built == nil {
		return nil
	}
	<-s.built
	return s.err
}

// encodeFrame partitions and encodes one frame, spreading its cells over
// the par pool: each cell once, as one layered block.
func encodeFrame(frame *pointcloud.Cloud, g *cell.Grid, enc *codec.Encoder) (*FrameBlocks, error) {
	occ := g.OccupiedCells(frame)
	parts := g.Partition(frame)
	ids := occ.IDs()
	blocks := make([]*codec.Block, len(ids))
	if err := par.ForEach(context.Background(), len(ids), func(i int) error {
		id := ids[i]
		blocks[i] = enc.EncodeCell(id, frame, parts[id], g.Bounds(id))
		return nil
	}); err != nil {
		return nil, err
	}
	fb := &FrameBlocks{Occupied: occ, Blocks: make(map[cell.ID]*codec.Block, len(ids))}
	for i, id := range ids {
		fb.Blocks[id] = blocks[i]
	}
	return fb, nil
}

func dedupSorted(in []int) []int {
	m := map[int]bool{}
	for _, s := range in {
		if s >= 1 {
			m[s] = true
		}
	}
	out := make([]int, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Grid returns the partition grid.
func (s *Store) Grid() *cell.Grid { return s.grid }

// FPS returns the content frame rate.
func (s *Store) FPS() int { return s.fps }

// NumFrames returns the stored frame count.
func (s *Store) NumFrames() int { return len(s.frames) }

// Strides returns the prepared density ladder.
func (s *Store) Strides() []int { return append([]int(nil), s.strides...) }

// Frame returns frame fi's blocks (fi wraps around for looped playback),
// waiting until the frame is encoded.
func (s *Store) Frame(fi int) *FrameBlocks {
	if len(s.frames) == 0 {
		return nil
	}
	fi %= len(s.frames)
	if fi < 0 {
		fi += len(s.frames)
	}
	if s.ready != nil {
		<-s.ready[fi]
	}
	return s.frames[fi]
}

// Ladder returns the stride↔tier ladder of the prepared rungs.
func (s *Store) Ladder() tier.Ladder { return s.ladder }

// layers returns the layer-prefix length that serves the prepared rung
// nearest to stride (ties resolve to the denser rung) from block b.
func (s *Store) layers(b *codec.Block, stride int) int {
	return s.ladder.LayersFor(s.ladder.RungFor(stride), b.Layers())
}

// Block returns the encoded block of a cell at (the nearest prepared
// stride to) the requested stride — a layer-prefix view of the cell's
// single encode — or nil when the cell is unoccupied.
func (s *Store) Block(fi int, id cell.ID, stride int) *codec.Block {
	b := s.LayeredBlock(fi, id)
	if b == nil {
		return nil
	}
	return b.TierView(s.layers(b, stride))
}

// LayeredBlock returns the cell's full layered block (the densest rung),
// from which any tier prefix or upgrade delta can be sliced, or nil when
// the cell is unoccupied.
func (s *Store) LayeredBlock(fi int, id cell.ID) *codec.Block {
	fb := s.Frame(fi)
	if fb == nil {
		return nil
	}
	return fb.Blocks[id]
}

// SizeOracle returns a Request.Bytes oracle for frame fi.
func (s *Store) SizeOracle(fi int) func(id cell.ID, stride int) int {
	return func(id cell.ID, stride int) int {
		if b := s.LayeredBlock(fi, id); b != nil {
			return len(b.Prefix(s.layers(b, stride)))
		}
		return 0
	}
}

// PointsOracle returns a Request.Points oracle for frame fi.
func (s *Store) PointsOracle(fi int) func(id cell.ID, stride int) int {
	return func(id cell.ID, stride int) int {
		if b := s.LayeredBlock(fi, id); b != nil {
			return b.PointsAtTier(s.layers(b, stride))
		}
		return 0
	}
}

// FrameBytes returns the full-density encoded size of frame fi (what the
// vanilla player downloads).
func (s *Store) FrameBytes(fi int) int {
	fb := s.Frame(fi)
	if fb == nil {
		return 0
	}
	total := 0
	for _, b := range fb.Blocks {
		total += b.Size() // full density is the whole layered block
	}
	return total
}

// AvgFrameBytes returns the mean full-density frame size.
func (s *Store) AvgFrameBytes() float64 {
	if len(s.frames) == 0 {
		return 0
	}
	total := 0
	for i := range s.frames {
		total += s.FrameBytes(i)
	}
	return float64(total) / float64(len(s.frames))
}
