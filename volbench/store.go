package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/pointcloud"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// storeStrides is the density ladder every scene is built with, the one
// volserve and volload use.
var storeStrides = []int{1, 2}

// storeFactory is the hub's NewStore: it builds a scene from the
// pre-generated content, times BuildStore and keeps every store it built
// (one per scene incarnation) for the stream check.
type storeFactory struct {
	content []*pointcloud.Video
	probe   *cacheProbe

	mu     sync.Mutex
	stores [][]*vivo.Store
	builds []time.Duration
}

func newStoreFactory(content []*pointcloud.Video, probe *cacheProbe) *storeFactory {
	return &storeFactory{content: content, probe: probe, stores: make([][]*vivo.Store, len(content))}
}

func (f *storeFactory) newStore(scene uint32, blocks codec.BlockCache) (*vivo.Store, error) {
	if int(scene) >= len(f.content) {
		return nil, fmt.Errorf("no scene %d", scene)
	}
	v := f.content[scene]
	b, ok := v.Bounds()
	if !ok {
		return nil, fmt.Errorf("scene %d: empty video", scene)
	}
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		return nil, err
	}
	enc := codec.NewEncoder(codec.DefaultParams())
	if blocks != nil {
		if f.probe != nil {
			blocks = probedBlocks{inner: blocks, p: f.probe}
		}
		enc = enc.Cached(blocks)
	}
	start := time.Now()
	st, err := vivo.BuildStore(v, g, enc, storeStrides)
	took := time.Since(start)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.stores[scene] = append(f.stores[scene], st)
	f.builds = append(f.builds, took)
	f.mu.Unlock()
	return st, nil
}

// incarnation is the index of the scene's latest store. A client welcomed
// into a scene is served by that store: a scene is rebuilt only after it
// was reaped, which needs it to be empty.
func (f *storeFactory) incarnation(scene uint32) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.stores[scene]) - 1
}

func (f *storeFactory) store(scene uint32, inc int) *vivo.Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	if inc < 0 || inc >= len(f.stores[scene]) {
		return nil
	}
	return f.stores[scene][inc]
}

func (f *storeFactory) buildTimes() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.builds...)
}

// cacheProbe sums the time and points of every encode that a miss in
// the encode tier the hub hands a scene runs.
type cacheProbe struct {
	encodeNS, points atomic.Int64
}

// probedBlocks wraps a codec.BlockCache with a cacheProbe.
type probedBlocks struct {
	inner codec.BlockCache
	p     *cacheProbe
}

func (b probedBlocks) Block(key codec.CacheKey, encode func() *codec.Block) *codec.Block {
	return b.inner.Block(key, func() *codec.Block {
		start := time.Now()
		blk := encode()
		b.p.encodeNS.Add(int64(time.Since(start)))
		b.p.points.Add(int64(blk.NumPoints))
		return blk
	})
}

// checkStats counts the stream check's comparisons.
type checkStats struct {
	cells, mismatches atomic.Int64
}

// run parses one connection's teed read stream with wire.ReadMessage and
// compares every CellData payload byte for byte with what the store
// holds for it: the layer prefix, or the enhancement delta for an
// upgrade. A stream cut mid-message at disconnect ends the check; any
// other parse error is a mismatch.
func (c *checkStats) run(r *io.PipeReader, rec *connRecord, scene uint32, f *storeFactory) {
	defer r.Close()
	for {
		msg, err := wire.ReadMessage(r)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.ErrClosedPipe) {
				c.mismatches.Add(1)
			}
			return
		}
		cd, ok := msg.(*wire.CellData)
		if !ok {
			continue
		}
		c.cells.Add(1)
		if want := expectedPayload(f.store(scene, rec.incarnation), cd); want == nil || !bytes.Equal(cd.Payload, want) {
			c.mismatches.Add(1)
		}
	}
}

// expectedPayload is what the hub must send for cd from st, or nil when
// st holds no such cell.
func expectedPayload(st *vivo.Store, cd *wire.CellData) []byte {
	if st == nil {
		return nil
	}
	blk := st.LayeredBlock(int(cd.Frame)%st.NumFrames(), cell.ID(cd.CellID))
	switch {
	case blk == nil:
		return nil
	case cd.Layers == 0:
		return blk.Data
	case cd.BaseLayers > 0:
		return blk.Delta(int(cd.BaseLayers), int(cd.Layers))
	default:
		return blk.Prefix(int(cd.Layers))
	}
}
