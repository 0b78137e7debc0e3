// Package gate provides a codec.BlockCache that holds encodes back until
// a test releases them, so a test can stop a progressive store build at
// a chosen point and observe what readers see meanwhile:
//
//	g := gate.New(frame0Cells) // let frame 0 through, hold the rest
//	st, _ := vivo.BuildStore(video, grid, enc.Cached(g), strides)
//	// ... frame 0 is readable, frame 1 is not ...
//	g.Release()
//
// It caches nothing: every call runs its encode, so the stored bytes are
// those of an uncached build.
package gate

import (
	"sync"
	"sync/atomic"

	"volcast/internal/codec"
)

// Cache lets its first open encodes through and blocks every later one
// until Release.
type Cache struct {
	open    int64
	calls   atomic.Int64
	release chan struct{}
	once    sync.Once
}

// New returns a gate that lets open encodes through before closing.
func New(open int) *Cache {
	return &Cache{open: int64(open), release: make(chan struct{})}
}

// Block implements codec.BlockCache.
func (c *Cache) Block(_ codec.CacheKey, encode func() *codec.Block) *codec.Block {
	if c.calls.Add(1) > c.open {
		<-c.release
	}
	return encode()
}

// Holding reports whether an encode is waiting at the gate.
func (c *Cache) Holding() bool {
	select {
	case <-c.release:
		return false
	default:
		return c.calls.Load() > c.open
	}
}

// Release opens the gate for good. It is safe to call more than once.
func (c *Cache) Release() {
	c.once.Do(func() { close(c.release) })
}
