package vivo

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/pointcloud"
)

func buildTestStore(t testing.TB, frames, points int) *Store {
	t.Helper()
	video := pointcloud.SynthVideo(pointcloud.SynthConfig{
		Frames: frames, FPS: 30, PointsPerFrame: points, Seed: 3, Sway: 1,
	})
	b, _ := video.Bounds()
	g, err := cell.NewGrid(b, cell.Size50)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildStore(video, g, codec.NewEncoder(codec.DefaultParams()), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestContainerRoundTrip writes a 3-rung store and reads it back: every
// cell's layered block must survive whole — payload, point count, layer
// offsets and per-layer point counts — so a loaded store serves the same
// prefixes and upgrade deltas as the one that was packed. It also
// reports the container's size against the summed full blocks it holds.
func TestContainerRoundTrip(t *testing.T) {
	orig := buildTestStore(t, 3, 10_000)
	var buf bytes.Buffer
	if err := WriteStore(&buf, orig); err != nil {
		t.Fatal(err)
	}
	packed := buf.Len()
	got, err := ReadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFrames() != orig.NumFrames() || got.FPS() != orig.FPS() {
		t.Fatalf("meta mismatch: %d/%d frames, %d/%d fps",
			got.NumFrames(), orig.NumFrames(), got.FPS(), orig.FPS())
	}
	if got.Grid().Size() != orig.Grid().Size() || got.Grid().NumCells() != orig.Grid().NumCells() {
		t.Fatal("grid mismatch")
	}
	gs, os := got.Strides(), orig.Strides()
	if len(gs) != len(os) {
		t.Fatalf("strides %v vs %v", gs, os)
	}
	for f := 0; f < orig.NumFrames(); f++ {
		ofb, gfb := orig.Frame(f), got.Frame(f)
		if !ofb.Occupied.Equal(gfb.Occupied) {
			t.Fatalf("frame %d occupancy mismatch", f)
		}
		if len(gfb.Blocks) != len(ofb.Blocks) {
			t.Fatalf("frame %d: %d vs %d blocks", f, len(gfb.Blocks), len(ofb.Blocks))
		}
		for id, ob := range ofb.Blocks {
			gb, ok := gfb.Blocks[id]
			if !ok {
				t.Fatalf("frame %d: missing cell %d", f, id)
			}
			if !bytes.Equal(gb.Data, ob.Data) || gb.NumPoints != ob.NumPoints || gb.CellID != ob.CellID {
				t.Fatalf("frame %d cell %d payload mismatch", f, id)
			}
			if gb.Layers() != len(os) || gb.Layers() != ob.Layers() {
				t.Fatalf("frame %d cell %d: reloaded block has %d layers, packed %d (ladder %v)",
					f, id, gb.Layers(), ob.Layers(), os)
			}
			if !reflect.DeepEqual(gb.LayerOffsets, ob.LayerOffsets) || !reflect.DeepEqual(gb.LayerPoints, ob.LayerPoints) {
				t.Fatalf("frame %d cell %d: layer offsets %v / points %v, packed %v / %v",
					f, id, gb.LayerOffsets, gb.LayerPoints, ob.LayerOffsets, ob.LayerPoints)
			}
			for _, stride := range os {
				if !bytes.Equal(got.Block(f, id, stride).Data, orig.Block(f, id, stride).Data) {
					t.Fatalf("frame %d cell %d stride %d: reloaded rung differs", f, id, stride)
				}
			}
		}
	}
	// The reloaded store decodes cleanly.
	var dec codec.Decoder
	if _, err := dec.DecodeFrame(got.Frame(0).Blocks); err != nil {
		t.Fatalf("reloaded store undecodable: %v", err)
	}

	// Each cell is stored once: the container is the full blocks plus a
	// few bytes of framing per cell, not one copy per rung.
	full := 0
	for f := 0; f < orig.NumFrames(); f++ {
		full += orig.FrameBytes(f)
	}
	ratio := float64(packed) / float64(full)
	t.Logf("container %d B for %d B of full blocks (%.3f×, ladder %v)", packed, full, ratio, os)
	if ratio > 1.05 {
		t.Errorf("container is %.3f× the summed full blocks, want ≤ 1.05×", ratio)
	}
}

func TestContainerRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"NOTAST",
		"VCSTOR",         // truncated after magic
		"VCSTOR\x09",     // wrong version
		"VCSTOR\x02\x1e", // truncated header
		"VCSTOR\x01\x1e", // version 1: per-rung copies, no layer offsets
	}
	for i, c := range cases {
		_, err := ReadStore(strings.NewReader(c))
		if err == nil {
			t.Errorf("case %d accepted", i)
		} else if !errors.Is(err, ErrBadContainer) {
			t.Errorf("case %d: error %v is not ErrBadContainer", i, err)
		}
	}
	// A version-1 container names its remedy.
	if _, err := ReadStore(strings.NewReader("VCSTOR\x01\x1e")); err == nil || !strings.Contains(err.Error(), "volpack") {
		t.Errorf("version-1 error %v does not say to re-pack with volpack", err)
	}
}

func TestContainerRejectsCorruptLengths(t *testing.T) {
	orig := buildTestStore(t, 1, 2_000)
	var buf bytes.Buffer
	if err := WriteStore(&buf, orig); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncate mid-payload: must error, not hang or panic.
	if _, err := ReadStore(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("truncated container accepted")
	}
}

func BenchmarkWriteStore(b *testing.B) {
	st := buildTestStore(b, 2, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteStore(&buf, st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadStore(b *testing.B) {
	st := buildTestStore(b, 2, 20_000)
	var buf bytes.Buffer
	if err := WriteStore(&buf, st); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadStore(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
