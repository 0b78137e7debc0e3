package hub

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"volcast/internal/cell"
	"volcast/internal/codec"
	"volcast/internal/faultnet"
	"volcast/internal/metrics"
	"volcast/internal/obs"
	"volcast/internal/testutil/leakcheck"
	"volcast/internal/vivo"
	"volcast/internal/wire"
)

// TestPushFrameCellOrdering proves the fan-out preserves each
// subscriber's cell order while several subscribers share the frame's
// serialized buffers: every delivered frame's cell sequence must equal
// the visibility request order, for every subscriber.
func TestPushFrameCellOrdering(t *testing.T) {
	snap := leakcheck.Take()
	h, addr := startHub(t, Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, ReapAfter: -1,
		Vanilla: true,
	})

	// Ground truth: the vanilla request order over the same store content,
	// filtered to cells that actually have a stride-1 block.
	store, err := testFactory(nil)(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := func(frame uint32) []uint32 {
		fi := int(frame) % store.NumFrames()
		req := vivo.VanillaRequest(store.Frame(fi).Occupied)
		ids := make([]uint32, 0, len(req.Cells))
		for _, cr := range req.Cells {
			if store.Block(fi, cr.ID, cr.Stride) != nil {
				ids = append(ids, uint32(cr.ID))
			}
		}
		return ids
	}

	const subs = 3
	const wantFrames = 4
	conns := make([]net.Conn, subs)
	for i := range conns {
		conns[i] = rawJoin(t, addr, uint32(i+1), 0)
	}
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			order := map[uint32][]uint32{}
			completes := 0
			for completes < wantFrames {
				conns[i].SetReadDeadline(time.Now().Add(10 * time.Second))
				raw, typ, err := readRawMessage(conns[i])
				if err != nil {
					t.Errorf("sub %d: %v", i, err)
					return
				}
				switch typ {
				case wire.TypeCellData:
					m, err := wire.ReadMessage(bytes.NewReader(raw))
					if err != nil {
						t.Errorf("sub %d: decode: %v", i, err)
						return
					}
					cd := m.(*wire.CellData)
					order[cd.Frame] = append(order[cd.Frame], cd.CellID)
				case wire.TypeFrameComplete:
					m, _ := wire.ReadMessage(bytes.NewReader(raw))
					fc := m.(*wire.FrameComplete)
					got := order[fc.Frame]
					if len(got) == 0 {
						continue // joined mid-frame
					}
					completes++
					want := wantOrder(fc.Frame)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("sub %d frame %d: cell order %v, want %v", i, fc.Frame, got, want)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, c := range conns {
		c.Close()
	}
	h.Shutdown()
	snap.Check(t)
}

// TestFullQueueEndsSubscriberFrame: a subscriber whose queue fills
// mid-frame gets no cell after the failed enqueue — the frame ends for
// it there — and its delivery memory and cell accounting list only what
// was enqueued, while a second subscriber in the same frame still gets
// every cell and a FrameComplete that counts them all.
func TestFullQueueEndsSubscriberFrame(t *testing.T) {
	reg := metrics.NewRegistry()
	_, s := bareSession(t, Config{NewStore: testFactory(nil), Vanilla: true, Metrics: reg})
	want := vivo.VanillaRequest(s.store.Frame(0).Occupied).Cells
	if len(want) < 4 {
		t.Fatalf("frame 0 has %d cells, need at least 4", len(want))
	}
	room := len(want) / 2

	full := bareSub(0, true)
	full.out = make(chan outBuf, room) // fills halfway through the frame
	roomy := bareSub(0, true)
	if !s.addSub(full) || !s.addSub(roomy) {
		t.Fatal("addSub")
	}
	s.pushFrame(0)

	got := cellDatas(drainMsgs(t, full))
	if len(got) != room {
		t.Fatalf("full subscriber got %d messages, want its %d queue slots of cells", len(got), room)
	}
	for i, cd := range got {
		if cell.ID(cd.CellID) != want[i].ID {
			t.Fatalf("full subscriber cell %d is %d, want %d (request order)", i, cd.CellID, want[i].ID)
		}
	}
	if len(full.sent) != room {
		t.Errorf("full subscriber's sent map lists %d cells, want the %d enqueued", len(full.sent), room)
	}
	for _, cr := range want[:room] {
		if _, ok := full.sent[cr.ID]; !ok {
			t.Errorf("sent map lacks enqueued cell %d", cr.ID)
		}
	}

	msgs := drainMsgs(t, roomy)
	if cds := cellDatas(msgs); len(cds) != len(want) {
		t.Fatalf("second subscriber got %d cells, want %d", len(cds), len(want))
	}
	fc, ok := msgs[len(msgs)-1].(*wire.FrameComplete)
	if !ok || fc.Cells != uint32(len(want)) {
		t.Fatalf("second subscriber's last message %v, want a FrameComplete counting %d cells", msgs[len(msgs)-1], len(want))
	}
	if len(roomy.sent) != len(want) {
		t.Errorf("second subscriber's sent map lists %d cells, want %d", len(roomy.sent), len(want))
	}
	// The full subscriber's FrameComplete found no room either; the frame
	// counters carry the per-subscriber counts that FrameComplete reports,
	// and only two enqueues failed: the first cell past the full queue
	// (nothing later was attempted) and the FrameComplete.
	snap := reg.Snapshot().Counters
	if got, wantCells := snap["hub.session.0.cells"], int64(room+len(want)); got != wantCells {
		t.Errorf("hub.session.0.cells = %d, want %d (%d enqueued + %d)", got, wantCells, room, len(want))
	}
	if got := snap["hub.session.0.drops.enqueue"]; got != 2 {
		t.Errorf("hub.session.0.drops.enqueue = %d, want 2 (one cell, one FrameComplete)", got)
	}
}

// TestWriteLoopRecordsSendSpans asserts the hub send path's stage
// coverage: a traced session must attribute serialize AND send spans to
// the subscriber, so deadline misses blame the right stage.
func TestWriteLoopRecordsSendSpans(t *testing.T) {
	snap := leakcheck.Take()
	tr := obs.New(1 << 12)
	h, addr := startHub(t, Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, ReapAfter: -1,
		Vanilla: true, Trace: tr,
	})

	conn := rawJoin(t, addr, 7, 0)
	completes := 0
	for completes < 3 {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, typ, err := readRawMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if typ == wire.TypeFrameComplete {
			completes++
		}
	}
	conn.Close()
	h.Shutdown()

	stages := map[obs.Stage]map[int32]bool{} // stage -> frames covered
	var user int32 = -2
	for _, sp := range tr.Snapshot() {
		if sp.User >= 0 {
			user = sp.User
		}
		if stages[sp.Stage] == nil {
			stages[sp.Stage] = map[int32]bool{}
		}
		stages[sp.Stage][sp.Frame] = true
	}
	if user < 0 {
		t.Fatal("no per-user spans recorded")
	}
	for _, st := range []obs.Stage{obs.StageCull, obs.StageSerialize, obs.StageSend} {
		if len(stages[st]) == 0 {
			t.Errorf("stage %v recorded no spans", st)
		}
	}
	// Send spans must cover (nearly) every serialized frame, not just the
	// first: the vectored writer records one per FrameComplete marker.
	if s, ser := len(stages[obs.StageSend]), len(stages[obs.StageSerialize]); s < ser-1 {
		t.Errorf("send spans cover %d frames, serialize %d — send under-reported", s, ser)
	}
	snap.Check(t)
}

// TestFlushSpansEveryFrameComplete writes two whole frames in one
// vectored write: each FrameComplete must get a Send span that covers
// that write, not just the first (the second used to be recorded with a
// zero start and zero duration), and a batch ending on a FrameComplete
// leaves no span open for the next frame.
func TestFlushSpansEveryFrameComplete(t *testing.T) {
	tr := obs.New(64)
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go io.Copy(io.Discard, client)

	h := &Hub{cfg: Config{Trace: tr, Metrics: metrics.NewRegistry(), WriteTimeout: 10 * time.Second}}
	w := &batchWriter{s: &session{hub: h}, c: &subscriber{conn: server, sub: 3}, scratch: make([][]byte, maxWriteBatch)}
	before := time.Since(tr.Epoch())
	for frame := uint32(1); frame <= 2; frame++ {
		for _, m := range []wire.Message{
			&wire.CellData{Frame: frame, CellID: 9, Stride: 1, Payload: make([]byte, 512)},
			&wire.FrameComplete{Frame: frame, Cells: 1, Bytes: 512},
		} {
			b, err := wire.NewBuffer(m)
			if err != nil {
				t.Fatal(err)
			}
			fc := int32(-1)
			if _, ok := m.(*wire.FrameComplete); ok {
				fc = int32(frame)
			}
			w.batch = append(w.batch, outBuf{buf: b, fc: fc})
		}
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	after := time.Since(tr.Epoch())

	var sends []obs.Span
	for _, sp := range tr.Snapshot() {
		if sp.Stage == obs.StageSend {
			sends = append(sends, sp)
		}
	}
	if len(sends) != 2 {
		t.Fatalf("%d send spans, want one per FrameComplete (2)", len(sends))
	}
	for i, sp := range sends {
		if int(sp.Frame) != i+1 || sp.User != 3 {
			t.Errorf("span %d is frame %d user %d, want frame %d user 3", i, sp.Frame, sp.User, i+1)
		}
		if sp.Start < before.Nanoseconds() || sp.Dur <= 0 || sp.Start+sp.Dur > after.Nanoseconds() {
			t.Errorf("frame %d send span [%d, +%d] ns does not cover the write inside [%d, %d] ns",
				sp.Frame, sp.Start, sp.Dur, before.Nanoseconds(), after.Nanoseconds())
		}
	}
	if sends[0].Start != sends[1].Start || sends[0].Dur != sends[1].Dur {
		t.Errorf("one write, two spans: [%d, +%d] vs [%d, +%d] ns",
			sends[0].Start, sends[0].Dur, sends[1].Start, sends[1].Dur)
	}
	if !w.sendStart.IsZero() || w.sendDur != 0 {
		t.Error("a batch ending on a FrameComplete left a send span open")
	}
}

// TestWriterShortWrite drives the vectored writer into a faultnet
// short-write: the client must observe a valid prefix of the stream
// followed by a prompt connection error (no hang, no corrupt frame
// parsed), and the hub must count the writer death.
func TestWriterShortWrite(t *testing.T) {
	snap := leakcheck.Take()
	reg := metrics.NewRegistry()
	cfg := Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, ReapAfter: -1,
		Vanilla: true, Metrics: reg, Logf: t.Logf,
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := faultnet.NewListener(ln, faultnet.Config{
		Seed:              11,
		ShortWriteProb:    1,
		ShortWriteAtWrite: [2]int64{4, 5}, // cut the 4th write op on every conn
	})
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := h.Serve(fln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { h.Shutdown(); <-serveDone })

	conn := rawJoin(t, addr(ln), 1, 0)
	defer conn.Close()
	valid := 0
	for {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		raw, _, err := readRawMessage(conn)
		if err != nil {
			break // the injected cut — must arrive promptly, not hang
		}
		if _, err := wire.ReadMessage(bytes.NewReader(raw)); err != nil {
			t.Fatalf("corrupt message before the cut: %v", err)
		}
		valid++
	}
	// Write 1 is the Welcome; the cut lands a few messages into the first
	// burst, so at least one post-handshake message must have parsed.
	if valid == 0 {
		t.Error("no valid messages before the injected short write")
	}
	waitFor(t, "writer death accounting", 5*time.Second, func() bool {
		return reg.Snapshot().Counters["transport.writer.deaths"] >= 1
	})
	h.Shutdown()
	<-serveDone
	snap.Check(t)
}

func addr(ln net.Listener) string { return ln.Addr().String() }

// TestServePullReusesSharedBuffers: two pull clients requesting the same
// frame must share serialized buffers — the first populates the frame
// cache (misses), the second hits it — and both must receive identical
// payload bytes.
func TestServePullReusesSharedBuffers(t *testing.T) {
	snap := leakcheck.Take()
	reg := metrics.NewRegistry()
	h, hubAddr := startHub(t, Config{
		NewStore: testFactory(nil), HeartbeatEvery: -1, ReapAfter: -1,
		Metrics: reg,
	})

	store, err := testFactory(nil)(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var refs []wire.CellRef
	for _, cr := range vivo.VanillaRequest(store.Frame(0).Occupied).Cells {
		refs = append(refs, wire.CellRef{CellID: uint32(cr.ID), Stride: uint8(cr.Stride)})
	}

	pullJoin := func(id uint32) net.Conn {
		conn, err := net.DialTimeout("tcp", hubAddr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteMessage(conn, &wire.Hello{
			ClientID: id, Name: "pull", Flags: wire.HelloFlagPull,
		}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if msg, err := wire.ReadMessage(conn); err != nil {
			t.Fatal(err)
		} else if _, ok := msg.(*wire.Welcome); !ok {
			t.Fatalf("expected Welcome, got %v", msg.Type())
		}
		return conn
	}
	fetch := func(conn net.Conn) map[uint32][]byte {
		if err := wire.WriteMessage(conn, &wire.SegmentRequest{Frame: 0, Cells: refs}); err != nil {
			t.Fatal(err)
		}
		got := map[uint32][]byte{}
		for {
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			msg, err := wire.ReadMessage(conn)
			if err != nil {
				t.Fatal(err)
			}
			switch m := msg.(type) {
			case *wire.CellData:
				got[m.CellID] = m.Payload
			case *wire.FrameComplete:
				if int(m.Cells) != len(got) {
					t.Errorf("FrameComplete.Cells = %d, received %d", m.Cells, len(got))
				}
				return got
			}
		}
	}

	c1 := pullJoin(1)
	got1 := fetch(c1)
	counters := reg.Snapshot().Counters
	if misses := counters["hub.session.0.pull.misses"]; misses == 0 {
		t.Error("first pull recorded no cache misses")
	}
	if hits := counters["hub.session.0.pull.hits"]; hits != 0 {
		t.Errorf("first pull recorded %d hits on a cold cache", hits)
	}

	c2 := pullJoin(2)
	got2 := fetch(c2)
	counters = reg.Snapshot().Counters
	if hits := counters["hub.session.0.pull.hits"]; hits != int64(len(refs)) {
		t.Errorf("second pull hits = %d, want %d (full reuse)", hits, len(refs))
	}
	if len(got1) != len(got2) || len(got1) == 0 {
		t.Fatalf("pull clients received %d vs %d cells", len(got1), len(got2))
	}
	for id, p1 := range got1 {
		if !bytes.Equal(p1, got2[id]) {
			t.Errorf("cell %d: payload diverges between pull clients", id)
		}
	}

	c1.Close()
	c2.Close()
	h.Shutdown()
	snap.Check(t)
}

// BenchmarkWriterSteadyState measures the per-message cost of the full
// hub send path — pooled framing, enqueue, vectored writer — against a
// live TCP loopback. The acceptance bar is zero allocations per message
// in the steady state.
func BenchmarkWriterSteadyState(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	reg := metrics.NewRegistry()
	h := &Hub{cfg: Config{
		Metrics: reg, Logf: func(string, ...any) {},
		WriteTimeout: 10 * time.Second, HeartbeatEvery: -1, QueueDepth: 1024,
	}}
	s := &session{hub: h}
	s.cDropsEnqueue = reg.Counter("bench.drops")
	c := &subscriber{
		conn:  conn,
		out:   make(chan outBuf, 1024),
		done:  make(chan struct{}),
		drain: make(chan struct{}),
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(c)
	}()

	msg := &wire.CellData{Frame: 1, CellID: 2, Stride: 1, Payload: make([]byte, 1024)}
	// The producer runs in lockstep bursts and waits for the writer to
	// drain between them, so the circulating buffer set stays bounded and
	// the pool actually recycles (unbounded in-flight depth would read as
	// pool misses, measuring queue pressure rather than the send path).
	syncPoint := func() {
		for len(c.out) > 0 {
			time.Sleep(5 * time.Microsecond)
		}
	}
	// Warm the pool, the writer's scratch arrays, and the kernel-facing
	// iovec cache, then let one GC settle so the timed loop starts from a
	// quiesced heap.
	for i := 0; i < 128; i++ {
		buf, err := wire.NewBuffer(msg)
		if err != nil {
			b.Fatal(err)
		}
		s.enqueue(c, outBuf{buf: buf, fc: -1})
	}
	syncPoint()
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := wire.NewBuffer(msg)
		if err != nil {
			b.Fatal(err)
		}
		if !s.enqueue(c, outBuf{buf: buf, fc: -1}) {
			b.Fatal("enqueue failed below queue depth")
		}
		if i%64 == 63 {
			syncPoint()
		}
	}
	syncPoint()
	b.StopTimer()
	c.close()
	<-writerDone
	conn.Close()
	<-drained
}

// TestEnqueueDropUsesHoistedCounter pins the hot-path counter hoist:
// session.enqueue charges drops to the *metrics.Counter resolved once in
// New (Hub.cEnqueueDrops), not to a per-call registry lookup. The hoist
// must still land every drop on the same registry key the dashboards
// read, both hub-wide and per session.
func TestEnqueueDropUsesHoistedCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	h, err := New(Config{
		NewStore: func(uint32, codec.BlockCache) (*vivo.Store, error) { return nil, nil },
		Metrics:  reg,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	s := &session{hub: h}
	s.cDropsEnqueue = reg.Counter("hub.session.0.drops.enqueue")
	c := &subscriber{
		out:   make(chan outBuf, 1),
		done:  make(chan struct{}),
		drain: make(chan struct{}),
	}
	fill := func() outBuf {
		b, err := wire.NewBuffer(&wire.Ping{Seq: 1})
		if err != nil {
			t.Fatal(err)
		}
		return outBuf{buf: b, fc: -1}
	}
	if !s.enqueue(c, fill()) {
		t.Fatal("enqueue below queue depth failed")
	}
	const drops = 3
	for i := 0; i < drops; i++ {
		if s.enqueue(c, fill()) {
			t.Fatal("enqueue above queue depth succeeded")
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["transport.drops.enqueue"]; got != drops {
		t.Errorf("transport.drops.enqueue = %d, want %d", got, drops)
	}
	if got := snap.Counters["hub.session.0.drops.enqueue"]; got != drops {
		t.Errorf("hub.session.0.drops.enqueue = %d, want %d", got, drops)
	}
}
