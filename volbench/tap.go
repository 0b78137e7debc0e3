package main

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"

	"volcast/internal/wire"
)

// scanHead is how many leading bytes of each message the scanner keeps:
// the 5-byte header plus the 16-byte FrameComplete body, which also
// covers the frame field of a CellData.
const scanHead = 5 + 16

// scanner splits the server-to-client byte stream into wire messages as
// the client reads it. It copies only message heads, never payloads, and
// reports each message at the read that completed it — the moment the
// client's wire.ReadMessage returns it.
type scanner struct {
	head  [scanHead]byte
	got   int // bytes of the current message consumed so far
	total int // 4 + the current message's length prefix, once known
	emit  func(typ wire.MsgType, body []byte, at time.Time)
}

// feed consumes bytes in stream order, all read at time at.
func (s *scanner) feed(p []byte, at time.Time) {
	for len(p) > 0 {
		if s.got < 4 {
			n := copy(s.head[s.got:4], p)
			s.got += n
			p = p[n:]
			if s.got < 4 {
				return
			}
			s.total = 4 + int(binary.LittleEndian.Uint32(s.head[:4]))
			if s.total < 5 {
				// A zero length prefix is a protocol error the client
				// reports itself; resynchronising is impossible.
				s.got, p = 0, nil
			}
			continue
		}
		take := s.total - s.got
		if take > len(p) {
			take = len(p)
		}
		if lim := min(len(s.head), s.total); s.got < lim {
			copy(s.head[s.got:lim], p[:take])
		}
		s.got += take
		p = p[take:]
		if s.got == s.total {
			s.emit(wire.MsgType(s.head[4]), s.head[5:min(len(s.head), s.total)], at)
			s.got = 0
		}
	}
}

// frameDone is one FrameComplete as the client handled it.
type frameDone struct {
	frame, cells int
	at           time.Time
}

// connRecord is what the tap saw of one client connection.
type connRecord struct {
	welcomeAt time.Time
	// incarnation is the scene incarnation the connection was welcomed
	// into (-1 before Welcome).
	incarnation int
	// done lists every FrameComplete in arrival order; firstCell maps a
	// frame to the arrival of its first CellData.
	done      []frameDone
	firstCell map[int]time.Time
	// abandoned counts frames whose cells arrived but whose
	// FrameComplete never did before the next frame's cells.
	abandoned int

	closeOnce sync.Once
	closeAt   time.Time
}

// tapConn wraps a client connection's reads. Writes and every other call
// go straight to the real connection.
type tapConn struct {
	net.Conn
	rec  *connRecord
	scan scanner
	// tee, when set, receives every byte read, for the correctness check.
	tee *io.PipeWriter
}

// newTap wraps conn. onWelcome resolves the incarnation a Welcome lands
// in; onFrame is told about every FrameComplete.
func newTap(conn net.Conn, rec *connRecord, tee *io.PipeWriter, onWelcome func() int, onFrame func(frameDone)) *tapConn {
	t := &tapConn{Conn: conn, rec: rec, tee: tee}
	open, openCells := -1, false
	t.scan.emit = func(typ wire.MsgType, body []byte, at time.Time) {
		switch typ {
		case wire.TypeWelcome:
			rec.welcomeAt = at
			rec.incarnation = onWelcome()
		case wire.TypeCellData:
			if len(body) < 4 {
				return
			}
			f := int(binary.LittleEndian.Uint32(body))
			if f != open {
				if openCells {
					rec.abandoned++
				}
				open, openCells = f, true
				rec.firstCell[f] = at
			}
		case wire.TypeFrameComplete:
			if len(body) < 8 {
				return
			}
			d := frameDone{
				frame: int(binary.LittleEndian.Uint32(body)),
				cells: int(binary.LittleEndian.Uint32(body[4:])),
				at:    at,
			}
			rec.done = append(rec.done, d)
			open, openCells = -1, false
			onFrame(d)
		}
	}
	return t
}

func (t *tapConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 {
		t.scan.feed(p[:n], time.Now())
		if t.tee != nil {
			// A failed tee only ends the check early; the checker reports
			// what it compared.
			_, _ = t.tee.Write(p[:n])
		}
	}
	return n, err
}

func (t *tapConn) Close() error {
	t.rec.closeOnce.Do(func() {
		t.rec.closeAt = time.Now()
		if t.tee != nil {
			t.tee.Close()
		}
	})
	return t.Conn.Close()
}
