package serve

import (
	"errors"
	"io"
	"net"
	"time"
)

// Deadline defaults. Zero-valued options resolve to these; a negative
// option disables the deadline entirely (trusted transports, tests
// that park connections on purpose).
const (
	// DefaultIdleTimeout bounds how long a peer may go silent between
	// frames — the half-open-client reaper. It also bounds a credit
	// stall: a consumer that grants nothing for this long loses the
	// session instead of squatting on it.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultWriteTimeout bounds one frame write, including the
	// ErrAtCapacity refusal to a client that never reads.
	DefaultWriteTimeout = 30 * time.Second
)

// normTimeout resolves an option against its default: 0 means "use the
// default", negative means "disabled" (normalized to 0 internally).
func normTimeout(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	if d < 0 {
		return 0
	}
	return d
}

// deadlineConn wraps a connection so every physical read refreshes the
// read deadline and every physical write refreshes the write deadline.
// Framing layers (bufio, frameWriter) stack on top unchanged: the
// deadline is per I/O operation, so a long recording streamed by a
// live peer never times out, while a peer that goes quiet mid-frame —
// or stops draining its results — fails within one timeout. A zero
// duration leaves that direction deadline-free.
type deadlineConn struct {
	conn        net.Conn
	idle, write time.Duration
}

func (d *deadlineConn) Read(p []byte) (int, error) {
	if d.idle > 0 {
		// net.Pipe refuses a deadline with io.ErrClosedPipe once either
		// end has closed. Read then returns at once and tells the two
		// apart: io.EOF for a peer that hung up, which ends the session
		// cleanly, and io.ErrClosedPipe for a local close.
		if err := d.conn.SetReadDeadline(time.Now().Add(d.idle)); err != nil && !errors.Is(err, io.ErrClosedPipe) {
			return 0, err
		}
	}
	return d.conn.Read(p)
}

func (d *deadlineConn) Write(p []byte) (int, error) {
	if d.write > 0 {
		if err := d.conn.SetWriteDeadline(time.Now().Add(d.write)); err != nil {
			return 0, err
		}
	}
	return d.conn.Write(p)
}
