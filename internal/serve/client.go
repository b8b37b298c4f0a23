package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// DefaultCreditWindow is how many undelivered results a client
// authorizes the server to stream ahead of consumption.
const DefaultCreditWindow = 64

// DefaultDialTimeout bounds Dial's connection establishment.
const DefaultDialTimeout = 10 * time.Second

// ClientOptions configure a Client: the session configuration it
// negotiates and the transport deadlines it applies.
type ClientOptions struct {
	// Config is the session configuration to negotiate: precision
	// tier, credit window, protocol version. Zero values mean defaults
	// (see SessionConfig); invalid values — a negative credit window,
	// an unknown tier, a version this build cannot speak — are
	// reported as errors by the first Client call, never silently
	// clamped.
	Config SessionConfig
	// DialTimeout bounds Dial. 0 uses DefaultDialTimeout, negative
	// disables.
	DialTimeout time.Duration
	// IdleTimeout bounds the silence between server frames — a wedged
	// server fails the Stream instead of hanging the generator. 0 uses
	// DefaultIdleTimeout, negative disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds each outgoing frame write. 0 uses
	// DefaultWriteTimeout, negative disables.
	WriteTimeout time.Duration
}

// Validate rejects option values the protocol cannot express. The
// timeouts keep their documented conventions (0 default, negative
// disabled) and are never errors.
func (o ClientOptions) Validate() error {
	return o.Config.Validate()
}

// Client speaks the serve framing protocol over one session
// connection. It is not safe for concurrent use; one Stream call runs
// at a time, and a session may Stream several recordings back to back.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	pbuf []byte
	// cfg is the resolved session config (wire form), err a
	// construction-time validation failure surfaced by the first call
	// that would touch the wire.
	cfg SessionConfig
	err error

	// wmu serializes the two frame producers — the upload goroutine's
	// data frames and the read loop's credit grants — onto the shared
	// frameWriter. Held per frame, so grants interleave with chunks.
	wmu sync.Mutex
	fw  *frameWriter

	// granted is the client-side credit account: how many results the
	// server may still send. Decremented per consumed result on the
	// read loop, topped up under wmu, resynced from frameDone.
	granted atomic.Int64
	started bool

	// negotiated holds the server's accept echo once it has arrived.
	negotiated SessionConfig
	accepted   bool

	// lastSOPs is the total estimated synaptic-operation count the
	// server reported for the most recent recording. Read via LastSOPs
	// after Stream returns.
	lastSOPs float64
}

// NewClient wraps an established session connection (TCP or net.Pipe)
// with default options.
func NewClient(conn net.Conn) *Client {
	return NewClientOptions(conn, ClientOptions{})
}

// NewClientOptions wraps an established session connection. Invalid
// options do not fail construction — the signature predates
// validation — but poison the client: the first Stream, Ping, or swap
// RPC reports the validation error without touching the wire.
func NewClientOptions(conn net.Conn, o ClientOptions) *Client {
	o.IdleTimeout = normTimeout(o.IdleTimeout, DefaultIdleTimeout)
	o.WriteTimeout = normTimeout(o.WriteTimeout, DefaultWriteTimeout)
	dc := &deadlineConn{conn: conn, idle: o.IdleTimeout, write: o.WriteTimeout}
	c := &Client{conn: conn, br: bufio.NewReader(dc), fw: newFrameWriter(dc)}
	if err := o.Validate(); err != nil {
		c.err = err
		return c
	}
	c.cfg = o.Config.withDefaults()
	return c
}

// Dial connects a session to a serve address.
func Dial(addr string, o ClientOptions) (*Client, error) {
	dt := normTimeout(o.DialTimeout, DefaultDialTimeout)
	var conn net.Conn
	var err error
	if dt > 0 {
		conn, err = net.DialTimeout("tcp", addr, dt)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	return NewClientOptions(conn, o), nil
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

// LastSOPs returns the server's total estimated synaptic-operation
// count for the most recent completed recording, 0 when the server
// runs without an energy model. Valid after Stream returns nil; not
// safe concurrently with Stream.
func (c *Client) LastSOPs() float64 { return c.lastSOPs }

// Negotiated returns the server's accept echo — the effective session
// configuration — and whether it has arrived yet. It is valid after the
// first Stream, Ping or swap RPC returns. Not safe concurrently with
// Stream.
func (c *Client) Negotiated() (SessionConfig, bool) {
	return c.negotiated, c.accepted
}

// Stream sends one AEDAT recording and calls emit for every window
// result, in window order, as the server classifies them. It returns
// the server's window count. Sending and receiving run concurrently —
// the server streams results while the recording is still uploading —
// which is what makes the protocol deadlock-free over synchronous
// transports. The session's first Stream leads with the hello frame,
// whose credit window doubles as the initial grant; top-ups are sent
// from the read loop once half the window is consumed.
func (c *Client) Stream(recording io.Reader, emit func(stream.Result) error) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	opening := !c.started
	c.started = true
	writeErr := make(chan error, 1)
	go func() { writeErr <- c.send(recording, opening) }()

	for {
		typ, n, err := readHeader(c.br)
		if err != nil {
			c.conn.Close()
			<-writeErr
			return 0, fmt.Errorf("serve: reading result frame: %w", err)
		}
		if cap(c.pbuf) < n {
			c.pbuf = make([]byte, n)
		}
		payload := c.pbuf[:n]
		if _, err := io.ReadFull(c.br, payload); err != nil {
			c.conn.Close()
			<-writeErr
			return 0, err
		}
		switch typ {
		case frameResult:
			res, err := decodeResult(payload)
			if err == nil && emit != nil {
				err = emit(res)
			}
			if err == nil {
				err = c.consumed()
			}
			if err != nil {
				c.conn.Close()
				<-writeErr
				return 0, err
			}
		case frameAccept:
			if err := c.applyAccept(payload); err != nil {
				c.conn.Close()
				<-writeErr
				return 0, err
			}
		case frameDone:
			if n != doneSize {
				c.conn.Close()
				<-writeErr
				return 0, fmt.Errorf("serve: done frame of %d bytes, want %d", n, doneSize)
			}
			count := int(binary.LittleEndian.Uint32(payload))
			c.lastSOPs = math.Float64frombits(binary.LittleEndian.Uint64(payload[8:]))
			if err := <-writeErr; err != nil {
				return count, err
			}
			// Resync from the server's view, then restore a full window
			// for the next recording.
			c.granted.Store(int64(binary.LittleEndian.Uint32(payload[4:])))
			if err := c.topUp(); err != nil {
				return count, err
			}
			return count, nil
		case frameError:
			// The server aborted; it may have stopped reading our
			// upload, so unblock the sender before reporting.
			msg := string(payload)
			c.conn.Close()
			<-writeErr
			return 0, errors.New(msg)
		default:
			c.conn.Close()
			<-writeErr
			return 0, fmt.Errorf("serve: unexpected frame type 0x%02x from server", typ)
		}
	}
}

// applyAccept records the server's negotiated-config echo.
func (c *Client) applyAccept(payload []byte) error {
	cfg, err := decodeHello(payload)
	if err != nil {
		return fmt.Errorf("serve: decoding accept frame: %w", err)
	}
	c.negotiated, c.accepted = cfg, true
	return nil
}

// Ping performs the hello/accept handshake without streaming a
// recording — the router's health probe, and a cheap way to learn the
// server's effective config. Safe to call before Stream; redundant
// calls return immediately once the accept has arrived.
func (c *Client) Ping() error {
	if c.err != nil {
		return c.err
	}
	if err := c.open(); err != nil {
		return err
	}
	for !c.accepted {
		typ, payload, err := c.readFrame()
		if err != nil {
			return err
		}
		switch typ {
		case frameAccept:
			if err := c.applyAccept(payload); err != nil {
				return err
			}
		case frameError:
			return errors.New(string(payload))
		default:
			return fmt.Errorf("serve: unexpected frame type 0x%02x awaiting accept", typ)
		}
	}
	return nil
}

// SwapPrepare asks the server to stage the checkpoint at path (a
// server-side file) without serving it: phase one of the all-or-nothing
// hot-swap fan-out. The staging is connection-scoped — commit or abort
// must ride the same Client. Requires ServerOptions.AdminSwap.
func (c *Client) SwapPrepare(path string) (SwapStatus, error) {
	return c.swapRPC(swapPrepare, path)
}

// SwapCommit makes this connection's prepared checkpoint the served
// master and reports the new generation and fingerprint.
func (c *Client) SwapCommit() (SwapStatus, error) {
	return c.swapRPC(swapCommit, "")
}

// SwapAbort discards this connection's prepared checkpoint, reporting
// the generation and fingerprint still being served.
func (c *Client) SwapAbort() (SwapStatus, error) {
	return c.swapRPC(swapAbort, "")
}

func (c *Client) swapRPC(phase byte, path string) (SwapStatus, error) {
	if c.err != nil {
		return SwapStatus{}, c.err
	}
	if err := c.open(); err != nil {
		return SwapStatus{}, err
	}
	if err := c.writeFrame(frameSwap, append([]byte{phase}, path...)); err != nil {
		return SwapStatus{}, err
	}
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return SwapStatus{}, err
		}
		switch typ {
		case frameSwapResult:
			return decodeSwapResult(payload)
		case frameAccept:
			// The session's opening hello may still be echoing.
			if err := c.applyAccept(payload); err != nil {
				return SwapStatus{}, err
			}
		case frameError:
			return SwapStatus{}, errors.New(string(payload))
		default:
			return SwapStatus{}, fmt.Errorf("serve: unexpected frame type 0x%02x awaiting swap result", typ)
		}
	}
}

// readFrame reads one frame into the reusable payload buffer.
func (c *Client) readFrame() (byte, []byte, error) {
	typ, n, err := readHeader(c.br)
	if err != nil {
		return 0, nil, err
	}
	if cap(c.pbuf) < n {
		c.pbuf = make([]byte, n)
	}
	payload := c.pbuf[:n]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// consumed accounts one delivered result and tops the server's window
// up once half of it is spent — batched grants, not one per result, so
// credit traffic stays a small fraction of result traffic.
func (c *Client) consumed() error {
	if c.granted.Add(-1) <= int64(c.cfg.CreditWindow/2) {
		return c.topUp()
	}
	return nil
}

// topUp grants the server credits back to a full window.
func (c *Client) topUp() error {
	n := int64(c.cfg.CreditWindow) - c.granted.Load()
	if n <= 0 {
		return nil
	}
	if err := c.writeCredit(uint32(n)); err != nil {
		return err
	}
	c.granted.Add(n)
	return nil
}

func (c *Client) writeCredit(n uint32) error {
	var p [creditSize]byte
	binary.LittleEndian.PutUint32(p[:], n)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.fw.write(frameCredit, p[:]); err != nil {
		return err
	}
	return c.fw.flush()
}

// sendOpening writes the session's hello, whose credit window is also
// the initial grant.
func (c *Client) sendOpening() error {
	if err := c.writeFrame(frameHello, appendHello(nil, c.cfg)); err != nil {
		return err
	}
	c.granted.Add(int64(c.cfg.CreditWindow))
	return nil
}

// open sends the hello if the session has not started: the opening for
// Ping and the swap RPCs, which Stream instead sends from its upload
// goroutine.
func (c *Client) open() error {
	if c.started {
		return nil
	}
	c.started = true
	return c.sendOpening()
}

// send uploads the recording as data frames and terminates it. The
// session-opening frames (first recording of the session) lead the
// upload from this goroutine: sending them synchronously from Stream
// would deadlock a synchronous transport against a server that writes
// before reading (e.g. the capacity refusal). The hello precedes the
// first data frame, as the server requires.
func (c *Client) send(recording io.Reader, opening bool) error {
	if opening {
		if err := c.sendOpening(); err != nil {
			return err
		}
	}
	buf := make([]byte, 32<<10)
	for {
		n, err := recording.Read(buf)
		if n > 0 {
			if werr := c.writeFrame(frameData, buf[:n]); werr != nil {
				return werr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	return c.writeFrame(frameEnd, nil)
}

// writeFrame emits and flushes one frame under the write lock. Flushed
// per frame so the server classifies while the rest of the recording
// uploads, and so grants never sit buffered behind a held lock.
func (c *Client) writeFrame(typ byte, p []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.fw.write(typ, p); err != nil {
		return err
	}
	return c.fw.flush()
}
