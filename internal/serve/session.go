package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snn"
	"repro/internal/stream"
)

var (
	// errCreditStall is the slow-consumer reap: the client let the
	// credit window sit exhausted for a full IdleTimeout.
	errCreditStall = errors.New("serve: credit window exhausted past the idle timeout (slow consumer)")
	// errWriterStopped marks an abort-path writer exit; it is internal
	// bookkeeping, never surfaced as the session error.
	errWriterStopped = errors.New("serve: session writer stopped")
	errServerClosed  = errors.New("serve: server closed")
)

// wireCmd is one unit of the session's result ring: a window result,
// the end-of-recording marker, the negotiated handshake echo, or a
// swap RPC answer. Fixed-size by construction — ring traffic moves by
// value and allocates nothing on the result path (the zero kind is
// cmdResult, so the hot path stages `wireCmd{res: r}` untouched).
type wireCmd struct {
	kind    byte
	windows uint32  // cmdDone: the recording's window count
	sops    float64 // cmdDone: the recording's total estimated SOPs
	res     stream.Result
	cfg     SessionConfig // cmdAccept: the negotiated config to echo
	swap    SwapStatus    // cmdSwap: the phase's answer
}

const (
	cmdResult = iota // res: one window result (credit-gated)
	cmdDone          // windows/sops: end-of-recording marker
	cmdAccept        // cfg: frameAccept echo (bypasses credits)
	cmdSwap          // swap: frameSwapResult answer (bypasses credits)
)

// Inbound chunk queue geometry: the reader goroutine relays data bytes
// to the pipeline through readBuffers recycled chunks of readChunk
// bytes — a bounded upload runway (256 KB) the server will read ahead
// of a stalled pipeline, past which the socket itself backpressures
// the uploader.
const (
	readChunk   = 32 << 10
	readBuffers = 8
)

// rmsg is one message from the reader goroutine to the session
// goroutine: a data chunk, a recording boundary, a clean connection
// close, a read error, a hello handshake, or a swap RPC phase.
// Fixed-size, moved by value.
type rmsg struct {
	kind  byte
	buf   []byte        // rData: a free-list chunk holding payload bytes
	err   error         // rErr
	cfg   SessionConfig // rHello: the negotiated config to echo
	phase byte          // rSwap: swapPrepare/swapCommit/swapAbort
	path  string        // rSwap: checkpoint path (prepare only)
}

const (
	rData  = iota // payload bytes of the current recording
	rEnd          // frameEnd: the recording is complete
	rEOF          // connection closed cleanly
	rErr          // read or protocol error
	rHello        // frameHello accepted; the accept echo must be staged
	rSwap         // frameSwap phase for the session goroutine to execute
)

// session is one connection's serving state, three goroutines wide:
//
//   - the reader owns the connection's receive side, demuxing
//     frameCredit grants into the credit account the moment they
//     arrive and relaying data bytes through a bounded chunk queue;
//   - the session goroutine runs the session's pipeline over those
//     chunks — each round classifies its Batch-wide window groups in
//     parallel, every group on a frame slot and a clone borrowed from
//     the server's pools — and stages results into a bounded ring;
//   - the writer drains the ring onto the wire, pausing when the
//     client's credit window is exhausted.
//
// The reader's independence is what makes credit-based backpressure
// deadlock-free on one full-duplex connection: top-ups keep flowing
// even while the pipeline is blocked on a full result ring. Undelivered
// state per session is capped at ResultWindow staged results plus the
// readBuffers×readChunk upload runway plus one in-flight round — none
// of it pooled memory (classifyBatch releases slots and clones before
// emit can block).
type session struct {
	srv *Server
	dc  *deadlineConn
	br  *bufio.Reader // reader-goroutine-only after newSession
	fw  *frameWriter

	credits atomic.Int64 // results the client has authorized
	topup   chan struct{}

	// tierInt8 requests the quantized INT8 precision tier, as the hello
	// requested. Set by the reader goroutine, read by the session
	// goroutine when it builds the pipeline at the first recording.
	tierInt8 atomic.Bool

	// Reader-goroutine-only handshake ordering state: the session must
	// open with exactly one hello; a swap phase is refused
	// mid-recording.
	sawHello    bool
	inRecording bool

	// Session-goroutine-only swap staging: the checkpoint prepared on
	// this connection, waiting for commit or abort. Connection-scoped
	// on purpose — the router's all-or-nothing fan-out holds one admin
	// connection per replica open across prepare and commit.
	staged   *snn.Network
	stagedFP uint64

	msgs chan rmsg   // reader → session
	free chan []byte // recycled data chunks

	// Session-goroutine-only demux state: the staged-back message and
	// the partially consumed chunk.
	pending    rmsg
	hasPending bool
	cur        []byte
	curBuf     []byte

	cmds       chan wireCmd
	quit       chan struct{} // closed at stop: once the receive side is done no credit can arrive, so a stalled writer must not wait out the idle timeout
	writerDone chan struct{}
	stopped    bool // session-goroutine-only

	errMu sync.Mutex
	werr  error //axsnn:guardedby errMu
}

func newSession(srv *Server, dc *deadlineConn) *session {
	ss := &session{
		srv:        srv,
		dc:         dc,
		br:         bufio.NewReader(dc),
		fw:         newFrameWriter(dc),
		topup:      make(chan struct{}, 1),
		msgs:       make(chan rmsg, readBuffers+2),
		free:       make(chan []byte, readBuffers),
		cmds:       make(chan wireCmd, srv.opts.ResultWindow),
		quit:       make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	for i := 0; i < readBuffers; i++ {
		ss.free <- make([]byte, readChunk)
	}
	go ss.reader()
	go ss.writer()
	return ss
}

// reader owns the connection's receive side for the whole session. It
// consumes frames as they arrive — applying frameCredit grants inline,
// relaying data through the bounded chunk queue — so a pipeline
// stalled on a full result ring never stops the credit top-ups that
// will unblock it. The price of the bounded queue: a client that
// uploads more than the runway ahead while refusing to consume results
// stalls its own grants behind the unread upload and is reaped at
// IdleTimeout.
func (ss *session) reader() {
	defer close(ss.msgs)
	for {
		typ, n, err := readHeader(ss.br)
		if err != nil {
			if err == io.EOF {
				ss.msgs <- rmsg{kind: rEOF}
			} else {
				ss.msgs <- rmsg{kind: rErr, err: err}
			}
			return
		}
		if !ss.sawHello && typ != frameHello {
			ss.msgs <- rmsg{kind: rErr, err: fmt.Errorf("serve: session must open with a hello frame (protocol version %d), got frame type 0x%02x", ProtoVersion, typ)}
			return
		}
		switch typ {
		case frameCredit:
			grant, cerr := readCreditPayload(ss.br, n)
			if cerr != nil {
				ss.msgs <- rmsg{kind: rErr, err: cerr}
				return
			}
			ss.addCredits(grant)
		case frameHello:
			cfg, herr := ss.readHello(n)
			if herr != nil {
				ss.msgs <- rmsg{kind: rErr, err: herr}
				return
			}
			ss.msgs <- rmsg{kind: rHello, cfg: cfg}
		case frameSwap:
			phase, path, serr := ss.readSwap(n)
			if serr != nil {
				ss.msgs <- rmsg{kind: rErr, err: serr}
				return
			}
			ss.msgs <- rmsg{kind: rSwap, phase: phase, path: path}
		case frameData:
			ss.inRecording = true
			for n > 0 {
				buf := <-ss.free
				m := n
				if m > readChunk {
					m = readChunk
				}
				if _, err := io.ReadFull(ss.br, buf[:m]); err != nil {
					ss.msgs <- rmsg{kind: rErr, err: err}
					return
				}
				ss.msgs <- rmsg{kind: rData, buf: buf[:m]}
				n -= m
			}
		case frameEnd:
			if n != 0 {
				ss.msgs <- rmsg{kind: rErr, err: fmt.Errorf("serve: end frame carries %d payload bytes", n)}
				return
			}
			ss.inRecording = false
			ss.msgs <- rmsg{kind: rEnd}
		default:
			ss.msgs <- rmsg{kind: rErr, err: fmt.Errorf("serve: unexpected frame type 0x%02x from client", typ)}
			return
		}
	}
}

// readHello consumes a frameHello payload, negotiates, and applies the
// resulting config: the tier latch is stored and the hello's credit
// window becomes the initial grant. Returns the negotiated
// config the session goroutine must echo as frameAccept.
// Reader-goroutine only.
func (ss *session) readHello(n int) (SessionConfig, error) {
	if ss.sawHello {
		return SessionConfig{}, errors.New("serve: duplicate hello frame")
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(ss.br, p); err != nil {
		return SessionConfig{}, err
	}
	cfg, err := decodeHello(p)
	if err != nil {
		return SessionConfig{}, err
	}
	if cfg.Tier == snn.TierINT8 && !ss.srv.SupportsTier(snn.TierINT8) {
		return SessionConfig{}, errors.New("serve: hello requests the int8 precision tier, which this server cannot serve")
	}
	ss.sawHello = true
	ss.tierInt8.Store(cfg.Tier == snn.TierINT8)
	ss.addCredits(int64(cfg.CreditWindow))
	return cfg, nil
}

// readSwap consumes a frameSwap payload and validates the phase; the
// session goroutine executes it (checkpoint loading does not belong on
// the reader, which must keep draining credit frames). Reader-goroutine
// only.
func (ss *session) readSwap(n int) (byte, string, error) {
	if !ss.srv.opts.AdminSwap {
		return 0, "", errors.New("serve: swap frames are refused unless the server enables AdminSwap")
	}
	if ss.inRecording {
		return 0, "", errors.New("serve: swap frame mid-recording")
	}
	if n < 1 {
		return 0, "", errors.New("serve: swap frame without a phase byte")
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(ss.br, p); err != nil {
		return 0, "", err
	}
	phase, path := p[0], string(p[1:])
	switch phase {
	case swapPrepare:
		if path == "" {
			return 0, "", errors.New("serve: swap prepare without a checkpoint path")
		}
	case swapCommit, swapAbort:
		if path != "" {
			return 0, "", fmt.Errorf("serve: swap phase %d carries %d unexpected payload bytes", phase, n-1)
		}
	default:
		return 0, "", fmt.Errorf("serve: unknown swap phase %d", phase)
	}
	return phase, path, nil
}

// takeMsg returns the staged-back message, if any, else the next one
// from the reader. Session-goroutine only.
func (ss *session) takeMsg() (rmsg, bool) {
	if ss.hasPending {
		ss.hasPending = false
		return ss.pending, true
	}
	m, ok := <-ss.msgs
	return m, ok
}

// recycle returns a fully consumed chunk to the free list.
func (ss *session) recycle() {
	if len(ss.cur) == 0 && ss.curBuf != nil {
		ss.free <- ss.curBuf[:cap(ss.curBuf)]
		ss.curBuf, ss.cur = nil, nil
	}
}

// Read hands the current recording's payload bytes to the pipeline's
// decoder, ending with io.EOF at the recording boundary (or at a
// connection close mid-recording, which the decoder then rejects as a
// truncated container). It is the session goroutine's view of the
// reader's demuxed chunk queue and allocates nothing.
func (ss *session) Read(p []byte) (int, error) {
	for {
		if len(ss.cur) > 0 {
			n := copy(p, ss.cur)
			ss.cur = ss.cur[n:]
			ss.recycle()
			return n, nil
		}
		m, ok := ss.takeMsg()
		if !ok {
			return 0, io.ErrUnexpectedEOF
		}
		switch m.kind {
		case rData:
			ss.cur, ss.curBuf = m.buf, m.buf
		case rEnd:
			return 0, io.EOF
		case rEOF:
			// Stage the close back so the between-recordings loop sees
			// the clean session end after the drain.
			ss.pending, ss.hasPending = m, true
			return 0, io.EOF
		case rHello, rSwap:
			// Unreachable: the reader refuses both mid-recording. Kept as
			// a loud failure rather than a silent drop.
			return 0, errors.New("serve: handshake frame mid-recording")
		default: // rErr
			return 0, m.err
		}
	}
}

// drainRecording discards the recording's framing tail through its
// frameEnd. The AEDAT decoder reads exactly the event count its header
// declares and never touches the bytes after it; without the drain the
// tail would leak into the next recording on the session. Payload
// bytes past the container are discarded, not errors: the framing
// layer delimits recordings, the codec validates them.
func (ss *session) drainRecording() error {
	ss.cur = nil
	ss.recycle()
	for {
		m, ok := ss.takeMsg()
		if !ok {
			return nil
		}
		switch m.kind {
		case rData:
			ss.free <- m.buf[:cap(m.buf)]
		case rEnd:
			return nil
		case rEOF, rHello, rSwap:
			// Between-recordings traffic (a swap can follow the frameEnd
			// the decoder already consumed through Read): stage it back
			// for nextRecording.
			ss.pending, ss.hasPending = m, true
			return nil
		default: // rErr
			return m.err
		}
	}
}

// nextRecording blocks until the next recording's first frame arrives,
// returning false on a clean session end (connection closed between
// recordings). Credit top-ups never surface here — the reader applies
// them inline. Hello echoes and swap phases are handled here, between
// recordings, then the wait continues: a probe client may hello and
// close without ever streaming, and an admin connection may run swap
// phases with no recordings at all.
func (ss *session) nextRecording() (bool, error) {
	for {
		m, ok := ss.takeMsg()
		if !ok {
			return false, nil
		}
		switch m.kind {
		case rEOF:
			return false, nil
		case rErr:
			return false, m.err
		case rHello:
			if err := ss.stageCmd(wireCmd{kind: cmdAccept, cfg: m.cfg}); err != nil {
				return false, err
			}
		case rSwap:
			if err := ss.handleSwap(m.phase, m.path); err != nil {
				return false, err
			}
		default:
			// rData or rEnd opens the next recording (an immediate rEnd is
			// an empty recording the decoder will reject).
			ss.pending, ss.hasPending = m, true
			return true, nil
		}
	}
}

// handleSwap executes one swap phase against the server and stages the
// answer. A failed prepare is answered in-band (OK false) instead of
// ending the session: the coordinating router still needs this
// connection to abort its peers' staging.
func (ss *session) handleSwap(phase byte, path string) error {
	var st SwapStatus
	switch phase {
	case swapPrepare:
		fresh, fp, err := ss.srv.prepareSwap(path)
		if err != nil {
			st.Msg = err.Error()
		} else {
			ss.staged, ss.stagedFP = fresh, fp
			st = SwapStatus{OK: true, Generation: ss.srv.Swaps(), Fingerprint: fp}
		}
	case swapCommit:
		if ss.staged == nil {
			st.Msg = "serve: swap commit without a prepared checkpoint"
		} else {
			gen := ss.srv.commitSwap(ss.staged, ss.stagedFP)
			st = SwapStatus{OK: true, Generation: gen, Fingerprint: ss.stagedFP}
			ss.staged, ss.stagedFP = nil, 0
		}
	case swapAbort:
		ss.staged, ss.stagedFP = nil, 0
		st = SwapStatus{OK: true, Generation: ss.srv.Swaps(), Fingerprint: ss.srv.CheckpointFP()}
	}
	return ss.stageCmd(wireCmd{kind: cmdSwap, swap: st})
}

// stageCmd stages a non-result command (accept echo, swap answer) into
// the ring, failing fast once the writer has died. Unlike emit it never
// touches the buffered-results gauge — these frames bypass credits.
func (ss *session) stageCmd(cmd wireCmd) error {
	select {
	case ss.cmds <- cmd:
		return nil
	case <-ss.writerDone:
		if err := ss.writeErr(); err != nil && err != errWriterStopped {
			return err
		}
		return errWriterStopped
	}
}

// stopReader ends the reader goroutine and waits for it: closing the
// connection unblocks a reader parked in a socket read, draining the
// queue unblocks one parked on a full queue — and the drain must
// recycle data chunks, because a reader that exhausted the free list
// (a client uploading past the runway while the session was aborting)
// is parked on the free channel, where only a returned chunk can
// reach it. Session-goroutine only, after the writer has stopped and
// any error frame has been written.
func (ss *session) stopReader() {
	ss.dc.conn.Close()
	for m := range ss.msgs {
		if m.kind == rData {
			ss.free <- m.buf[:cap(m.buf)]
		}
	}
}

// addCredits applies one credit grant (the hello's window or a
// frameCredit). Called from the reader goroutine while the writer may
// be waiting in awaitCredit.
func (ss *session) addCredits(n int64) {
	if n <= 0 {
		return
	}
	ss.credits.Add(n)
	select {
	case ss.topup <- struct{}{}:
	default:
	}
}

// emit is the pipeline's result sink: stage the window into the ring.
// Blocks when the ring is full (the sanctioned backpressure point) and
// fails fast once the writer has died.
func (ss *session) emit(r stream.Result) error {
	select {
	case ss.cmds <- wireCmd{res: r}:
		ss.srv.metrics.ResultsBuffered.Add(1)
		return nil
	case <-ss.writerDone:
		if err := ss.writeErr(); err != nil && err != errWriterStopped {
			return err
		}
		return errWriterStopped
	}
}

// finishRecording stages the end-of-recording marker carrying the
// window count and the recording's total estimated SOPs.
func (ss *session) finishRecording(windows uint32, sops float64) error {
	return ss.stageCmd(wireCmd{kind: cmdDone, windows: windows, sops: sops})
}

// writer drains the ring onto the wire: one credit per result, a
// per-window flush (results are the serving heartbeat, not a batch
// artifact), frameDone echoing the remaining credits. Accept echoes and
// swap answers bypass the credit gate — they are control traffic, not
// results the client budgeted for. Write deadlines ride the
// deadlineConn underneath the frameWriter.
func (ss *session) writer() {
	defer close(ss.writerDone)
	rbuf := make([]byte, 0, resultSize)
	for cmd := range ss.cmds {
		switch cmd.kind {
		case cmdDone:
			var p [doneSize]byte
			binary.LittleEndian.PutUint32(p[0:], cmd.windows)
			binary.LittleEndian.PutUint32(p[4:], creditU32(ss.credits.Load()))
			binary.LittleEndian.PutUint64(p[8:], math.Float64bits(cmd.sops))
			if err := ss.writeFlush(frameDone, p[:]); err != nil {
				return
			}
		case cmdAccept:
			rbuf = appendHello(rbuf[:0], cmd.cfg)
			if err := ss.writeFlush(frameAccept, rbuf); err != nil {
				return
			}
		case cmdSwap:
			if err := ss.writeFlush(frameSwapResult, appendSwapResult(nil, cmd.swap)); err != nil {
				return
			}
		default: // cmdResult
			if err := ss.sendResult(cmd.res, &rbuf); err != nil {
				// The result in hand was counted into the buffered gauge at
				// emit, will never be delivered, and is no longer in the ring
				// for stopWriter's drain to see — account for it here or the
				// gauge leaks one phantom result per writer that dies
				// mid-delivery.
				ss.srv.metrics.ResultsBuffered.Add(-1)
				ss.setWriteErr(err)
				return
			}
		}
	}
}

// writeFlush emits one control frame and flushes, recording a write
// error for the session goroutine. Writer-goroutine only.
func (ss *session) writeFlush(typ byte, payload []byte) error {
	if err := ss.fw.write(typ, payload); err != nil {
		ss.setWriteErr(err)
		return err
	}
	if err := ss.fw.flush(); err != nil {
		ss.setWriteErr(err)
		return err
	}
	return nil
}

// sendResult delivers one staged result: wait for a credit, frame it,
// flush it, move it from the buffered gauge to the sent counter.
func (ss *session) sendResult(r stream.Result, rbuf *[]byte) error {
	if err := ss.awaitCredit(); err != nil {
		return err
	}
	*rbuf = appendResult((*rbuf)[:0], r)
	if err := ss.fw.write(frameResult, *rbuf); err != nil {
		return err
	}
	if err := ss.fw.flush(); err != nil {
		return err
	}
	ss.srv.metrics.ResultsBuffered.Add(-1)
	ss.srv.metrics.ResultsSent.Add(1)
	return nil
}

// awaitCredit consumes one result credit, waiting for a top-up when
// the window is exhausted. The fast path is one CAS, no allocation; the
// stall path is cold and metered.
func (ss *session) awaitCredit() error {
	for {
		if c := ss.credits.Load(); c > 0 {
			if ss.credits.CompareAndSwap(c, c-1) {
				return nil
			}
			continue
		}
		ss.srv.metrics.CreditStalls.Add(1)
		// A grant that raced past the credit check wins over the quit
		// signal: results that can still be delivered are delivered.
		select {
		case <-ss.topup:
			continue
		default:
		}
		var timeout <-chan time.Time
		var t *time.Timer
		if idle := ss.srv.opts.IdleTimeout; idle > 0 {
			t = time.NewTimer(idle)
			timeout = t.C
		}
		select {
		case <-ss.topup:
		case <-timeout:
			return errCreditStall
		case <-ss.quit:
			stopTimer(t)
			return errWriterStopped
		case <-ss.srv.done:
			stopTimer(t)
			return errServerClosed
		}
		stopTimer(t)
	}
}

func stopTimer(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

// stopWriter ends the writer goroutine and waits for it. The writer
// keeps draining staged results while credits last, but a *stalled*
// writer is released immediately: stopWriter only runs once the
// session's receive side is done (clean EOF or error), after which no
// credit top-up can ever arrive — waiting out the idle timeout on a
// dead connection would just pin the session slot. Session-goroutine
// only.
func (ss *session) stopWriter() {
	if ss.stopped {
		return
	}
	ss.stopped = true
	close(ss.quit)
	close(ss.cmds)
	<-ss.writerDone
	// The writer can exit early — a write error, a reaped credit stall,
	// the abort itself — leaving staged results in the closed ring it
	// never drained. They were counted into the buffered gauge at emit,
	// so they must come off it here or the gauge leaks one session's
	// ring worth of phantom results forever.
	for cmd := range ss.cmds {
		if cmd.kind == cmdResult {
			ss.srv.metrics.ResultsBuffered.Add(-1)
		}
	}
}

func (ss *session) setWriteErr(err error) {
	ss.errMu.Lock()
	if ss.werr == nil {
		ss.werr = err
	}
	ss.errMu.Unlock()
}

func (ss *session) writeErr() error {
	ss.errMu.Lock()
	defer ss.errMu.Unlock()
	return ss.werr
}

// creditU32 clamps the credit gauge for the frameDone field.
func creditU32(c int64) uint32 {
	if c < 0 {
		return 0
	}
	if c > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(c)
}
