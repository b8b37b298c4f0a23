// Package serve is the multi-session event-stream server: it
// multiplexes many concurrent AEDAT recordings — one stream.Pipeline
// per session — over a length-prefixed framing protocol, drawing
// evaluation clones from one shared bounded pool (sized by the tensor
// worker budget, not by the session count) and hot-swapping checkpoints
// under live traffic with RCU pointer-exchange semantics: in-flight
// window batches finish on the clone they hold, everything after picks
// up the new weights.
//
// The wire protocol is deliberately minimal. Every frame is
//
//	[1 byte type][4 bytes little-endian payload length][payload]
//
// A session is one connection serving a sequence of recordings on one
// warmed pipeline. The client opens the session with one versioned
// frameHello carrying its SessionConfig (protocol version, precision
// tier, credit window — including the initial credit grant); the
// server answers with a frameAccept echoing the negotiated config. Any
// other first frame is refused with a frameError. Per recording, the
// client sends the AEDAT container as a sequence of frameData frames
// (any chunking, including the whole file at once) terminated by
// frameEnd; the server answers with one
// frameResult per window — in window order, streamed as soon as each
// window classifies — then frameDone carrying the window count and the
// session's remaining result credits. After frameDone the client may
// start the next recording with its first frameData, or close the
// connection to end the session. A fatal error at either layer is
// reported as a frameError carrying the message, after which the
// connection closes.
//
// Backpressure is credit-based: the hello's credit window is the
// initial grant, and each frameCredit from the client grants the server
// permission to send that many more frameResults. The server buffers at
// most ServerOptions.ResultWindow undelivered results per session and
// stalls the result writer — never the whole server — when the granted
// window is exhausted, so a slow consumer bounds server memory instead
// of pinning it. frameCredit is accepted at any point after the hello:
// mid-recording (interleaved with frameData) and between recordings.
//
// Every session classifies on its own pipeline: each round fans the
// session's Batch-wide window groups out over the tensor worker pool,
// every group voxelized into a frame slot from the server's SlotPool
// and predicted on a clone from its clone pool, both released before
// any result is emitted. Concurrent sessions therefore share the
// compute budget through the two bounded pools, and results are
// bit-identical to standalone stream.Predict — the batched forward is
// per-sample exact, so which clone or batch a window rides cannot
// change its class.
//
// Because results stream while data is still arriving, a client MUST
// read concurrently with writing (Client.Stream does), or a fully
// synchronous transport such as net.Pipe deadlocks. The server reads
// each connection on a dedicated goroutine that applies credit grants
// the moment they arrive, so a stalled pipeline never blocks its own
// top-ups; the one asymmetry left is a client that uploads far past
// the server's bounded read-ahead runway while refusing to consume
// results — its grants queue behind the unread upload bytes and the
// session is reaped at IdleTimeout rather than waiting forever.
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/stream"
)

// Frame types. Client-to-server types have the high bit clear,
// server-to-client types have it set.
const (
	frameData       = 0x01 // raw AEDAT container bytes
	frameEnd        = 0x02 // recording complete, no payload
	frameCredit     = 0x03 // grant uint32 more result credits to the server
	frameSwap       = 0x05 // admin checkpoint swap RPC (phase byte + path; see handshake.go)
	frameHello      = 0x06 // versioned session handshake (SessionConfig payload)
	frameResult     = 0x81 // one window result (resultSize payload)
	frameDone       = 0x82 // all windows emitted; payload = doneSize (see below)
	frameError      = 0x83 // fatal session error; payload = UTF-8 message
	frameAccept     = 0x84 // negotiated SessionConfig echo answering frameHello
	frameSwapResult = 0x85 // SwapStatus answering one frameSwap phase
)

// maxFramePayload bounds a frame a peer may declare, so a corrupt or
// hostile length prefix cannot balloon a read buffer. Data frames are
// typically a few KB; 1 MB is generous.
const maxFramePayload = 1 << 20

// frameHeaderSize is type + length prefix.
const frameHeaderSize = 5

// resultSize is the frameResult payload: window uint32, startMS
// float64, events uint32, class int32, then the window's estimated
// synaptic-operation count float64 (0 when the server runs without an
// energy model).
const resultSize = 4 + 8 + 4 + 4 + 8

// creditSize is the frameCredit payload: uint32 additional credits.
const creditSize = 4

// doneSize is the frameDone payload: window count uint32, then the
// session's remaining result credits uint32 — the client resyncs its
// credit accounting from it — then the recording's total estimated
// SOPs float64.
const doneSize = 4 + 4 + 8

// frameWriter emits frames onto a buffered writer. The header scratch
// lives in the struct, not the stack, so the per-window result frame
// costs no allocation (a stack array would escape through the
// bufio.Writer.Write interface path).
type frameWriter struct {
	bw  *bufio.Writer
	hdr [frameHeaderSize]byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{bw: bufio.NewWriter(w)}
}

// write emits one frame. The caller flushes.
func (w *frameWriter) write(typ byte, payload []byte) error {
	w.hdr[0] = typ
	binary.LittleEndian.PutUint32(w.hdr[1:], uint32(len(payload)))
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		return err
	}
	_, err := w.bw.Write(payload)
	return err
}

func (w *frameWriter) flush() error { return w.bw.Flush() }

// readHeader decodes the next frame header.
func readHeader(r *bufio.Reader) (typ byte, n int, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	n = int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxFramePayload {
		return 0, 0, fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte limit", n, maxFramePayload)
	}
	return hdr[0], n, nil
}

// appendResult encodes one window result after b — the server's
// per-window hot path, allocation-free once b has capacity.
func appendResult(b []byte, r stream.Result) []byte {
	var p [resultSize]byte
	binary.LittleEndian.PutUint32(p[0:], uint32(r.Window))
	binary.LittleEndian.PutUint64(p[4:], math.Float64bits(r.StartMS))
	binary.LittleEndian.PutUint32(p[12:], uint32(r.Events))
	binary.LittleEndian.PutUint32(p[16:], uint32(int32(r.Class)))
	binary.LittleEndian.PutUint64(p[20:], math.Float64bits(r.SOPs))
	return append(b, p[:]...)
}

// decodeResult is appendResult's inverse.
func decodeResult(p []byte) (stream.Result, error) {
	if len(p) != resultSize {
		return stream.Result{}, fmt.Errorf("serve: result frame of %d bytes, want %d", len(p), resultSize)
	}
	return stream.Result{
		Window:  int(binary.LittleEndian.Uint32(p[0:])),
		StartMS: math.Float64frombits(binary.LittleEndian.Uint64(p[4:])),
		Events:  int(binary.LittleEndian.Uint32(p[12:])),
		Class:   int(int32(binary.LittleEndian.Uint32(p[16:]))),
		SOPs:    math.Float64frombits(binary.LittleEndian.Uint64(p[20:])),
	}, nil
}

// readCreditPayload consumes a frameCredit payload whose header was
// already read and returns the granted credit count.
func readCreditPayload(br *bufio.Reader, n int) (int64, error) {
	if n != creditSize {
		return 0, fmt.Errorf("serve: credit frame of %d bytes, want %d", n, creditSize)
	}
	var p [creditSize]byte
	if _, err := io.ReadFull(br, p[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint32(p[:])), nil
}
