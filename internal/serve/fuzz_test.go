package serve

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/tensor"
)

// fuzzServer is one small shared server for the whole fuzz run:
// sessions are independent, so reusing it keeps each iteration at
// connection cost instead of pool-construction cost. Short deadlines
// keep an input that leaves the server waiting for more frames from
// stalling an iteration.
var fuzzSrv = struct {
	once sync.Once
	srv  *Server
}{}

func fuzzServer(t testing.TB) *Server {
	fuzzSrv.once.Do(func() {
		tensor.SetWorkers(1)
		srv, err := NewServer(testNet(3, 2), ServerOptions{
			Pipeline:     stream.Options{WindowMS: 40, Steps: 3, ChunkEvents: 64},
			PoolSize:     1,
			IdleTimeout:  200 * time.Millisecond,
			WriteTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		fuzzSrv.srv = srv
	})
	return fuzzSrv.srv
}

// fuzzFrame appends one well-formed frame header + payload.
func fuzzFrame(b []byte, typ byte, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	return append(append(b, hdr[:]...), payload...)
}

// FuzzServeFraming throws hostile client bytes at a live session — the
// raw fuzz input is the client's entire send stream — and requires the
// server to terminate the session cleanly: no panic (serveSession's
// recover would convert one into a session error, but a crash in the
// reader or writer goroutine would kill the process and fail the run),
// no hang past the deadlines, and the server stays serviceable for the
// next iteration. Seeds cover the valid opening, every refused
// opening (a first frame other than hello, version skew, a zero credit
// window), truncated and oversized headers, unknown frame types, and
// credit/swap frames with wrong payload sizes.
func FuzzServeFraming(f *testing.F) {
	rec := testRecording(f, 1, 120, 5)
	hello := appendHello(nil, SessionConfig{Version: ProtoVersion, CreditWindow: 4})
	v1 := append([]byte(nil), hello...)
	v1[0] = 1 // the protocol before hello and credit flow were mandatory
	future := append([]byte(nil), hello...)
	future[0] = ProtoVersion + 1

	f.Add([]byte{})
	f.Add([]byte{frameData})                                            // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})                         // unknown type, huge length
	f.Add(fuzzFrame(nil, frameData, []byte("not aedat")))               // data before hello
	f.Add(fuzzFrame(nil, frameEnd, []byte{1}))                          // end frame with payload
	f.Add(fuzzFrame(nil, 0x04, []byte{0x55, 0x55}))                     // the retired mode frame: an unknown type
	f.Add(fuzzFrame(nil, frameCredit, []byte{1, 0}))                    // undersized credit payload
	f.Add(fuzzFrame(nil, frameResult, make([]byte, 20)))                // server-only frame type
	f.Add(fuzzFrame(nil, frameCredit, []byte{8, 0, 0, 0}))              // credit before hello
	f.Add(fuzzFrame(nil, frameSwap, []byte{swapCommit}))                // swap before hello
	f.Add(fuzzFrame(fuzzFrame(nil, frameHello, hello), frameData, rec)) // hello then data, no end
	f.Add(fuzzFrame(fuzzFrame(fuzzFrame(nil, frameHello, hello), frameData, rec), frameEnd, nil))

	// Hello edges: truncation, version skew, trailing bytes, a zero
	// credit window, duplicates, and the admin swap RPC after a valid
	// hello (refused here — the fuzz server does not enable AdminSwap).
	f.Add(fuzzFrame(nil, frameHello, hello))                                                  // bare valid hello
	f.Add(fuzzFrame(nil, frameHello, hello[:3]))                                              // truncated hello
	f.Add(fuzzFrame(nil, frameHello, v1))                                                     // version-1 hello
	f.Add(fuzzFrame(nil, frameHello, future))                                                 // version this build refuses
	f.Add(fuzzFrame(nil, frameHello, append(hello, 0xaa, 0xbb)))                              // newer-minor trailing bytes
	f.Add(fuzzFrame(nil, frameHello, appendHello(nil, SessionConfig{Version: ProtoVersion}))) // zero credit window
	f.Add(fuzzFrame(fuzzFrame(nil, frameHello, hello), frameHello, hello))                    // duplicate hello
	f.Add(fuzzFrame(fuzzFrame(nil, frameHello, hello), 0x04, []byte{0x01}))                   // unknown type after hello
	f.Add(fuzzFrame(fuzzFrame(nil, frameHello, hello), frameSwap, append([]byte{swapPrepare}, "x.gob"...)))
	f.Add(fuzzFrame(fuzzFrame(nil, frameHello, hello), frameSwap, nil)) // swap without a phase byte

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := fuzzServer(t)
		cs, ss := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.ServeConn(ss) }()
		fuzzDrive(t, cs, data, done)
	})
}

// fuzzDrive writes hostile bytes at a live session endpoint, drains
// whatever comes back, and requires termination within the harness
// deadlines.
func fuzzDrive(t *testing.T, cs net.Conn, data []byte, done chan error) {
	t.Helper()
	// Drain everything the server sends so its writes never block;
	// a real hostile client that refuses to read is covered by the
	// write deadline, which this harness keeps short.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, cs)
	}()
	_ = cs.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
	_, _ = cs.Write(data)
	_ = cs.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("session did not terminate after hostile input")
	}
	<-drained
}

// fuzzRouter is a shared single-replica router in front of the shared
// fuzz server, dialing it over loopback TCP.
var fuzzRt = struct {
	once sync.Once
	rt   *Router
	err  error
}{}

func fuzzRouter(t testing.TB) *Router {
	fuzzRt.once.Do(func() {
		srv := fuzzServer(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fuzzRt.err = err
			return
		}
		go func() { _ = srv.Serve(ln) }()
		rt, err := NewRouter(RouterOptions{
			Replicas:       []string{ln.Addr().String()},
			HealthInterval: 50 * time.Millisecond,
			IdleTimeout:    200 * time.Millisecond,
			WriteTimeout:   200 * time.Millisecond,
		})
		if err != nil {
			fuzzRt.err = err
			return
		}
		deadline := time.Now().Add(30 * time.Second)
		for rt.Healthy() == 0 {
			if time.Now().After(deadline) {
				fuzzRt.err = io.ErrNoProgress
				rt.Close()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		fuzzRt.rt = rt
	})
	if fuzzRt.err != nil {
		t.Skipf("router fuzz needs loopback tcp: %v", fuzzRt.err)
	}
	return fuzzRt.rt
}

// FuzzRouterProxy feeds hostile client byte streams through the router's
// frame-aware relay onto a live replica: the proxy must never panic or
// hang, must keep relaying only well-formed frame boundaries, and both
// tiers must survive for the next iteration. Seeds mirror the framing
// fuzzer plus relay-specific edges (headers declaring payloads past the
// frame cap).
func FuzzRouterProxy(f *testing.F) {
	rec := testRecording(f, 1, 120, 5)
	hello := appendHello(nil, SessionConfig{Version: ProtoVersion, CreditWindow: 4})
	v1 := append([]byte(nil), hello...)
	v1[0] = 1

	f.Add([]byte{})
	f.Add([]byte{frameData}) // truncated header
	f.Add(fuzzFrame(nil, frameHello, hello))
	f.Add(fuzzFrame(fuzzFrame(fuzzFrame(nil, frameHello, hello), frameData, rec), frameEnd, nil))
	f.Add(fuzzFrame(fuzzFrame(nil, frameCredit, []byte{8, 0, 0, 0}), frameData, rec))         // credit before hello
	f.Add([]byte{frameData, 0xff, 0xff, 0xff, 0x7f})                                          // payload length past the frame cap
	f.Add(fuzzFrame(nil, frameSwap, append([]byte{swapPrepare}, "x.gob"...)))                 // swap before hello
	f.Add(fuzzFrame(nil, frameHello, v1))                                                     // version-1 hello
	f.Add(fuzzFrame(nil, frameData, rec))                                                     // data before hello
	f.Add(fuzzFrame(nil, frameHello, appendHello(nil, SessionConfig{Version: ProtoVersion}))) // zero credit window
	f.Add(fuzzFrame(nil, 0x04, []byte{0x01}))                                                 // the retired mode frame

	f.Fuzz(func(t *testing.T, data []byte) {
		rt := fuzzRouter(t)
		cs, ss := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- rt.ServeConn(ss) }()
		fuzzDrive(t, cs, data, done)
	})
}
