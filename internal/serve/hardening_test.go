package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/tensor"
)

func hardenedServer(t *testing.T, o ServerOptions) *Server {
	t.Helper()
	if o.Pipeline.WindowMS == 0 {
		o.Pipeline = stream.Options{WindowMS: 45, Steps: 4, Batch: 2, ChunkEvents: 64}
	}
	srv, err := NewServer(testNet(4, 61), o)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// waitActive polls until srv holds exactly n active sessions — the
// admission tests need the holder parked in its slot before a
// contender arrives.
func waitActive(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveSessions() != n {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached %d active sessions", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeHalfOpenClientReaped is the IdleTimeout regression: a
// client that connects and then goes silent must lose its session slot
// within the idle deadline instead of holding it forever (the
// pre-deadline server blocked in the first Peek indefinitely).
func TestServeHalfOpenClientReaped(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	srv := hardenedServer(t, ServerOptions{MaxSessions: 1, PoolSize: 1,
		IdleTimeout: 50 * time.Millisecond, WriteTimeout: 50 * time.Millisecond})

	cs, ss := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(ss) }()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("half-open session ended without an error")
		}
		var ne net.Error
		if !errors.As(err, &ne) && !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("half-open session ended with %v, want a deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("half-open client still holds its session slot after 5s")
	}
	cs.Close()
	if n := srv.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions active after the reap", n)
	}

	// The freed slot must serve the next, live client.
	data := testRecording(t, 1, 200, 7)
	cl, sdone := startSession(srv)
	defer cl.Close()
	if _, err := cl.Stream(bytes.NewReader(data), nil); err != nil {
		t.Fatalf("session after the reap failed: %v", err)
	}
	cl.Close()
	<-sdone
}

// TestServeRefusalWriteDeadline is the WriteTimeout regression on the
// admission path: refusing a connection that never reads must not
// block ServeConn (pre-deadline it parked forever in the frameError
// write on a synchronous transport).
func TestServeRefusalWriteDeadline(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	srv := hardenedServer(t, ServerOptions{MaxSessions: 1, PoolSize: 1,
		WriteTimeout: 50 * time.Millisecond})

	// Occupy the only slot with an idle but live session, and wait for
	// it to actually hold the slot before contending.
	holder, hdone := startSession(srv)
	defer holder.Close()
	waitActive(t, srv, 1)

	// The refused connection never reads: on net.Pipe the refusal write
	// can only complete by deadline.
	cs, ss := net.Pipe()
	defer cs.Close()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(ss) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAtCapacity) {
			t.Fatalf("refusal returned %v, want ErrAtCapacity", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("capacity refusal to an unread socket blocked past 5s")
	}
	if got := srv.Metrics().SessionsRefused.Load(); got != 1 {
		t.Fatalf("SessionsRefused = %d, want 1", got)
	}
	holder.Close()
	<-hdone
}

// scriptedListener feeds Serve a fixed sequence of Accept outcomes.
type scriptedListener struct {
	script []func() (net.Conn, error)
	i      int
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	if l.i >= len(l.script) {
		return nil, net.ErrClosed
	}
	step := l.script[l.i]
	l.i++
	return step()
}
func (l *scriptedListener) Close() error   { return nil }
func (l *scriptedListener) Addr() net.Addr { return &net.TCPAddr{} }

// timeoutErr is a transient net.Error (Timeout true).
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "accept timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestServeAcceptBackoffRetriesTransient is the accept-loop
// regression: transient errors (timeouts, ECONNABORTED, EMFILE) must
// be retried with backoff — the connection behind them still gets
// served — while a permanent listener error still ends Serve.
func TestServeAcceptBackoffRetriesTransient(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	srv := hardenedServer(t, ServerOptions{MaxSessions: 2, PoolSize: 1})

	cs, ss := net.Pipe()
	permanent := errors.New("listener torn down")
	transient := []error{
		timeoutErr{},
		&net.OpError{Op: "accept", Err: syscall.ECONNABORTED},
		&net.OpError{Op: "accept", Err: syscall.EMFILE},
	}
	var script []func() (net.Conn, error)
	for _, te := range transient {
		te := te
		script = append(script, func() (net.Conn, error) { return nil, te })
	}
	script = append(script,
		func() (net.Conn, error) { return ss, nil },
		func() (net.Conn, error) { return nil, permanent },
	)

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(&scriptedListener{script: script}) }()

	// The session accepted after the transient burst must work.
	cl := NewClient(cs)
	defer cl.Close()
	data := testRecording(t, 2, 200, 9)
	if _, err := cl.Stream(bytes.NewReader(data), nil); err != nil {
		t.Fatalf("session accepted after transient errors failed: %v", err)
	}
	cl.Close()

	select {
	case err := <-serveDone:
		if !errors.Is(err, permanent) {
			t.Fatalf("Serve returned %v, want the permanent listener error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return on the permanent listener error")
	}
	if got := srv.Metrics().AcceptRetries.Load(); got != int64(len(transient)) {
		t.Fatalf("AcceptRetries = %d, want %d", got, len(transient))
	}
	srv.Close()
}

// TestServeQueueAdmission: with QueueTimeout set, a connection hitting
// a full server waits for a slot instead of being refused, and is
// served once one frees.
func TestServeQueueAdmission(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	srv := hardenedServer(t, ServerOptions{MaxSessions: 1, PoolSize: 1,
		QueueTimeout: 10 * time.Second})

	holder, hdone := startSession(srv)
	waitActive(t, srv, 1)
	queued, qdone := startSession(srv)
	defer queued.Close()

	// Wait until the second connection is actually parked in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().SessionsQueued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second connection never queued")
		}
		time.Sleep(time.Millisecond)
	}
	holder.Close() // frees the slot; ServeConn(holder) returns
	<-hdone

	data := testRecording(t, 3, 200, 11)
	if _, err := queued.Stream(bytes.NewReader(data), nil); err != nil {
		t.Fatalf("queued session failed once admitted: %v", err)
	}
	queued.Close()
	<-qdone
	m := srv.Metrics()
	if m.SessionsQueued.Load() != 1 || m.QueueTimeouts.Load() != 0 || m.SessionsRefused.Load() != 0 {
		t.Fatalf("queued=%d timeouts=%d refused=%d, want 1/0/0",
			m.SessionsQueued.Load(), m.QueueTimeouts.Load(), m.SessionsRefused.Load())
	}
}

// TestServeQueueTimeout: a queued connection that never gets a slot is
// refused at the deadline with the capacity error.
func TestServeQueueTimeout(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	srv := hardenedServer(t, ServerOptions{MaxSessions: 1, PoolSize: 1,
		QueueTimeout: 30 * time.Millisecond})

	holder, hdone := startSession(srv)
	defer holder.Close()
	waitActive(t, srv, 1)

	queued, qdone := startSession(srv)
	defer queued.Close()
	if _, err := queued.Stream(bytes.NewReader(testRecording(t, 0, 200, 13)), nil); err == nil {
		t.Fatal("queued session succeeded, want the capacity refusal")
	} else if want := ErrAtCapacity.Error(); err.Error() != want {
		t.Fatalf("queued session error = %q, want %q", err.Error(), want)
	}
	select {
	case err := <-qdone:
		if !errors.Is(err, ErrAtCapacity) {
			t.Fatalf("ServeConn returned %v, want ErrAtCapacity", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued ServeConn did not return after its timeout")
	}
	m := srv.Metrics()
	if m.QueueTimeouts.Load() != 1 || m.SessionsRefused.Load() != 1 {
		t.Fatalf("timeouts=%d refused=%d, want 1/1", m.QueueTimeouts.Load(), m.SessionsRefused.Load())
	}
	holder.Close()
	<-hdone
}

// TestServeCreditFlowMatchesReference: a tiny credit window with a
// deliberately slow consumer still yields bit-identical results in
// order, the writer stalls are counted, and no results stay buffered
// after the session drains.
func TestServeCreditFlowMatchesReference(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(2)
	master := testNet(4, 61)
	o := stream.Options{WindowMS: 45, Steps: 4, Batch: 2, ChunkEvents: 64}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, MaxSessions: 2, PoolSize: 2,
		ResultWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := testRecording(t, 1, 500, 17)
	want := standalone(t, master, data, o)

	cl, done := startSessionOptions(srv, ClientOptions{Config: SessionConfig{CreditWindow: 1}})
	defer cl.Close()
	var got []stream.Result
	var consumed atomic.Int64
	n, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
		time.Sleep(2 * time.Millisecond)
		consumed.Add(1)
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("done frame reports %d windows, want %d", n, len(want))
	}
	assertResults(t, "credit flow", want, got)
	cl.Close()
	<-done

	m := srv.Metrics()
	if m.CreditStalls.Load() == 0 {
		t.Fatal("a 1-credit window with a slow consumer produced no credit stalls")
	}
	if b := m.ResultsBuffered.Load(); b != 0 {
		t.Fatalf("%d results still buffered after the session drained", b)
	}
	if sent := m.ResultsSent.Load(); sent != int64(len(want)) {
		t.Fatalf("ResultsSent = %d, want %d", sent, len(want))
	}
}

// TestServeCreditInterleave is the regression for frame-done
// accounting when a session's windows complete across round
// boundaries: tiny credit and result windows (2 each) against 4-window
// rounds force every session's rounds to interleave with other
// sessions' rounds and with its own credit top-ups. Window order, done
// counts and the client/server credit resync must all survive several
// recordings back to back, and nothing may stay buffered at the end.
// (go test -race runs this in CI's race job.)
func TestServeCreditInterleave(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(2)
	master := testNet(4, 61)
	o := stream.Options{WindowMS: 40, Steps: 4, Batch: 4, ChunkEvents: 48}
	srv, err := NewServer(master, ServerOptions{
		Pipeline: o, MaxSessions: 3, PoolSize: 2, ResultWindow: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := testRecording(t, 3, 600, 71)
	want := standalone(t, master, data, o)
	if len(want) < 8 {
		t.Fatalf("recording yields %d windows; need a multiple of the 2-credit window to interleave", len(want))
	}

	const sessions = 3
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, done := startSessionOptions(srv, ClientOptions{Config: SessionConfig{CreditWindow: 2}})
			defer cl.Close()
			for rec := 0; rec < 3; rec++ {
				next := 0
				n, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
					if r.Window != next {
						return fmt.Errorf("window %d delivered out of order (want %d)", r.Window, next)
					}
					if !sameResult(r, want[next]) {
						return fmt.Errorf("window %d = %+v, want %+v", next, r, want[next])
					}
					next++
					return nil
				})
				if err != nil {
					errs <- fmt.Errorf("session %d recording %d: %w", i, rec, err)
					return
				}
				if n != len(want) || next != len(want) {
					errs <- fmt.Errorf("session %d recording %d: declared %d, delivered %d, want %d",
						i, rec, n, next, len(want))
					return
				}
			}
			cl.Close()
			<-done
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if b := srv.Metrics().ResultsBuffered.Load(); b != 0 {
		t.Fatalf("%d results still buffered after every session drained", b)
	}
	if n := srv.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions still active after drain", n)
	}
}

// TestServeAbortDrainsBufferedGauge is the gauge-leak regression: a
// 1-credit client that consumes one result and then dies leaves the
// session with staged, undeliverable results. Aborting the session
// must hand every one of them back to the ResultsBuffered gauge — a
// server that leaks the gauge here reports phantom buffered results
// forever.
func TestServeAbortDrainsBufferedGauge(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(4, 61)
	o := stream.Options{WindowMS: 40, Steps: 4, Batch: 2, ChunkEvents: 48}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, MaxSessions: 1, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := testRecording(t, 1, 500, 57)
	if want := standalone(t, master, data, o); len(want) < 4 {
		t.Fatalf("recording yields %d windows; need enough to stay staged past 1 credit", len(want))
	}

	cl, done := startSessionOptions(srv, ClientOptions{Config: SessionConfig{CreditWindow: 1}})
	defer cl.Close()
	seen := 0
	_, err = cl.Stream(bytes.NewReader(data), func(stream.Result) error {
		seen++
		return fmt.Errorf("consumer died")
	})
	if err == nil {
		t.Fatal("Stream returned nil after the emit callback failed")
	}
	if seen != 1 {
		t.Fatalf("consumer saw %d results before dying, want 1", seen)
	}
	cl.Close()
	<-done
	if n := srv.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions still active after the abort", n)
	}
	if b := srv.Metrics().ResultsBuffered.Load(); b != 0 {
		t.Fatalf("results_buffered = %d after the aborted session tore down, want 0 (gauge leak)", b)
	}
}

// TestServeAbortWhileClientUploads: a session that fails mid-upload
// while the client keeps pushing data frames past the 256 KB read-ahead
// runway must still end — stopReader must not deadlock on a reader
// parked waiting for a free chunk. The upload opens with a valid hello,
// so the abort comes from the AEDAT codec rejecting the garbage
// container, not from the hello-required refusal.
func TestServeAbortWhileClientUploads(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	srv, err := NewServer(testNet(8, 71), ServerOptions{
		Pipeline: stream.Options{WindowMS: 50, Steps: 8}, PoolSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs, ss := net.Pipe()
	defer cs.Close()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(ss) }()

	// Upload garbage data frames until the connection dies.
	go func() {
		fw := newFrameWriter(cs)
		if err := fw.write(frameHello, appendHello(nil, SessionConfig{Version: ProtoVersion, CreditWindow: DefaultCreditWindow})); err != nil {
			return
		}
		junk := make([]byte, readChunk)
		for {
			if err := fw.write(frameData, junk); err != nil {
				return
			}
			if err := fw.flush(); err != nil {
				return
			}
		}
	}()
	// Drain server->client so the accept and error frame writes never
	// block on the synchronous pipe.
	go func() { _, _ = io.Copy(io.Discard, cs) }()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("session over a garbage container ended without an error")
		}
		if strings.Contains(err.Error(), "hello") {
			t.Fatalf("session ended with the hello refusal %q, want the codec error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: session never ended while the client kept uploading")
	}
}
