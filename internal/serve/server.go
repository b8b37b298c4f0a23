package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/approx"
	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// ErrAtCapacity is the session-manager refusal: the server already
// holds MaxSessions concurrent sessions. The client sees it as a
// frameError before the connection closes.
var ErrAtCapacity = errors.New("serve: server at session capacity")

// ServerOptions configure a Server.
type ServerOptions struct {
	// Pipeline is the per-session streaming configuration (window,
	// steps, batch width, chunking, filter mode, sensor pinning).
	// Clones, Slots, Observer and Energy are overwritten: every session
	// draws clones and frame slots from the server's shared pools and
	// reports its rounds and SOPs to the server's metrics.
	Pipeline stream.Options
	// MaxSessions bounds how many sessions run concurrently; further
	// connections are refused with ErrAtCapacity instead of queueing
	// (a loaded serving tier fails fast so the balancer can retry
	// elsewhere) unless QueueTimeout opts into bounded waiting. 0 uses
	// 16; negative is a configuration error.
	MaxSessions int
	// PoolSize is the shared clone/arena/slot pool capacity — how many
	// window batches classify at once across ALL sessions. 0 sizes it
	// by tensor.Workers(): the pools match the compute budget, so
	// memory stays O(workers × batch), not O(sessions × batch).
	// Negative is a configuration error.
	PoolSize int
	// QueueTimeout, when positive, queues connections arriving at a
	// full server for up to this long before refusing them — bounded
	// admission waiting instead of fail-fast. Zero (the default) keeps
	// the immediate ErrAtCapacity refusal; negative is a configuration
	// error.
	QueueTimeout time.Duration
	// IdleTimeout bounds peer silence: every frame read arms it, and a
	// credit stall (an exhausted window the client never tops up) is
	// reaped by it too. 0 uses DefaultIdleTimeout, negative disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds every frame write, including the capacity
	// refusal to a client that never reads. 0 uses
	// DefaultWriteTimeout, negative disables.
	WriteTimeout time.Duration
	// ResultWindow caps the undelivered results buffered per session
	// under credit flow (the ring between the pipeline and the wire
	// writer); the pipeline stalls beyond it. 0 uses 256 — at one
	// 128-byte ring slot per staged result the worst case is 32 KB per
	// session. Negative is a configuration error.
	ResultWindow int
	// AdminSwap enables the frameSwap checkpoint RPC
	// (prepare/commit/abort) on client connections — the seam the
	// router's all-or-nothing hot-swap fan-out rides. Off by default on
	// purpose: the RPC names server-side files, so a server exposed to
	// untrusted clients must not honor it.
	AdminSwap bool
}

// validate rejects option values NewServer used to clamp silently: a
// negative size or window is a caller bug worth reporting, not a
// request for the default. Negative timeouts are NOT errors — the
// deadline fields document them as "disabled".
func (o ServerOptions) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MaxSessions", o.MaxSessions},
		{"PoolSize", o.PoolSize},
		{"ResultWindow", o.ResultWindow},
	} {
		if f.v < 0 {
			return fmt.Errorf("serve: ServerOptions.%s is %d; it must not be negative (0 means default)", f.name, f.v)
		}
	}
	if o.QueueTimeout < 0 {
		return fmt.Errorf("serve: ServerOptions.QueueTimeout is %v; it must not be negative (0 disables queueing)", o.QueueTimeout)
	}
	return nil
}

// unit is one pooled evaluation resource: a weight-sharing clone (its
// inference arena rides inside, recycled by PredictBatchInto) tagged
// with the master it was cloned from, so a checkpoint hot-swap is
// detected at the next acquire.
type unit struct {
	master *snn.Network
	clone  *snn.Network
}

// Server multiplexes concurrent event-stream sessions over one model.
// The model is replaceable under load: LoadCheckpoint swaps the master
// atomically and pooled clones refresh on their next acquire, so
// in-flight window batches finish on the weights they hold and
// everything afterwards — later windows, later recordings, new
// sessions — classifies on the new ones.
type Server struct {
	opts   ServerOptions
	master atomic.Pointer[snn.Network]
	swapMu sync.Mutex // serializes checkpoint commits
	swaps  atomic.Int64
	// ckptFP fingerprints the committed checkpoint bytes (FNV-1a); 0
	// until the first swap. The router asserts replicas converged on
	// the same checkpoint by comparing fingerprints, which generation
	// counters alone cannot prove.
	ckptFP atomic.Uint64

	units   chan *unit
	cloneMu sync.Mutex
	byClone map[*snn.Network]*unit //axsnn:guardedby cloneMu

	// slots is the shared frame-slot pool every session pipeline draws
	// from — sized like the clone pool, so full occupancy costs
	// O(PoolSize × Batch × window) frames however many sessions run.
	slots *stream.SlotPool

	// energy is the SOP-accounting model over the served master's
	// geometry and prune masks — RCU like the master itself, rebuilt by
	// every LoadCheckpoint so accounting follows the swapped-in weights.
	energy atomic.Pointer[approx.EnergyModel]
	// int8OK records whether per-channel int8 panels built on the
	// master at construction — the gate for the INT8 session tier.
	// Set once in NewServer, read-only after.
	int8OK bool

	metrics Metrics
	start   time.Time

	sem    chan struct{}
	done   chan struct{} // closed by Close: unblocks queued admissions and stalled writers
	active atomic.Int64
	served atomic.Int64
	mu     sync.Mutex
	closed bool                      //axsnn:guardedby mu
	lns    map[net.Listener]struct{} //axsnn:guardedby mu
	conns  map[net.Conn]struct{}     //axsnn:guardedby mu
	wg     sync.WaitGroup
}

// NewServer builds a server over master. The master is used read-only;
// every classification runs on pooled weight-sharing clones.
//
// Zero option values mean "use the default"; negative sizes and
// windows are configuration errors, reported instead of silently
// clamped (negative timeouts stay meaningful: they disable the
// deadline, per ServerOptions).
func NewServer(master *snn.Network, o ServerOptions) (*Server, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.MaxSessions == 0 {
		o.MaxSessions = 16
	}
	if o.PoolSize == 0 {
		o.PoolSize = tensor.Workers()
	}
	o.IdleTimeout = normTimeout(o.IdleTimeout, DefaultIdleTimeout)
	o.WriteTimeout = normTimeout(o.WriteTimeout, DefaultWriteTimeout)
	if o.ResultWindow == 0 {
		o.ResultWindow = 256
	}
	batch := o.Pipeline.Batch
	if batch <= 0 {
		batch = stream.DefaultBatch
	}
	s := &Server{
		opts:    o,
		units:   make(chan *unit, o.PoolSize),
		byClone: make(map[*snn.Network]*unit, o.PoolSize),
		slots:   stream.NewSlotPool(o.PoolSize, batch),
		start:   time.Now(),
		sem:     make(chan struct{}, o.MaxSessions),
		done:    make(chan struct{}),
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	// Build the int8 panels before the clones: CloneArchitecture shares
	// panels, so clones made after the build serve the INT8 tier without
	// a build of their own. A master the quantizer cannot panel (no
	// weighted layers, degenerate shapes) just disables the tier —
	// sessions requesting it are refused at pipeline build.
	s.int8OK = master.BuildInt8Panels() == nil
	s.energy.Store(approx.NewEnergyModel(master))
	s.master.Store(master)
	for i := 0; i < o.PoolSize; i++ {
		s.units <- &unit{master: master, clone: master.CloneArchitecture()}
	}
	// Validate the session pipeline configuration now, not at the first
	// connection: a probe pipeline exercises the same option checks.
	probe := o.Pipeline
	probe.Clones = s
	probe.Slots = s.slots
	if _, err := stream.NewPipeline(master, probe); err != nil {
		return nil, err
	}
	return s, nil
}

// Slots exposes the shared frame-slot pool (occupancy and high-water
// gauges feed the metrics endpoint and the soak assertions).
func (s *Server) Slots() *stream.SlotPool { return s.slots }

// AcquireClone implements stream.CloneSource over the shared pool,
// refreshing stale units so a hot-swapped checkpoint reaches every
// batch classified after the swap. The tier resets to exact FP32 on
// every acquire: the pool is shared across tiers, and a clone released
// by an INT8 session must never carry its tier into an FP32 batch.
func (s *Server) AcquireClone() *snn.Network {
	return s.AcquireCloneTier(snn.TierFP32)
}

// AcquireCloneTier implements stream.TierCloneSource: an AcquireClone
// whose clone comes back set to tier t. SupportsTier gates every tiered
// submission and LoadCheckpoint rebuilds panels on swap, so SetTier
// cannot fail here.
func (s *Server) AcquireCloneTier(t snn.PrecisionTier) *snn.Network {
	u := <-s.units
	if m := s.master.Load(); u.master != m {
		u.master = m
		u.clone = m.CloneArchitecture()
	}
	if err := u.clone.SetTier(t); err != nil {
		s.units <- u
		panic(fmt.Sprintf("serve: pooled clone cannot serve tier %v: %v", t, err))
	}
	s.cloneMu.Lock()
	s.byClone[u.clone] = u
	s.cloneMu.Unlock()
	return u.clone
}

// SupportsTier implements stream.TierCloneSource: exact FP32 always,
// quantized INT8 when the master's per-channel panels built.
func (s *Server) SupportsTier(t snn.PrecisionTier) bool {
	return t == snn.TierFP32 || (t == snn.TierINT8 && s.int8OK)
}

// ReleaseClone implements stream.CloneSource.
func (s *Server) ReleaseClone(c *snn.Network) {
	s.cloneMu.Lock()
	u := s.byClone[c]
	delete(s.byClone, c)
	s.cloneMu.Unlock()
	if u == nil {
		panic("serve: ReleaseClone of a clone that was not acquired")
	}
	s.units <- u
}

// LoadCheckpoint reads a snn checkpoint and swaps it in as the master:
// an RCU-style pointer exchange. The swap is atomic — a checkpoint that
// fails to decode or mismatches the architecture leaves the served
// model untouched — and asynchronous for traffic: sessions never stall,
// in-flight batches finish on the clone they hold, and every batch
// acquired after the swap classifies on the new weights.
func (s *Server) LoadCheckpoint(r io.Reader) error {
	fresh, fp, err := s.prepareSwapReader(r)
	if err != nil {
		return err
	}
	s.commitSwap(fresh, fp)
	return nil
}

// LoadCheckpointFile is LoadCheckpoint over a file path.
func (s *Server) LoadCheckpointFile(path string) error {
	fresh, fp, err := s.prepareSwap(path)
	if err != nil {
		return err
	}
	s.commitSwap(fresh, fp)
	return nil
}

// prepareSwap stages a checkpoint file without touching the served
// model: the first phase of the frameSwap RPC, and the loading half of
// LoadCheckpointFile. Safe without swapMu — it only reads the master
// (atomically) and builds a private network.
func (s *Server) prepareSwap(path string) (*snn.Network, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return s.prepareSwapReader(f)
}

// prepareSwapReader decodes checkpoint bytes onto a fresh deep clone of
// the master and rebuilds whatever capabilities the server advertises,
// returning the network plus the FNV-1a fingerprint of the bytes read.
func (s *Server) prepareSwapReader(r io.Reader) (*snn.Network, uint64, error) {
	h := fnv.New64a()
	fresh := s.master.Load().DeepClone()
	if err := fresh.Load(io.TeeReader(r, h)); err != nil {
		return nil, 0, err
	}
	// DeepClone drops the int8 panels (clones exist to be mutated);
	// rebuild them on the new weights before the swap becomes visible,
	// or the INT8 tier would silently detach from the served model. A
	// panel failure aborts the swap like a decode failure: the served
	// model keeps its advertised capabilities.
	if s.int8OK {
		if err := fresh.BuildInt8Panels(); err != nil {
			return nil, 0, fmt.Errorf("serve: int8 panels for the new checkpoint: %w", err)
		}
	}
	return fresh, h.Sum64(), nil
}

// commitSwap makes a prepared checkpoint the served master and returns
// the new swap generation. The commit itself is cheap — three stores
// under swapMu — which is what lets the router hold every replica's
// prepared checkpoint ready and commit the fleet near-simultaneously.
func (s *Server) commitSwap(fresh *snn.Network, fp uint64) int64 {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	s.energy.Store(approx.NewEnergyModel(fresh))
	s.master.Store(fresh)
	s.ckptFP.Store(fp)
	return s.swaps.Add(1)
}

// CheckpointFP reports the FNV-1a fingerprint of the last committed
// checkpoint's bytes — 0 until the first swap. Replicas serving the
// same checkpoint report the same fingerprint.
func (s *Server) CheckpointFP() uint64 { return s.ckptFP.Load() }

// BatchSOPs implements stream.EnergyAccount over the served model's
// energy profile, feeding the per-batch estimate into the server-wide
// metrics accumulator on the way through. Allocation-free — it runs on
// every session's classify path.
func (s *Server) BatchSOPs(net *snn.Network, inputSum float64, batch int) (sops, possible float64) {
	sops, possible = s.energy.Load().BatchSOPs(net, inputSum, batch)
	s.metrics.AddSOPs(sops)
	return sops, possible
}

// Master returns the currently served model (the value new sessions
// and refreshed clones draw weights from).
func (s *Server) Master() *snn.Network { return s.master.Load() }

// Swaps reports how many checkpoints have been hot-swapped in.
func (s *Server) Swaps() int64 { return s.swaps.Load() }

// ActiveSessions reports the sessions currently being served.
func (s *Server) ActiveSessions() int64 { return s.active.Load() }

// ServedSessions reports the sessions completed since start.
func (s *Server) ServedSessions() int64 { return s.served.Load() }

// Serve accepts sessions from ln until the listener fails or the
// server closes. Each connection is one session, served concurrently.
// Transient accept errors — timeouts, aborted handshakes, fd
// exhaustion (EMFILE/ENFILE) — are retried with capped exponential
// backoff instead of killing the listener: under fd pressure the
// server degrades to slower accepts, not to deafness.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.forgetListener(ln)
				return nil
			}
			if isTransientAccept(err) {
				s.metrics.AcceptRetries.Add(1)
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				t := time.NewTimer(backoff)
				select {
				case <-t.C:
				case <-s.done:
					t.Stop()
					s.forgetListener(ln)
					return nil
				}
				continue
			}
			s.forgetListener(ln)
			return err
		}
		backoff = 0
		// The Add must be ordered against Close's closed-flag write:
		// an accept that races the shutdown would otherwise Add while
		// Close is already in Wait.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			s.forgetListener(ln)
			return nil
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			_ = s.ServeConn(conn)
		}()
	}
}

func (s *Server) forgetListener(ln net.Listener) {
	s.mu.Lock()
	delete(s.lns, ln)
	s.mu.Unlock()
}

// isTransientAccept classifies accept errors worth retrying: listener
// timeouts and the classic load-shedding errnos. Everything else
// (closed listener, fatal socket state) ends Serve.
func isTransientAccept(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	for _, errno := range []syscall.Errno{
		syscall.ECONNABORTED, syscall.ECONNRESET,
		syscall.EMFILE, syscall.ENFILE, syscall.EINTR,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// ServeConn serves one session on conn (closing it when the session
// ends) and returns the session's terminal error, if any. It is the
// transport-agnostic entry point: production traffic arrives through
// Serve's TCP listener, tests drive it directly over net.Pipe.
func (s *Server) ServeConn(conn net.Conn) error {
	defer conn.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errServerClosed
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// All session I/O — including the refusal below — rides per-frame
	// deadlines: a half-open peer can stall one frame for at most
	// IdleTimeout/WriteTimeout, never a session slot forever.
	dc := &deadlineConn{conn: conn, idle: s.opts.IdleTimeout, write: s.opts.WriteTimeout}
	if !s.admit() {
		s.metrics.SessionsRefused.Add(1)
		fw := newFrameWriter(dc)
		_ = fw.write(frameError, []byte(ErrAtCapacity.Error()))
		_ = fw.flush()
		return ErrAtCapacity
	}
	s.active.Add(1)
	defer func() {
		s.active.Add(-1)
		s.served.Add(1)
		<-s.sem
	}()
	err := s.serveSession(dc)
	if err != nil {
		s.metrics.SessionErrors.Add(1)
	}
	return err
}

// admit takes a session slot. A full server refuses immediately unless
// QueueTimeout opts into bounded waiting, in which case the connection
// queues until a slot frees, the deadline passes, or the server closes.
func (s *Server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.opts.QueueTimeout <= 0 {
		return false
	}
	s.metrics.SessionsQueued.Add(1)
	t := time.NewTimer(s.opts.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-t.C:
		s.metrics.QueueTimeouts.Add(1)
		return false
	case <-s.done:
		return false
	}
}

// serveSession runs one session: a reusable pipeline classifying one
// or more framed recordings back to back. The pipeline runs on this
// goroutine over the reader goroutine's demuxed chunks and stages
// results into the session's bounded ring; the session's writer
// goroutine streams them to the client as credits allow (see session).
// A session failure — protocol, codec, windowing, classification, a
// write error or a reaped credit stall — is reported as a frameError
// (after the writer has stopped, so the error frame cannot interleave
// with a result) and ends the session; it never takes the server down.
func (s *Server) serveSession(dc *deadlineConn) (err error) {
	ss := newSession(s, dc)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: session panic: %v", p)
		}
		ss.stopWriter()
		if werr := ss.writeErr(); werr != nil && werr != errWriterStopped &&
			(err == nil || err == errWriterStopped) {
			err = werr
		}
		if err == errWriterStopped {
			err = errors.New("serve: session writer exited")
		}
		if err != nil {
			_ = ss.fw.write(frameError, []byte(err.Error()))
			_ = ss.fw.flush()
		}
		ss.stopReader()
	}()

	// The pipeline is built lazily, at the first recording: by then the
	// reader has processed the frameHello the client opened with —
	// frames are relayed in wire order — so the tier choice is latched
	// correctly. It is then reused for every recording on the session.
	var p *stream.Pipeline
	for {
		more, err := ss.nextRecording()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		if p == nil {
			o := s.opts.Pipeline
			if ss.tierInt8.Load() {
				// A tier the server cannot serve (no panels) is rejected
				// by the pipeline's option validation below and surfaces
				// to the client as a frameError.
				o.Tier = snn.TierINT8
			}
			o.Clones = s
			o.Slots = s.slots
			o.Observer = s
			o.Energy = s
			p, err = stream.NewPipeline(s.master.Load(), o)
			if err != nil {
				return err
			}
		}
		windows := uint32(0)
		sops := 0.0
		err = p.Run(ss, func(r stream.Result) error {
			windows++
			sops += r.SOPs
			return ss.emit(r)
		})
		if err != nil {
			return err
		}
		if err = ss.drainRecording(); err != nil {
			return err
		}
		if err = ss.finishRecording(windows, sops); err != nil {
			return err
		}
	}
}

// Close stops accepting, closes every live connection and waits for
// session goroutines started by Serve to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if first {
		// Unblocks queued admissions and credit-stalled writers.
		close(s.done)
	}
	s.wg.Wait()
	return nil
}
