package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultHealthInterval is how often the router probes each replica.
const DefaultHealthInterval = 2 * time.Second

// ErrNoReplica is the router's placement refusal: no replica is up. The
// client sees it as a frameError before the connection closes.
var ErrNoReplica = errors.New("serve: no replica available")

// RouterOptions configure a Router.
type RouterOptions struct {
	// Replicas are the backend serve addresses sessions are placed
	// onto. At least one is required; duplicates are configuration
	// errors.
	Replicas []string
	// HealthInterval is how often each replica is probed (a hello
	// handshake on a fresh connection). 0 uses DefaultHealthInterval;
	// negative is a configuration error. The probe also doubles as the
	// rejoin path: a replica that comes back is resynced to the last
	// fanned-out checkpoint before taking placements again.
	HealthInterval time.Duration
	// DialTimeout bounds each placement and probe dial. 0 uses
	// DefaultDialTimeout, negative disables.
	DialTimeout time.Duration
	// IdleTimeout bounds client silence, exactly like
	// ServerOptions.IdleTimeout: every client frame read arms it. The
	// replica side runs without a read deadline on purpose — a replica
	// is legitimately silent for as long as its client is idle — so
	// session lifetime is bounded by this client-side deadline (which
	// ends both relay directions) plus the replica's own deadlines.
	// 0 uses DefaultIdleTimeout, negative disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds each relayed frame write, on both sides.
	// 0 uses DefaultWriteTimeout, negative disables.
	WriteTimeout time.Duration
}

func (o RouterOptions) validate() error {
	if len(o.Replicas) == 0 {
		return errors.New("serve: router requires at least one replica address")
	}
	seen := make(map[string]struct{}, len(o.Replicas))
	for _, addr := range o.Replicas {
		if addr == "" {
			return errors.New("serve: router replica address is empty")
		}
		if _, dup := seen[addr]; dup {
			return fmt.Errorf("serve: router replica %q listed twice", addr)
		}
		seen[addr] = struct{}{}
	}
	if o.HealthInterval < 0 {
		return fmt.Errorf("serve: RouterOptions.HealthInterval is %v; it must not be negative (0 means default)", o.HealthInterval)
	}
	return nil
}

// replica is the router's view of one backend: liveness plus placement
// accounting, all atomics — the placement path reads them lock-free.
type replica struct {
	addr       string
	up         atomic.Bool
	active     atomic.Int64 // sessions currently proxied to this replica
	placements atomic.Int64 // sessions ever placed here
	failures   atomic.Int64 // failed dials/probes charged to this replica
	lost       atomic.Int64 // sessions cut mid-stream by this replica dying
}

// RouterMetrics is the router's counter registry, atomic like Metrics.
type RouterMetrics struct {
	SessionsProxied atomic.Int64 // sessions accepted and placed
	SessionsActive  atomic.Int64 // gauge: sessions currently relaying
	Placements      atomic.Int64 // successful placements
	RePlacements    atomic.Int64 // placements retried on another replica after a dead dial
	NoReplica       atomic.Int64 // sessions refused with ErrNoReplica
	ReplicasLost    atomic.Int64 // replicas that died mid-session
	FramesRelayed   atomic.Int64 // frames proxied, both directions
	ProxyLatency    LatencyHist  // per-frame relay cost, replica→client side
}

// Router is the horizontal scale-out front tier: it accepts client
// connections, places each session onto a backend replica by rendezvous
// hash, and relays the length-prefixed framing both ways — hello
// handshakes, credit grants and all — without interpreting it beyond
// frame boundaries. Replicas are health-checked; a replica dying
// mid-session turns into a clean frameError on the affected clients
// (never a hang), new sessions re-place onto survivors, and a recovered
// replica rejoins after being resynced to the last fanned-out
// checkpoint. SwapAll propagates a checkpoint hot-swap to every replica
// with all-or-nothing semantics.
type Router struct {
	opts RouterOptions
	reps []*replica
	seq  atomic.Uint64 // per-session placement salt

	// swapMu serializes SwapAll fan-outs and guards the checkpoint a
	// rejoining replica must be resynced to.
	swapMu   sync.Mutex
	lastCkpt string //axsnn:guardedby swapMu

	metrics RouterMetrics
	start   time.Time

	done     chan struct{}
	mu       sync.Mutex
	closed   bool                      //axsnn:guardedby mu
	lns      map[net.Listener]struct{} //axsnn:guardedby mu
	conns    map[net.Conn]struct{}     //axsnn:guardedby mu
	wg       sync.WaitGroup
	healthWG sync.WaitGroup
}

// NewRouter builds a router over the given replica set and starts the
// health loops. Replicas start down; the first probe round brings the
// live ones up, so callers that need placements immediately should wait
// for Healthy() > 0.
func NewRouter(o RouterOptions) (*Router, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = DefaultHealthInterval
	}
	o.IdleTimeout = normTimeout(o.IdleTimeout, DefaultIdleTimeout)
	o.WriteTimeout = normTimeout(o.WriteTimeout, DefaultWriteTimeout)
	rt := &Router{
		opts:  o,
		start: time.Now(),
		done:  make(chan struct{}),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	for _, addr := range o.Replicas {
		rt.reps = append(rt.reps, &replica{addr: addr})
	}
	for _, rep := range rt.reps {
		rt.healthWG.Add(1)
		go rt.health(rep)
	}
	return rt, nil
}

// Metrics exposes the live router counters.
func (rt *Router) Metrics() *RouterMetrics { return &rt.metrics }

// Healthy reports how many replicas are currently up.
func (rt *Router) Healthy() int {
	n := 0
	for _, rep := range rt.reps {
		if rep.up.Load() {
			n++
		}
	}
	return n
}

// health probes one replica until the router closes: an immediate probe
// (so a fresh router converges fast), then one per HealthInterval.
func (rt *Router) health(rep *replica) {
	defer rt.healthWG.Done()
	t := time.NewTicker(rt.opts.HealthInterval)
	defer t.Stop()
	for {
		rt.probe(rep)
		select {
		case <-t.C:
		case <-rt.done:
			return
		}
	}
}

// probe checks one replica with a hello handshake on a fresh
// connection. A down replica that answers is resynced to the last
// fanned-out checkpoint BEFORE being marked up, so a restarted replica
// never takes placements while serving stale weights.
func (rt *Router) probe(rep *replica) {
	if err := rt.checkReplica(rep.addr); err != nil {
		if rep.up.Swap(false) {
			rep.failures.Add(1)
		}
		return
	}
	if rep.up.Load() {
		return
	}
	if err := rt.syncCheckpoint(rep.addr); err != nil {
		rep.failures.Add(1)
		return
	}
	rep.up.Store(true)
}

// checkReplica dials and completes a hello handshake — a liveness
// check that exercises the real session path, not just the accept
// queue. Bounded by DialTimeout plus a probe read deadline of at
// least one second: a momentarily busy replica must not be demoted (and
// later resynced) over a sub-second HealthInterval.
func (rt *Router) checkReplica(addr string) error {
	idle := rt.opts.HealthInterval
	if idle < time.Second {
		idle = time.Second
	}
	cl, err := Dial(addr, ClientOptions{
		DialTimeout: rt.opts.DialTimeout,
		IdleTimeout: idle,
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.Ping()
}

// syncCheckpoint brings one replica onto the last fanned-out
// checkpoint (a no-op before the first SwapAll).
func (rt *Router) syncCheckpoint(addr string) error {
	rt.swapMu.Lock()
	path := rt.lastCkpt
	rt.swapMu.Unlock()
	if path == "" {
		return nil
	}
	cl, err := Dial(addr, ClientOptions{
		DialTimeout: rt.opts.DialTimeout,
		IdleTimeout: rt.opts.IdleTimeout,
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	st, err := cl.SwapPrepare(path)
	if err == nil && !st.OK {
		err = errors.New(st.Msg)
	}
	if err != nil {
		return fmt.Errorf("serve: router: resync prepare on %s: %w", addr, err)
	}
	if st, err = cl.SwapCommit(); err == nil && !st.OK {
		err = errors.New(st.Msg)
	}
	if err != nil {
		return fmt.Errorf("serve: router: resync commit on %s: %w", addr, err)
	}
	return nil
}

// sessionKey derives a placement key for one client connection: the
// remote address hashed with a router-global sequence number, so
// reconnects spread instead of pinning to one replica.
func (rt *Router) sessionKey(conn net.Conn) uint64 {
	h := fnv.New64a()
	if ra := conn.RemoteAddr(); ra != nil {
		_, _ = io.WriteString(h, ra.String())
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], rt.seq.Add(1))
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// score is the rendezvous (highest-random-weight) hash: every replica
// scores every key independently, the maximum wins. Removing a replica
// only moves the sessions that scored it highest — the consistent-hash
// property — and needs no ring state to keep in sync.
func score(key uint64, addr string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, addr)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], key)
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// best returns the up replica with the highest rendezvous score for
// key, nil when none is up. Ties break by address so every router
// instance agrees.
func (rt *Router) best(key uint64) *replica {
	var win *replica
	var winScore uint64
	for _, rep := range rt.reps {
		if !rep.up.Load() {
			continue
		}
		s := score(key, rep.addr)
		if win == nil || s > winScore || (s == winScore && rep.addr < win.addr) {
			win, winScore = rep, s
		}
	}
	return win
}

// place picks a replica for key and dials it, demoting dead winners and
// retrying on the survivors — a failed dial is the router's fastest
// down-detector, ahead of the next health probe.
func (rt *Router) place(key uint64) (*replica, net.Conn, error) {
	dt := normTimeout(rt.opts.DialTimeout, DefaultDialTimeout)
	for tries := 0; tries <= len(rt.reps); tries++ {
		rep := rt.best(key)
		if rep == nil {
			return nil, nil, ErrNoReplica
		}
		var conn net.Conn
		var err error
		if dt > 0 {
			conn, err = net.DialTimeout("tcp", rep.addr, dt)
		} else {
			conn, err = net.Dial("tcp", rep.addr)
		}
		if err == nil {
			return rep, conn, nil
		}
		rep.up.Store(false)
		rep.failures.Add(1)
		rt.metrics.RePlacements.Add(1)
	}
	return nil, nil, ErrNoReplica
}

// Serve accepts sessions from ln until the listener fails or the router
// closes, with the same transient-error backoff as Server.Serve.
func (rt *Router) Serve(ln net.Listener) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return errServerClosed
	}
	rt.lns[ln] = struct{}{}
	rt.mu.Unlock()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			rt.mu.Lock()
			closed := rt.closed
			rt.mu.Unlock()
			if closed {
				rt.forgetListener(ln)
				return nil
			}
			if isTransientAccept(err) {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				t := time.NewTimer(backoff)
				select {
				case <-t.C:
				case <-rt.done:
					t.Stop()
					rt.forgetListener(ln)
					return nil
				}
				continue
			}
			rt.forgetListener(ln)
			return err
		}
		backoff = 0
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			_ = rt.ServeConn(conn)
		}()
	}
}

func (rt *Router) forgetListener(ln net.Listener) {
	rt.mu.Lock()
	delete(rt.lns, ln)
	rt.mu.Unlock()
}

// ServeConn proxies one client session onto a replica, closing conn
// when the session ends. Transport-agnostic like Server.ServeConn.
func (rt *Router) ServeConn(conn net.Conn) error {
	defer conn.Close()
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return errServerClosed
	}
	rt.conns[conn] = struct{}{}
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		delete(rt.conns, conn)
		rt.mu.Unlock()
	}()

	cdc := &deadlineConn{conn: conn, idle: rt.opts.IdleTimeout, write: rt.opts.WriteTimeout}
	rep, rconn, err := rt.place(rt.sessionKey(conn))
	if err != nil {
		rt.metrics.NoReplica.Add(1)
		fw := newFrameWriter(cdc)
		_ = fw.write(frameError, []byte(err.Error()))
		_ = fw.flush()
		return err
	}
	defer rconn.Close()
	rep.placements.Add(1)
	rt.metrics.Placements.Add(1)
	rep.active.Add(1)
	defer rep.active.Add(-1)
	rt.metrics.SessionsProxied.Add(1)
	rt.metrics.SessionsActive.Add(1)
	defer rt.metrics.SessionsActive.Add(-1)

	// Replica side: write deadline only. See RouterOptions.IdleTimeout
	// for why the read side is unbounded here.
	rdc := &deadlineConn{conn: rconn, idle: 0, write: rt.opts.WriteTimeout}

	// Two relay directions with clean write ownership: this goroutine
	// owns all writes to the client, the upload goroutine owns all
	// writes to the replica.
	var clientDone atomic.Bool
	up := make(chan relayEnd, 1)
	go func() {
		end := rt.relay(rdc, bufio.NewReader(cdc), false)
		clientDone.Store(true)
		// Half-close toward the replica so results still in flight keep
		// draining while it learns the upload is over.
		if tc, ok := rconn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		} else {
			rconn.Close()
		}
		up <- end
	}()
	down := rt.relay(cdc, bufio.NewReader(rdc), true)

	if !clientDone.Load() && !down.write && !down.lastErrFrame {
		// The replica ended the session — EOF or a broken read — without
		// a terminal error frame and before the client finished: that is
		// a replica loss, not a protocol goodbye. Fail the client loudly
		// and take the replica out of rotation ahead of the next probe.
		rep.up.Store(false)
		rep.lost.Add(1)
		rt.metrics.ReplicasLost.Add(1)
		fw := newFrameWriter(cdc)
		_ = fw.write(frameError, []byte(fmt.Sprintf("serve: router: replica %s lost: %v", rep.addr, down.err)))
		_ = fw.flush()
	}
	// Unblock whichever relay is still parked in a read, then reap it.
	conn.Close()
	rconn.Close()
	<-up
	if down.err != nil && down.err != io.EOF {
		return down.err
	}
	return nil
}

// relayEnd reports how one relay direction terminated.
type relayEnd struct {
	err          error // terminal error; io.EOF is a clean close at a frame boundary
	write        bool  // the failure was on the write side (destination gone)
	lastErrFrame bool  // the last relayed frame was a frameError
}

// relay copies length-prefixed frames from src to dst until EOF or
// error: header, payload (bounded by maxFramePayload, copied through a
// fixed 32 KB buffer — the router's per-session memory is this buffer
// plus bufio, regardless of frame size), flush per frame so results
// keep their streaming latency. observe meters the replica→client
// direction into the proxy latency histogram.
func (rt *Router) relay(dst io.Writer, src *bufio.Reader, observe bool) relayEnd {
	bw := bufio.NewWriter(dst)
	buf := make([]byte, 32<<10)
	var hdr [frameHeaderSize]byte
	var lastErrFrame bool
	for {
		typ, n, err := readHeader(src)
		if err != nil {
			return relayEnd{err: err, lastErrFrame: lastErrFrame}
		}
		start := time.Now()
		hdr[0] = typ
		binary.LittleEndian.PutUint32(hdr[1:], uint32(n))
		if _, werr := bw.Write(hdr[:]); werr != nil {
			return relayEnd{err: werr, write: true, lastErrFrame: lastErrFrame}
		}
		for rem := n; rem > 0; {
			m := rem
			if m > len(buf) {
				m = len(buf)
			}
			if _, rerr := io.ReadFull(src, buf[:m]); rerr != nil {
				return relayEnd{err: rerr, lastErrFrame: lastErrFrame}
			}
			if _, werr := bw.Write(buf[:m]); werr != nil {
				return relayEnd{err: werr, write: true, lastErrFrame: lastErrFrame}
			}
			rem -= m
		}
		if werr := bw.Flush(); werr != nil {
			return relayEnd{err: werr, write: true, lastErrFrame: lastErrFrame}
		}
		lastErrFrame = typ == frameError
		rt.metrics.FramesRelayed.Add(1)
		if observe {
			rt.metrics.ProxyLatency.Observe(time.Since(start).Nanoseconds(), 1)
		}
	}
}

// ReplicaSwapStatus is one replica's outcome in a SwapAll fan-out.
type ReplicaSwapStatus struct {
	Addr        string `json:"addr"`
	OK          bool   `json:"ok"`
	RolledBack  bool   `json:"rolled_back"`
	Generation  int64  `json:"generation"`
	Fingerprint uint64 `json:"fingerprint"`
	Err         string `json:"err,omitempty"`
}

// SwapAll propagates a checkpoint hot-swap to every up replica with
// all-or-nothing semantics: prepare everywhere over per-replica admin
// connections (the staging is connection-scoped), then commit everywhere
// only if every prepare succeeded — otherwise abort whatever staged and
// report the rollback per replica. On success the path is recorded so
// replicas that rejoin later are resynced to it. The returned statuses
// are per-replica even when the call errors.
func (rt *Router) SwapAll(path string) ([]ReplicaSwapStatus, error) {
	rt.swapMu.Lock()
	defer rt.swapMu.Unlock()
	var ups []*replica
	for _, rep := range rt.reps {
		if rep.up.Load() {
			ups = append(ups, rep)
		}
	}
	if len(ups) == 0 {
		return nil, errors.New("serve: router: no replica up to swap")
	}
	statuses := make([]ReplicaSwapStatus, len(ups))
	clients := make([]*Client, len(ups))
	var wg sync.WaitGroup
	for i, rep := range ups {
		statuses[i].Addr = rep.addr
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			cl, err := Dial(rep.addr, ClientOptions{
				DialTimeout: rt.opts.DialTimeout,
				IdleTimeout: rt.opts.IdleTimeout,
			})
			if err != nil {
				statuses[i].Err = err.Error()
				return
			}
			clients[i] = cl
			st, err := cl.SwapPrepare(path)
			switch {
			case err != nil:
				statuses[i].Err = err.Error()
			case !st.OK:
				statuses[i].Err = st.Msg
			default:
				statuses[i].OK = true
				statuses[i].Fingerprint = st.Fingerprint
			}
		}(i, rep)
	}
	wg.Wait()
	allOK := true
	for _, st := range statuses {
		allOK = allOK && st.OK
	}
	for i := range ups {
		cl := clients[i]
		if cl == nil {
			continue
		}
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			defer cl.Close()
			if allOK {
				st, err := cl.SwapCommit()
				switch {
				case err != nil:
					statuses[i].OK, statuses[i].Err = false, err.Error()
				case !st.OK:
					statuses[i].OK, statuses[i].Err = false, st.Msg
				default:
					statuses[i].Generation = st.Generation
					statuses[i].Fingerprint = st.Fingerprint
				}
				return
			}
			if !statuses[i].OK {
				return // nothing staged to roll back
			}
			statuses[i].OK = false
			if st, err := cl.SwapAbort(); err == nil && st.OK {
				statuses[i].RolledBack = true
			} else if err != nil {
				statuses[i].Err = err.Error()
			} else {
				statuses[i].Err = st.Msg
			}
		}(i, cl)
	}
	wg.Wait()
	if !allOK {
		failed := 0
		for _, st := range statuses {
			if st.Err != "" && !st.RolledBack {
				failed++
			}
		}
		return statuses, fmt.Errorf("serve: router: swap rolled back: %d of %d replicas failed to prepare", failed, len(ups))
	}
	for _, st := range statuses {
		if !st.OK {
			return statuses, fmt.Errorf("serve: router: swap commit failed on %s: %s", st.Addr, st.Err)
		}
		if st.Fingerprint != statuses[0].Fingerprint {
			return statuses, fmt.Errorf("serve: router: fingerprint divergence: %s staged %x, %s staged %x",
				statuses[0].Addr, statuses[0].Fingerprint, st.Addr, st.Fingerprint)
		}
	}
	rt.lastCkpt = path
	return statuses, nil
}

// Close stops the health loops, closes listeners and live connections,
// and waits for relays to drain.
func (rt *Router) Close() error {
	rt.mu.Lock()
	first := !rt.closed
	rt.closed = true
	for ln := range rt.lns {
		ln.Close()
	}
	for conn := range rt.conns {
		conn.Close()
	}
	rt.mu.Unlock()
	if first {
		close(rt.done)
	}
	rt.healthWG.Wait()
	rt.wg.Wait()
	return nil
}
