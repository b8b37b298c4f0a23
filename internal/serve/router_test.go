package serve

import (
	"bytes"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// testReplica is one TCP backend in a router test fleet.
type testReplica struct {
	srv  *Server
	ln   net.Listener
	addr string
}

// startReplica serves a deep clone of master on a loopback listener.
// Skips the test when loopback TCP is unavailable (the router is
// transport-level; net.Pipe cannot stand in for redial and rejoin).
func startReplica(t *testing.T, master *snn.Network, o stream.Options, so ServerOptions) *testReplica {
	t.Helper()
	so.Pipeline = o
	srv, err := NewServer(master.DeepClone(), so)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp listen unavailable: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	return &testReplica{srv: srv, ln: ln, addr: ln.Addr().String()}
}

// relisten restarts a replica on the address it previously held — the
// rejoin path after a simulated crash.
func (r *testReplica) relisten(t *testing.T, master *snn.Network, o stream.Options, so ServerOptions) {
	t.Helper()
	so.Pipeline = o
	srv, err := NewServer(master.DeepClone(), so)
	if err != nil {
		t.Fatal(err)
	}
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-listen on %s: %v", r.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	r.srv, r.ln = srv, ln
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startRouter builds a router over the replicas, waits until every one
// is up, and serves it on its own loopback listener.
func startRouter(t *testing.T, reps []*testReplica, o RouterOptions) (*Router, string) {
	t.Helper()
	for _, r := range reps {
		o.Replicas = append(o.Replicas, r.addr)
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = 20 * time.Millisecond
	}
	rt, err := NewRouter(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	waitFor(t, "replicas up", 10*time.Second, func() bool { return rt.Healthy() == len(reps) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp listen unavailable: %v", err)
	}
	go func() { _ = rt.Serve(ln) }()
	return rt, ln.Addr().String()
}

// streamThrough runs one recording through addr and returns the
// results.
func streamThrough(t *testing.T, addr string, copts ClientOptions, data []byte) []stream.Result {
	t.Helper()
	cl, err := Dial(addr, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var got []stream.Result
	if _, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRouterMatchesDirect is the proxy-fidelity gate: sessions through
// the router produce results bit-identical to the same sessions against
// a replica directly.
func TestRouterMatchesDirect(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(4, 61)
	o := stream.Options{WindowMS: 45, Steps: 4, Batch: 2, ChunkEvents: 64}
	reps := []*testReplica{
		startReplica(t, master, o, ServerOptions{MaxSessions: 8, PoolSize: 2}),
		startReplica(t, master, o, ServerOptions{MaxSessions: 8, PoolSize: 2}),
	}
	rt, raddr := startRouter(t, reps, RouterOptions{})
	data := testRecording(t, 2, 400, 29)
	want := standalone(t, master, data, o)

	for _, tc := range []struct {
		name  string
		copts ClientOptions
	}{
		{"hello", ClientOptions{}},
		{"hello tiny window", ClientOptions{Config: SessionConfig{CreditWindow: 1}}},
	} {
		direct := streamThrough(t, reps[0].addr, tc.copts, data)
		routed := streamThrough(t, raddr, tc.copts, data)
		assertResults(t, tc.name+" direct", want, direct)
		assertResults(t, tc.name+" routed", want, routed)
	}

	// Placement spread: run enough sessions that rendezvous hashing with
	// per-session salt lands on both replicas (20 routed in all).
	for i := 0; i < 18; i++ {
		streamThrough(t, raddr, ClientOptions{}, data)
	}
	snap := rt.MetricsSnapshot()
	if snap.SessionsProxied < 20 || snap.FramesRelayed == 0 {
		t.Fatalf("router metrics implausible: %+v", snap)
	}
	for i, rep := range snap.Replicas {
		if rep.Placements == 0 {
			t.Fatalf("replica %d (%s) took no placements across 20 sessions", i, rep.Addr)
		}
	}

	// The metrics endpoint speaks both formats: JSON by default,
	// Prometheus text exposition when asked.
	h := rt.MetricsHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"sessions_proxied"`) {
		t.Fatalf("JSON snapshot missing sessions_proxied: %s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if ct := rec.Header().Get("Content-Type"); ct != promContentType {
		t.Fatalf("prometheus Content-Type = %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE axsnn_router_sessions_proxied_total counter",
		"axsnn_router_replicas_up 2",
		fmt.Sprintf("axsnn_router_replica_up{replica=%q} 1", reps[0].addr),
		"axsnn_router_proxy_p99_ms",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, text)
		}
	}

	// The server-side handler negotiates the same way.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	reps[0].srv.MetricsHandler().ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "# TYPE axsnn_serve_windows_served_total counter") {
		t.Fatalf("server prometheus exposition missing windows_served:\n%s", rec.Body.String())
	}
}

// TestRouterReplicaLossAndRejoin kills a replica mid-stream: the
// affected client fails fast with an error (never hangs), new sessions
// re-place onto the survivor, and a replica restarted on the same
// address rejoins and takes placements again.
func TestRouterReplicaLossAndRejoin(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(4, 63)
	o := stream.Options{WindowMS: 45, Steps: 4, Batch: 2, ChunkEvents: 64}
	so := ServerOptions{MaxSessions: 8, PoolSize: 2}
	reps := []*testReplica{
		startReplica(t, master, o, so),
		startReplica(t, master, o, so),
	}
	rt, raddr := startRouter(t, reps, RouterOptions{})
	data := testRecording(t, 3, 500, 37)
	want := standalone(t, master, data, o)

	// A session the replica cannot run ahead of: a one-result credit
	// window, and a consumer that parks after the first result until
	// the kill has landed — the session is pinned in flight, not racing
	// the killer on a sleep.
	cl, err := Dial(raddr, ClientOptions{Config: SessionConfig{CreditWindow: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	firstResult := make(chan struct{})
	release := make(chan struct{})
	var seen int
	streamErr := make(chan error, 1)
	go func() {
		_, err := cl.Stream(bytes.NewReader(data), func(stream.Result) error {
			seen++
			if seen == 1 {
				close(firstResult)
				<-release
			}
			return nil
		})
		streamErr <- err
	}()
	<-firstResult

	// Kill whichever replica holds the session — identified through the
	// router's per-replica active count, which tracks proxied sessions
	// only (the replica server's own count also includes transient
	// health-probe pings, which would finger the wrong replica).
	var killed *testReplica
	for _, rs := range rt.MetricsSnapshot().Replicas {
		if rs.ActiveSessions > 0 {
			for _, rep := range reps {
				if rep.addr == rs.Addr {
					killed = rep
				}
			}
		}
	}
	if killed == nil {
		t.Fatal("no replica reports the in-flight session")
	}
	killed.srv.Close()
	close(release)

	select {
	case err := <-streamErr:
		if err == nil {
			t.Fatal("stream over a killed replica reported success")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("stream over a killed replica hung instead of failing")
	}
	waitFor(t, "loss detected", 10*time.Second, func() bool { return rt.Healthy() == 1 })

	// New sessions re-place onto the survivor and still match the
	// reference.
	for i := 0; i < 4; i++ {
		assertResults(t, fmt.Sprintf("survivor session %d", i), want,
			streamThrough(t, raddr, ClientOptions{}, data))
	}

	// Restart the dead replica on its old address: the health loop must
	// bring it back and placements must reach it again.
	killed.relisten(t, master, o, so)
	waitFor(t, "replica rejoin", 10*time.Second, func() bool { return rt.Healthy() == 2 })
	before := func() int64 {
		for _, rep := range rt.MetricsSnapshot().Replicas {
			if rep.Addr == killed.addr {
				return rep.Placements
			}
		}
		return -1
	}()
	waitFor(t, "placements on the rejoined replica", 20*time.Second, func() bool {
		assertResults(t, "rejoin-era session", want, streamThrough(t, raddr, ClientOptions{}, data))
		for _, rep := range rt.MetricsSnapshot().Replicas {
			if rep.Addr == killed.addr {
				return rep.Placements > before
			}
		}
		return false
	})
}

// TestRouterNoReplica: with every replica down, a session is refused
// with a clean error frame instead of a hang or a bare close.
func TestRouterNoReplica(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	// An address nothing listens on: bind a port, then free it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp listen unavailable: %v", err)
	}
	dead := ln.Addr().String()
	ln.Close()

	rt, err := NewRouter(RouterOptions{Replicas: []string{dead}, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp listen unavailable: %v", err)
	}
	go func() { _ = rt.Serve(rln) }()

	cl, err := Dial(rln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err == nil || !strings.Contains(err.Error(), "no replica") {
		t.Fatalf("Ping against an empty fleet = %v, want no-replica refusal", err)
	}
	if rt.MetricsSnapshot().NoReplica == 0 {
		t.Fatal("NoReplica counter did not move")
	}
}

// TestRouterSwapAll pins the fan-out's all-or-nothing contract: one
// replica that cannot stage the checkpoint rolls the whole fleet back,
// and a clean fleet lands on the same generation and fingerprint
// everywhere — then serves the new weights through the router.
func TestRouterSwapAll(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	oldNet := testNet(4, 21)
	o := stream.Options{WindowMS: 40, Steps: 4, ChunkEvents: 16}
	data := testRecording(t, 3, 200, 31)
	wantOld := standalone(t, oldNet, data, o)
	newNet := trainedDisagreeing(t, oldNet, data, o, wantOld)
	wantNew := standalone(t, newNet, data, o)
	ckpt := filepath.Join(t.TempDir(), "model.gob")
	var buf bytes.Buffer
	if err := newNet.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Mixed fleet: one replica refuses the swap RPC entirely. The
	// prepared replica must be rolled back and keep the old weights.
	mixed := []*testReplica{
		startReplica(t, oldNet, o, ServerOptions{PoolSize: 1, AdminSwap: true}),
		startReplica(t, oldNet, o, ServerOptions{PoolSize: 1}),
	}
	rtMixed, mixedAddr := startRouter(t, mixed, RouterOptions{})
	statuses, err := rtMixed.SwapAll(ckpt)
	if err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("mixed-fleet SwapAll error = %v, want rollback", err)
	}
	for _, st := range statuses {
		switch st.Addr {
		case mixed[0].addr:
			if !st.RolledBack {
				t.Fatalf("prepared replica not rolled back: %+v", st)
			}
		case mixed[1].addr:
			if st.OK || !strings.Contains(st.Err, "AdminSwap") {
				t.Fatalf("locked replica status = %+v, want AdminSwap refusal", st)
			}
		}
	}
	for i, rep := range mixed {
		if g := rep.srv.Swaps(); g != 0 {
			t.Fatalf("replica %d committed generation %d during a rolled-back fan-out", i, g)
		}
	}
	assertResults(t, "after rollback", wantOld, streamThrough(t, mixedAddr, ClientOptions{}, data))

	// Clean fleet: the swap commits everywhere, same generation and
	// fingerprint, and routed sessions serve the new weights.
	fleet := []*testReplica{
		startReplica(t, oldNet, o, ServerOptions{PoolSize: 1, AdminSwap: true}),
		startReplica(t, oldNet, o, ServerOptions{PoolSize: 1, AdminSwap: true}),
		startReplica(t, oldNet, o, ServerOptions{PoolSize: 1, AdminSwap: true}),
	}
	rt, raddr := startRouter(t, fleet, RouterOptions{})
	statuses, err = rt.SwapAll(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != len(fleet) {
		t.Fatalf("%d statuses for %d replicas", len(statuses), len(fleet))
	}
	for _, st := range statuses {
		if !st.OK || st.Generation != 1 || st.Fingerprint != statuses[0].Fingerprint {
			t.Fatalf("fleet status %+v diverges from %+v", st, statuses[0])
		}
	}
	for i, rep := range fleet {
		if fp := rep.srv.CheckpointFP(); fp != statuses[0].Fingerprint {
			t.Fatalf("replica %d fingerprint %x, want %x", i, fp, statuses[0].Fingerprint)
		}
		if g := rep.srv.Swaps(); g != 1 {
			t.Fatalf("replica %d generation %d, want 1", i, g)
		}
	}
	assertResults(t, "after fleet swap", wantNew, streamThrough(t, raddr, ClientOptions{}, data))

	// A replica restarted after the fan-out — fresh process, old
	// weights — is resynced to the swapped checkpoint BEFORE it is
	// marked up, so it never serves stale weights.
	fleet[2].srv.Close()
	waitFor(t, "restarted replica down", 10*time.Second, func() bool { return rt.Healthy() == 2 })
	fleet[2].relisten(t, oldNet, o, ServerOptions{PoolSize: 1, AdminSwap: true})
	waitFor(t, "restarted replica rejoined", 10*time.Second, func() bool { return rt.Healthy() == 3 })
	if fp := fleet[2].srv.CheckpointFP(); fp != statuses[0].Fingerprint {
		t.Fatalf("rejoined replica fingerprint %x, want %x (resync must precede rejoin)", fp, statuses[0].Fingerprint)
	}
	if g := fleet[2].srv.Swaps(); g != 1 {
		t.Fatalf("rejoined replica generation %d, want 1", g)
	}
}
