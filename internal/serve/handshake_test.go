package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

func TestHelloFrameRoundTrip(t *testing.T) {
	cases := []SessionConfig{
		{Version: ProtoVersion, CreditWindow: 64},
		{Version: ProtoVersion, Tier: snn.TierINT8, CreditWindow: 1 << 20},
	}
	for _, in := range cases {
		out, err := decodeHello(appendHello(nil, in))
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip %+v, want %+v", out, in)
		}
	}
	if _, err := decodeHello(make([]byte, helloSize-1)); err == nil {
		t.Fatal("short hello accepted")
	}
	// Trailing bytes are the forward-compatibility seam: a hello with
	// extra fields decodes to the fields this build knows.
	padded := append(appendHello(nil, cases[0]), 0xde, 0xad)
	if out, err := decodeHello(padded); err != nil || out != cases[0] {
		t.Fatalf("padded hello = %+v, %v; want %+v accepted", out, err, cases[0])
	}
	// Version skew: every version but ProtoVersion is refused.
	for _, v := range []uint16{0, ProtoVersion - 1, ProtoVersion + 1} {
		p := appendHello(nil, cases[0])
		binary.LittleEndian.PutUint16(p[0:], v)
		if _, err := decodeHello(p); err == nil {
			t.Fatalf("hello version %d accepted", v)
		}
	}
	// Unknown tier ordinal.
	p := appendHello(nil, cases[0])
	p[3] = 0x7f
	if _, err := decodeHello(p); err == nil {
		t.Fatal("unknown tier accepted")
	}
	// Every session runs under credit flow: a zero window is refused.
	if _, err := decodeHello(appendHello(nil, SessionConfig{Version: ProtoVersion})); err == nil {
		t.Fatal("zero credit window accepted")
	}
}

func TestSwapResultRoundTrip(t *testing.T) {
	cases := []SwapStatus{
		{OK: true, Generation: 7, Fingerprint: 0xdeadbeefcafef00d},
		{OK: false, Msg: "decode failed: unexpected EOF"},
	}
	for _, in := range cases {
		out, err := decodeSwapResult(appendSwapResult(nil, in))
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip %+v, want %+v", out, in)
		}
	}
	if _, err := decodeSwapResult(make([]byte, swapResultSize-1)); err == nil {
		t.Fatal("short swap result accepted")
	}
}

// TestOptionsValidation pins the API redesign's error contract:
// configurations the protocol cannot express are reported, not silently
// clamped into something else.
func TestOptionsValidation(t *testing.T) {
	clientCases := []struct {
		name string
		cfg  SessionConfig
		ok   bool
	}{
		{"zero defaults", SessionConfig{}, true},
		{"window 1", SessionConfig{CreditWindow: 1}, true},
		{"explicit version", SessionConfig{Version: ProtoVersion}, true},
		{"int8", SessionConfig{Tier: snn.TierINT8}, true},
		{"negative window", SessionConfig{CreditWindow: -1}, false},
		{"window above limit", SessionConfig{CreditWindow: maxCreditWindow + 1}, false},
		{"older version", SessionConfig{Version: ProtoVersion - 1}, false},
		{"future version", SessionConfig{Version: ProtoVersion + 1}, false},
		{"negative version", SessionConfig{Version: -1}, false},
		{"unknown tier", SessionConfig{Tier: snn.PrecisionTier(99)}, false},
	}
	for _, tc := range clientCases {
		err := ClientOptions{Config: tc.cfg}.Validate()
		if tc.ok && err != nil {
			t.Errorf("client %s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("client %s: invalid config accepted", tc.name)
		}
	}

	serverCases := []struct {
		name string
		o    ServerOptions
		ok   bool
	}{
		{"zero defaults", ServerOptions{}, true},
		{"negative sessions", ServerOptions{MaxSessions: -1}, false},
		{"negative pool", ServerOptions{PoolSize: -2}, false},
		{"negative result window", ServerOptions{ResultWindow: -1}, false},
		{"negative queue timeout", ServerOptions{QueueTimeout: -1}, false},
	}
	for _, tc := range serverCases {
		tc.o.Pipeline = stream.Options{WindowMS: 50, Steps: 3}
		_, err := NewServer(testNet(3, 1), tc.o)
		if tc.ok && err != nil {
			t.Errorf("server %s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("server %s: invalid options accepted", tc.name)
		}
	}

	// A poisoned client reports the validation error on first use
	// instead of writing a frame the server would refuse.
	cs, ss := net.Pipe()
	defer cs.Close()
	defer ss.Close()
	cl := NewClientOptions(cs, ClientOptions{Config: SessionConfig{CreditWindow: -5}})
	if _, err := cl.Stream(bytes.NewReader(nil), nil); err == nil ||
		!strings.Contains(err.Error(), "credit window") {
		t.Fatalf("poisoned client Stream error = %v, want credit window validation error", err)
	}
	if err := cl.Ping(); err == nil {
		t.Fatal("poisoned client Ping succeeded")
	}
}

// TestServeHelloMatchesStandalone is the handshake's equivalence gate:
// a session negotiated through the versioned hello produces results
// bit-identical to a standalone pipeline at the same tier, across the
// config surface the hello expresses.
func TestServeHelloMatchesStandalone(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(4, 61)
	o := stream.Options{WindowMS: 45, Steps: 4, Batch: 2, ChunkEvents: 64}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, MaxSessions: 4, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !srv.SupportsTier(snn.TierINT8) {
		t.Fatal("server over a weighted net must support the INT8 tier")
	}
	data := testRecording(t, 1, 400, 23)
	wantFP := standalone(t, master, data, o)
	oI8 := o
	oI8.Tier = snn.TierINT8
	wantI8 := standalone(t, master, data, oI8)

	variants := []struct {
		name string
		cfg  SessionConfig
		want []stream.Result
	}{
		{"default", SessionConfig{}, wantFP},
		{"int8", SessionConfig{Tier: snn.TierINT8}, wantI8},
		{"tiny window", SessionConfig{CreditWindow: 1}, wantFP},
		{"int8 tiny window", SessionConfig{Tier: snn.TierINT8, CreditWindow: 1}, wantI8},
	}
	for _, v := range variants {
		cl, done := startSessionOptions(srv, ClientOptions{Config: v.cfg})
		var got []stream.Result
		n, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if n != len(v.want) {
			t.Fatalf("%s: done frame reports %d windows, want %d", v.name, n, len(v.want))
		}
		assertResults(t, v.name, v.want, got)
		if _, accepted := cl.Negotiated(); !accepted {
			t.Fatalf("%s: no accept echo", v.name)
		}
		cl.Close()
		<-done
	}
}

// TestServeHelloAcceptEcho pins the negotiation semantics: the accept
// frame reports the server's effective settings, not a parrot of the
// request.
func TestServeHelloAcceptEcho(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	o := stream.Options{WindowMS: 50, Steps: 3}
	master := testNet(3, 5)
	srv, err := NewServer(master, ServerOptions{Pipeline: o, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl, done := startSessionOptions(srv, ClientOptions{})
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	got, ok := cl.Negotiated()
	if !ok {
		t.Fatal("no accept after Ping")
	}
	want := SessionConfig{Version: ProtoVersion, CreditWindow: DefaultCreditWindow}
	if got != want {
		t.Fatalf("negotiated %+v, want %+v", got, want)
	}
	cl.Close()
	<-done

	// Wire compatibility: a client built before every session got its
	// own pipeline sets flags bit 0 (private batching) in its hello. The
	// flags byte is reserved now, so the hello is accepted, the session
	// classifies exactly as a standalone pipeline does, and the echo
	// carries the flags byte as 0.
	fw, br, cs, done2 := rawSession(t, srv)
	defer cs.Close()
	p := appendHello(nil, SessionConfig{Version: ProtoVersion, CreditWindow: 1 << 16})
	p[2] = 0x01
	if err := fw.write(frameHello, p); err != nil {
		t.Fatal(err)
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	echo := expectFrame(t, br, "flagged hello", frameAccept)
	if len(echo) != helloSize || echo[2] != 0 {
		t.Fatalf("accept echo % x: want %d bytes with a zero flags byte", echo, helloSize)
	}
	data := testRecording(t, 1, 200, 29)
	assertResults(t, "flagged hello session", standalone(t, master, data, o), rawStream(t, fw, br, data))
	cs.Close()
	<-done2
}

// rawSession opens a ServeConn over a pipe and hands back raw frame I/O
// for protocol-level tests that a well-behaved Client cannot express.
func rawSession(t *testing.T, srv *Server) (*frameWriter, *bufio.Reader, net.Conn, chan error) {
	t.Helper()
	cs, ss := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(ss) }()
	return newFrameWriter(cs), bufio.NewReader(cs), cs, done
}

// rawStream sends one recording over a raw session whose credit window
// covers every result and collects the results through frameDone.
func rawStream(t *testing.T, fw *frameWriter, br *bufio.Reader, data []byte) []stream.Result {
	t.Helper()
	if err := fw.write(frameData, data); err != nil {
		t.Fatal(err)
	}
	if err := fw.write(frameEnd, nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	var got []stream.Result
	for {
		typ, n, err := readHeader(br)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			t.Fatal(err)
		}
		if typ == frameDone {
			return got
		}
		if typ != frameResult {
			t.Fatalf("frame 0x%02x %q, want result or done", typ, payload)
		}
		r, err := decodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
}

// expectFrame reads one frame and asserts its type, returning the
// payload.
func expectFrame(t *testing.T, br *bufio.Reader, ctx string, want byte) []byte {
	t.Helper()
	typ, n, err := readHeader(br)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if typ != want {
		t.Fatalf("%s: frame 0x%02x %q, want 0x%02x", ctx, typ, payload, want)
	}
	return payload
}

// TestServeHelloVersionSkew drives raw hello frames at the server: the
// versions this build does not speak — including version 1, the
// protocol before hello and credit flow were mandatory — and a zero
// credit window are refused with a frameError naming the cause, and a
// newer minor client — this version plus trailing fields — is accepted
// and fully functional.
func TestServeHelloVersionSkew(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(3, 71)
	o := stream.Options{WindowMS: 50, Steps: 3}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}

	type refusal struct {
		name, want string
		p          []byte
	}
	var refusals []refusal
	for _, v := range []uint16{0, 1, ProtoVersion + 1} {
		p := appendHello(nil, SessionConfig{Version: ProtoVersion, CreditWindow: DefaultCreditWindow})
		binary.LittleEndian.PutUint16(p[0:], v)
		name := fmt.Sprintf("version %d", v)
		refusals = append(refusals, refusal{name, name, p})
	}
	// Every session runs under credit flow: a hello granting no credits
	// is refused rather than stalling the first result until the reap.
	refusals = append(refusals, refusal{"zero window", "credit window", appendHello(nil, SessionConfig{Version: ProtoVersion})})
	for _, tc := range refusals {
		fw, br, cs, done := rawSession(t, srv)
		if err := fw.write(frameHello, tc.p); err != nil {
			t.Fatal(err)
		}
		if err := fw.flush(); err != nil {
			t.Fatal(err)
		}
		msg := expectFrame(t, br, tc.name, frameError)
		if !strings.Contains(string(msg), tc.want) {
			t.Fatalf("%s: refusal %q does not mention %q", tc.name, msg, tc.want)
		}
		cs.Close()
		if err := <-done; err == nil {
			t.Fatalf("%s: ServeConn reported no error", tc.name)
		}
	}

	// Newer-client forward compatibility: this version with trailing
	// bytes past the fields it defines is accepted, and the session
	// works end to end. The window covers every result, so the raw
	// client never has to top it up.
	fw, br, cs, done := rawSession(t, srv)
	defer cs.Close()
	p := appendHello(nil, SessionConfig{Version: ProtoVersion, CreditWindow: 1 << 16})
	p = append(p, 0xaa, 0xbb, 0xcc) // a hypothetical minor extension
	if err := fw.write(frameHello, p); err != nil {
		t.Fatal(err)
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, br, "padded hello", frameAccept)

	data := testRecording(t, 2, 120, 72)
	assertResults(t, "padded hello session", standalone(t, master, data, o), rawStream(t, fw, br, data))
	cs.Close()
	<-done
}

// TestServeHelloOrdering pins the handshake's place in the protocol:
// the session opens with exactly one hello. Any other first frame —
// including the retired 0x04 mode frame of protocol version 1 — is
// refused with one frameError, before its payload is read.
func TestServeHelloOrdering(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	srv, err := NewServer(testNet(3, 81), ServerOptions{
		Pipeline: stream.Options{WindowMS: 50, Steps: 3}, PoolSize: 1, AdminSwap: true})
	if err != nil {
		t.Fatal(err)
	}
	hello := appendHello(nil, SessionConfig{Version: ProtoVersion, CreditWindow: DefaultCreditWindow})

	cases := []struct {
		name  string
		typ   byte
		p     []byte
		want  string
		reply byte // a frame answered before the error, 0 for none
	}{
		{"duplicate", frameHello, hello, "duplicate", frameAccept},
		{"data before hello", frameData, []byte{0x01}, "hello", 0},
		{"credit before hello", frameCredit, []byte{8, 0, 0, 0}, "hello", 0},
		{"swap before hello", frameSwap, []byte{swapCommit}, "hello", 0},
		{"raw 0x04 frame", 0x04, []byte{0x01}, "0x04", 0},
	}
	for _, tc := range cases {
		fw, br, cs, done := rawSession(t, srv)
		if tc.reply != 0 {
			if err := fw.write(frameHello, hello); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if err := fw.write(tc.typ, tc.p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := fw.flush(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.reply != 0 {
			expectFrame(t, br, tc.name, tc.reply)
		}
		msg := expectFrame(t, br, tc.name, frameError)
		if !strings.Contains(string(msg), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, msg, tc.want)
		}
		if _, _, err := readHeader(br); err != io.EOF {
			t.Fatalf("%s: after the error frame: %v, want the connection closed", tc.name, err)
		}
		cs.Close()
		if err := <-done; err == nil {
			t.Fatalf("%s: ServeConn reported no error", tc.name)
		}
	}
}

// TestServeHelloInt8Refused: a server that cannot serve the INT8 tier
// refuses the hello outright instead of silently downgrading the
// session to FP32.
func TestServeHelloInt8Refused(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	srv, err := NewServer(testNet(3, 83), ServerOptions{
		Pipeline: stream.Options{WindowMS: 50, Steps: 3}, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.int8OK = false // simulate a master the quantizer cannot panel

	cl, done := startSessionOptions(srv, ClientOptions{Config: SessionConfig{Tier: snn.TierINT8}})
	defer cl.Close()
	if err := cl.Ping(); err == nil || !strings.Contains(err.Error(), "int8") {
		t.Fatalf("Ping error = %v, want int8 refusal", err)
	}
	cl.Close()
	<-done
}

// TestServeSwapRPC drives the two-phase checkpoint swap over one admin
// connection: prepare stages without serving, commit makes it live with
// a stable fingerprint, abort discards, and the RPC is refused entirely
// unless the server opts in.
func TestServeSwapRPC(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	oldNet := testNet(4, 21)
	o := stream.Options{WindowMS: 40, Steps: 4, ChunkEvents: 16}
	data := testRecording(t, 3, 200, 31)
	wantOld := standalone(t, oldNet, data, o)
	newNet := trainedDisagreeing(t, oldNet, data, o, wantOld)
	wantNew := standalone(t, newNet, data, o)
	ckpt := filepath.Join(t.TempDir(), "model.gob")
	f, err := os.Create(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := newNet.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Off by default: the RPC names server-side files.
	locked, err := NewServer(oldNet, ServerOptions{Pipeline: o, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl0, done0 := startSessionOptions(locked, ClientOptions{})
	if _, err := cl0.SwapPrepare(ckpt); err == nil || !strings.Contains(err.Error(), "AdminSwap") {
		t.Fatalf("swap on a locked server = %v, want AdminSwap refusal", err)
	}
	cl0.Close()
	<-done0

	srv, err := NewServer(oldNet.DeepClone(), ServerOptions{Pipeline: o, PoolSize: 1, AdminSwap: true})
	if err != nil {
		t.Fatal(err)
	}
	serveRec := func(ctx string, want []stream.Result) {
		t.Helper()
		scl, sdone := startSessionOptions(srv, ClientOptions{})
		var got []stream.Result
		if _, err := scl.Stream(bytes.NewReader(data), func(r stream.Result) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		assertResults(t, ctx, want, got)
		scl.Close()
		<-sdone
	}

	cl, done := startSessionOptions(srv, ClientOptions{})
	defer cl.Close()

	// Commit without a staged checkpoint is answered in-band.
	if st, err := cl.SwapCommit(); err != nil || st.OK {
		t.Fatalf("bare commit = %+v, %v; want in-band refusal", st, err)
	}

	st, err := cl.SwapPrepare(ckpt)
	if err != nil || !st.OK {
		t.Fatalf("prepare = %+v, %v", st, err)
	}
	if st.Fingerprint == 0 {
		t.Fatal("prepare reported a zero fingerprint")
	}
	serveRec("staged but not committed", wantOld)

	// Abort discards the staging; the model is untouched.
	if ab, err := cl.SwapAbort(); err != nil || !ab.OK {
		t.Fatalf("abort = %+v, %v", ab, err)
	}
	if ci, err := cl.SwapCommit(); err != nil || ci.OK {
		t.Fatalf("commit after abort = %+v, %v; want refusal", ci, err)
	}
	serveRec("after abort", wantOld)

	// Prepare again and commit for real.
	st2, err := cl.SwapPrepare(ckpt)
	if err != nil || !st2.OK {
		t.Fatalf("re-prepare = %+v, %v", st2, err)
	}
	if st2.Fingerprint != st.Fingerprint {
		t.Fatalf("same file fingerprints diverge: %x vs %x", st2.Fingerprint, st.Fingerprint)
	}
	ci, err := cl.SwapCommit()
	if err != nil || !ci.OK {
		t.Fatalf("commit = %+v, %v", ci, err)
	}
	if ci.Generation != 1 {
		t.Fatalf("commit generation = %d, want 1", ci.Generation)
	}
	if ci.Fingerprint != st2.Fingerprint || srv.CheckpointFP() != ci.Fingerprint {
		t.Fatalf("fingerprints disagree: commit %x, prepare %x, server %x",
			ci.Fingerprint, st2.Fingerprint, srv.CheckpointFP())
	}
	serveRec("after commit", wantNew)

	// A prepare that fails to decode is reported in-band; the session
	// and the served model both survive.
	junk := filepath.Join(t.TempDir(), "junk.gob")
	if err := os.WriteFile(junk, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.SwapPrepare(junk); err != nil || st.OK {
		t.Fatalf("junk prepare = %+v, %v; want in-band failure", st, err)
	}
	serveRec("after failed prepare", wantNew)

	cl.Close()
	<-done
}
