package serve

import (
	"encoding/binary"
	"fmt"

	"repro/internal/snn"
)

// ProtoVersion is the session-handshake protocol version this build
// speaks. A hello declaring any other version is refused with a
// frameError naming it; a hello at this version is accepted, with any
// payload bytes past the fields this version defines ignored — the
// forward-compatibility seam for newer minor clients.
const ProtoVersion = 2

// SessionConfig is a session's negotiated configuration — the payload
// of the versioned hello frame every session opens with, and of the
// accept frame the server echoes back.
//
// Field conventions on the way in (ClientOptions.Config): Version 0
// means ProtoVersion and CreditWindow 0 means DefaultCreditWindow. In a
// negotiated config — the accept echo, Client.Negotiated — every field
// is resolved.
type SessionConfig struct {
	// Version is the handshake protocol version. 0 resolves to
	// ProtoVersion; the server refuses versions it does not speak.
	Version int
	// Tier is the session's precision tier (snn.TierFP32 or
	// snn.TierINT8). A server that cannot serve the requested tier
	// refuses the hello instead of silently downgrading.
	Tier snn.PrecisionTier
	// CreditWindow is how many undelivered results the client
	// authorizes the server to stream ahead of consumption, 1 to
	// maxCreditWindow. The hello carries it as the initial grant;
	// top-ups ride frameCredit.
	CreditWindow int
}

// withDefaults resolves the zero-value conventions into wire form:
// Version 0 becomes ProtoVersion and CreditWindow 0 becomes
// DefaultCreditWindow.
func (c SessionConfig) withDefaults() SessionConfig {
	if c.Version == 0 {
		c.Version = ProtoVersion
	}
	if c.CreditWindow == 0 {
		c.CreditWindow = DefaultCreditWindow
	}
	return c
}

// maxCreditWindow bounds a sane credit window; the wire field is a
// uint32 and a window past this is a configuration error, not a
// request the server should honor.
const maxCreditWindow = 1 << 30

// Validate rejects configurations the protocol cannot express instead
// of silently clamping them.
func (c SessionConfig) Validate() error {
	if c.Version != 0 && c.Version != ProtoVersion {
		return fmt.Errorf("serve: session config version %d (this build speaks %d)", c.Version, ProtoVersion)
	}
	if c.CreditWindow < 0 || c.CreditWindow > maxCreditWindow {
		return fmt.Errorf("serve: credit window %d is invalid (1..%d, or 0 for the default %d)", c.CreditWindow, maxCreditWindow, DefaultCreditWindow)
	}
	if c.Tier != snn.TierFP32 && c.Tier != snn.TierINT8 {
		return fmt.Errorf("serve: unknown precision tier %v", c.Tier)
	}
	return nil
}

// The hello/accept payload:
//
//	[2 bytes LE version][1 byte flags][1 byte tier][4 bytes LE credit window]
//
// The flags byte is reserved: sent as 0 and ignored on receipt, so a
// client that still sets bit 0 (the retired private-batching request)
// is served like any other. tier is the snn.PrecisionTier ordinal. The
// credit window is 1..maxCreditWindow; 0 is refused, since every
// session runs under credit flow. Payload bytes past helloSize are
// ignored when the declared version is one this build speaks — a newer
// client may append fields this build does not know about.
const helloSize = 2 + 1 + 1 + 4

// appendHello encodes a resolved SessionConfig as a hello/accept
// payload after b.
func appendHello(b []byte, c SessionConfig) []byte {
	var p [helloSize]byte
	binary.LittleEndian.PutUint16(p[0:], uint16(c.Version))
	p[3] = byte(c.Tier)
	binary.LittleEndian.PutUint32(p[4:], uint32(c.CreditWindow))
	return append(b, p[:]...)
}

// decodeHello is appendHello's inverse, enforcing the version-skew
// rules: every version but ProtoVersion is refused, trailing bytes
// beyond the defined fields are tolerated.
func decodeHello(p []byte) (SessionConfig, error) {
	if len(p) < helloSize {
		return SessionConfig{}, fmt.Errorf("serve: hello frame of %d bytes, want at least %d", len(p), helloSize)
	}
	v := int(binary.LittleEndian.Uint16(p[0:]))
	if v != ProtoVersion {
		return SessionConfig{}, fmt.Errorf("serve: hello declares protocol version %d; this server speaks %d", v, ProtoVersion)
	}
	c := SessionConfig{
		Version:      v,
		Tier:         snn.PrecisionTier(p[3]),
		CreditWindow: int(binary.LittleEndian.Uint32(p[4:])),
	}
	if c.Tier != snn.TierFP32 && c.Tier != snn.TierINT8 {
		return SessionConfig{}, fmt.Errorf("serve: hello requests unknown precision tier %d", p[3])
	}
	if c.CreditWindow == 0 || c.CreditWindow > maxCreditWindow {
		return SessionConfig{}, fmt.Errorf("serve: hello requests a %d credit window; the window must be 1..%d", c.CreditWindow, maxCreditWindow)
	}
	return c, nil
}

// Swap RPC phases (the first byte of a frameSwap payload). The
// two-phase shape exists for the router: prepare loads and validates
// the checkpoint on every replica without touching the served model,
// and only when every replica has prepared does commit make it live —
// all-or-nothing, with abort as the rollback.
const (
	swapPrepare = 1 // payload: phase byte + checkpoint path
	swapCommit  = 2 // payload: phase byte only
	swapAbort   = 3 // payload: phase byte only
)

// SwapStatus is one replica's answer to a swap RPC (frameSwapResult).
type SwapStatus struct {
	// OK reports whether the phase succeeded. A failed prepare is
	// reported in-band (OK false, Msg set) rather than ending the
	// admin session, so the coordinator can still abort its peers.
	OK bool
	// Generation is the server's swap generation after the phase
	// (meaningful on commit and abort).
	Generation int64
	// Fingerprint identifies the checkpoint bytes: FNV-1a over the
	// serialized form. Replicas that prepared the same file report the
	// same fingerprint — the router's same-generation assertion.
	Fingerprint uint64
	// Msg carries the failure detail when OK is false.
	Msg string
}

// swapResultSize is the fixed prefix of a frameSwapResult payload:
// ok byte, generation, fingerprint; the message fills the rest.
const swapResultSize = 1 + 8 + 8

// appendSwapResult encodes a SwapStatus as a frameSwapResult payload.
func appendSwapResult(b []byte, st SwapStatus) []byte {
	var p [swapResultSize]byte
	if st.OK {
		p[0] = 1
	}
	binary.LittleEndian.PutUint64(p[1:], uint64(st.Generation))
	binary.LittleEndian.PutUint64(p[9:], st.Fingerprint)
	return append(append(b, p[:]...), st.Msg...)
}

// decodeSwapResult is appendSwapResult's inverse.
func decodeSwapResult(p []byte) (SwapStatus, error) {
	if len(p) < swapResultSize {
		return SwapStatus{}, fmt.Errorf("serve: swap result frame of %d bytes, want at least %d", len(p), swapResultSize)
	}
	return SwapStatus{
		OK:          p[0] != 0,
		Generation:  int64(binary.LittleEndian.Uint64(p[1:])),
		Fingerprint: binary.LittleEndian.Uint64(p[9:]),
		Msg:         string(p[swapResultSize:]),
	}, nil
}
