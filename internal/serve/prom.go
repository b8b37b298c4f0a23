package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// promContentType is the Prometheus text exposition format version the
// writers below emit.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsPromText decides the exposition format for a metrics request.
// Explicit ?format=prometheus always wins; otherwise a text/plain or
// OpenMetrics Accept header (what a Prometheus scraper sends) selects
// text. Requests without either — curl, http.Get, the existing JSON
// consumers — keep the JSON snapshot.
func wantsPromText(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// promWriter accumulates exposition lines; errors latch so callers emit
// unconditionally and HTTP handlers ignore the (client-side) failure.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) metric(name, typ string, v float64) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# TYPE %s %s\n%s %g\n", name, typ, name, v)
}

// labeled emits one sample with a label set; the TYPE line is emitted
// only on the first sample of the family.
func (p *promWriter) labeled(name, typ string, first bool, labels string, v float64) {
	if p.err != nil {
		return
	}
	if first {
		if _, p.err = fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ); p.err != nil {
			return
		}
	}
	_, p.err = fmt.Fprintf(p.w, "%s{%s} %g\n", name, labels, v)
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// writeServerProm renders a MetricsSnapshot as Prometheus text — the
// same numbers the JSON snapshot carries, under the axsnn_serve_
// namespace.
func writeServerProm(w io.Writer, s MetricsSnapshot) {
	p := &promWriter{w: w}
	p.metric("axsnn_serve_sessions_active", "gauge", float64(s.SessionsActive))
	p.metric("axsnn_serve_sessions_served_total", "counter", float64(s.SessionsServed))
	p.metric("axsnn_serve_sessions_refused_total", "counter", float64(s.SessionsRefused))
	p.metric("axsnn_serve_sessions_queued_total", "counter", float64(s.SessionsQueued))
	p.metric("axsnn_serve_queue_timeouts_total", "counter", float64(s.QueueTimeouts))
	p.metric("axsnn_serve_session_errors_total", "counter", float64(s.SessionErrors))
	p.metric("axsnn_serve_accept_retries_total", "counter", float64(s.AcceptRetries))
	p.metric("axsnn_serve_windows_served_total", "counter", float64(s.WindowsServed))
	p.metric("axsnn_serve_results_sent_total", "counter", float64(s.ResultsSent))
	p.metric("axsnn_serve_windows_per_sec", "gauge", s.WindowsPerSec)
	p.metric("axsnn_serve_window_latency_p50_ms", "gauge", s.WindowLatencyP50Ms)
	p.metric("axsnn_serve_window_latency_p99_ms", "gauge", s.WindowLatencyP99Ms)
	p.metric("axsnn_serve_credit_stalls_total", "counter", float64(s.CreditStalls))
	p.metric("axsnn_serve_results_buffered", "gauge", float64(s.ResultsBuffered))
	p.metric("axsnn_serve_slot_cap", "gauge", float64(s.SlotCap))
	p.metric("axsnn_serve_slot_occupancy", "gauge", float64(s.SlotOccupancy))
	p.metric("axsnn_serve_slot_high_water", "gauge", float64(s.SlotHighWater))
	p.metric("axsnn_serve_slot_waits_total", "counter", float64(s.SlotWaits))
	p.metric("axsnn_serve_clone_cap", "gauge", float64(s.CloneCap))
	p.metric("axsnn_serve_sops_estimated_total", "counter", s.SOPsEstimated)
	p.metric("axsnn_serve_energy_estimated_joules_total", "counter", s.EnergyEstimatedJ)
	p.metric("axsnn_serve_int8_supported", "gauge", b2f(s.Int8Supported))
	p.metric("axsnn_serve_swap_generation", "gauge", float64(s.SwapGeneration))
	p.metric("axsnn_serve_checkpoint_fingerprint", "gauge", float64(s.CheckpointFP))
	p.metric("axsnn_serve_uptime_seconds", "gauge", s.UptimeSec)
}

// ReplicaSnapshot is one backend's state in a RouterSnapshot.
type ReplicaSnapshot struct {
	Addr           string `json:"addr"`
	Up             bool   `json:"up"`
	ActiveSessions int64  `json:"active_sessions"`
	Placements     int64  `json:"placements"`
	Failures       int64  `json:"failures"`
	Lost           int64  `json:"lost"`
}

// RouterSnapshot is the JSON document the router metrics endpoint
// serves.
type RouterSnapshot struct {
	SessionsProxied int64   `json:"sessions_proxied"`
	SessionsActive  int64   `json:"sessions_active"`
	Placements      int64   `json:"placements"`
	RePlacements    int64   `json:"re_placements"`
	NoReplica       int64   `json:"no_replica"`
	ReplicasLost    int64   `json:"replicas_lost"`
	FramesRelayed   int64   `json:"frames_relayed"`
	ProxyP50Ms      float64 `json:"proxy_p50_ms"`
	ProxyP99Ms      float64 `json:"proxy_p99_ms"`

	ReplicasUp int64             `json:"replicas_up"`
	Replicas   []ReplicaSnapshot `json:"replicas"`
	UptimeSec  float64           `json:"uptime_sec"`
}

// MetricsSnapshot assembles the router's counters and per-replica
// state.
func (rt *Router) MetricsSnapshot() RouterSnapshot {
	m := &rt.metrics
	hist := m.ProxyLatency.Snapshot()
	snap := RouterSnapshot{
		SessionsProxied: m.SessionsProxied.Load(),
		SessionsActive:  m.SessionsActive.Load(),
		Placements:      m.Placements.Load(),
		RePlacements:    m.RePlacements.Load(),
		NoReplica:       m.NoReplica.Load(),
		ReplicasLost:    m.ReplicasLost.Load(),
		FramesRelayed:   m.FramesRelayed.Load(),
		ProxyP50Ms:      float64(hist.Quantile(0.50)) / float64(time.Millisecond),
		ProxyP99Ms:      float64(hist.Quantile(0.99)) / float64(time.Millisecond),
		UptimeSec:       time.Since(rt.start).Seconds(),
	}
	for _, rep := range rt.reps {
		up := rep.up.Load()
		if up {
			snap.ReplicasUp++
		}
		snap.Replicas = append(snap.Replicas, ReplicaSnapshot{
			Addr:           rep.addr,
			Up:             up,
			ActiveSessions: rep.active.Load(),
			Placements:     rep.placements.Load(),
			Failures:       rep.failures.Load(),
			Lost:           rep.lost.Load(),
		})
	}
	return snap
}

// writeRouterProm renders a RouterSnapshot as Prometheus text under the
// axsnn_router_ namespace, with per-replica families labeled by
// address.
func writeRouterProm(w io.Writer, s RouterSnapshot) {
	p := &promWriter{w: w}
	p.metric("axsnn_router_sessions_proxied_total", "counter", float64(s.SessionsProxied))
	p.metric("axsnn_router_sessions_active", "gauge", float64(s.SessionsActive))
	p.metric("axsnn_router_placements_total", "counter", float64(s.Placements))
	p.metric("axsnn_router_re_placements_total", "counter", float64(s.RePlacements))
	p.metric("axsnn_router_no_replica_total", "counter", float64(s.NoReplica))
	p.metric("axsnn_router_replicas_lost_total", "counter", float64(s.ReplicasLost))
	p.metric("axsnn_router_frames_relayed_total", "counter", float64(s.FramesRelayed))
	p.metric("axsnn_router_proxy_p50_ms", "gauge", s.ProxyP50Ms)
	p.metric("axsnn_router_proxy_p99_ms", "gauge", s.ProxyP99Ms)
	p.metric("axsnn_router_replicas_up", "gauge", float64(s.ReplicasUp))
	p.metric("axsnn_router_uptime_seconds", "gauge", s.UptimeSec)
	for _, fam := range []struct {
		name, typ string
		value     func(ReplicaSnapshot) float64
	}{
		{"axsnn_router_replica_up", "gauge", func(r ReplicaSnapshot) float64 { return b2f(r.Up) }},
		{"axsnn_router_replica_active_sessions", "gauge", func(r ReplicaSnapshot) float64 { return float64(r.ActiveSessions) }},
		{"axsnn_router_replica_placements_total", "counter", func(r ReplicaSnapshot) float64 { return float64(r.Placements) }},
		{"axsnn_router_replica_failures_total", "counter", func(r ReplicaSnapshot) float64 { return float64(r.Failures) }},
		{"axsnn_router_replica_lost_total", "counter", func(r ReplicaSnapshot) float64 { return float64(r.Lost) }},
	} {
		for i, rep := range s.Replicas {
			p.labeled(fam.name, fam.typ, i == 0, fmt.Sprintf("replica=%q", rep.Addr), fam.value(rep))
		}
	}
}

// MetricsHandler serves RouterSnapshot with the same content
// negotiation as Server.MetricsHandler: JSON by default, Prometheus
// text on request.
func (rt *Router) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wantsPromText(r) {
			w.Header().Set("Content-Type", promContentType)
			writeRouterProm(w, rt.MetricsSnapshot())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rt.MetricsSnapshot())
	})
}
