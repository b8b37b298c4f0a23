package serve

import (
	"encoding/json"
	"expvar"
	"math"
	"net/http"
	"sync/atomic"
	"time"
)

// The window-latency histogram uses fixed quarter-octave buckets (four
// per power of two) from 1µs to ~16.7s, plus one overflow bucket. The
// geometry is the point: bucket resolution is a constant ~19% of the
// value everywhere, comfortably finer than the 2× latency budget the
// soak test enforces, while Observe stays a lock-free binary search
// plus one atomic add — safe to call from the serving path.
const (
	histMinNs   = int64(1000) // 1µs
	histBuckets = 96          // 24 octaves × 4
)

// histBounds[i] is bucket i's inclusive upper bound in nanoseconds.
var histBounds = func() [histBuckets]int64 {
	var b [histBuckets]int64
	f := float64(histMinNs)
	r := math.Pow(2, 0.25)
	for i := range b {
		b[i] = int64(f)
		f *= r
	}
	return b
}()

// LatencyHist is a fixed-bucket concurrent latency histogram. The zero
// value is ready to use; Observe and Snapshot are safe from any
// goroutine and allocation-free.
type LatencyHist struct {
	counts [histBuckets + 1]atomic.Int64
}

// Observe records n samples of ns nanoseconds each (a pipeline round
// reports once for all its windows; per-window latency within a round
// is indistinguishable anyway).
func (h *LatencyHist) Observe(ns int64, n int64) {
	lo, hi := 0, histBuckets
	for lo < hi {
		mid := (lo + hi) / 2
		if histBounds[mid] < ns {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(n)
}

// HistSnapshot is a point-in-time copy of a LatencyHist.
type HistSnapshot struct {
	Counts [histBuckets + 1]int64
}

// Snapshot copies the current counts.
func (h *LatencyHist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Sub returns the histogram delta since prev — the interval form the
// soak test compares phases with.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	var d HistSnapshot
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d
}

// Count is the total samples in the snapshot.
func (s HistSnapshot) Count() int64 {
	var t int64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Quantile returns the upper bound of the bucket containing the q'th
// quantile (0 < q <= 1), 0 for an empty snapshot. Overflow samples
// report twice the last bound.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	total := s.Count()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < histBuckets {
				return time.Duration(histBounds[i])
			}
			return time.Duration(2 * histBounds[histBuckets-1])
		}
	}
	return time.Duration(2 * histBounds[histBuckets-1])
}

// Metrics is the server's counter registry. Everything is a plain
// atomic — no locks, no allocation on update — so the serving path can
// bump counters freely and an expvar scrape reads a consistent-enough
// point-in-time view.
type Metrics struct {
	SessionsRefused atomic.Int64 // admission refusals (capacity or queue timeout)
	SessionsQueued  atomic.Int64 // sessions that waited in the admission queue
	QueueTimeouts   atomic.Int64 // queued sessions that timed out unadmitted
	SessionErrors   atomic.Int64 // sessions that ended with an error
	AcceptRetries   atomic.Int64 // transient Accept errors retried with backoff

	WindowsServed atomic.Int64 // windows classified across all sessions
	ResultsSent   atomic.Int64 // result frames actually delivered

	CreditStalls    atomic.Int64 // writer waits on an exhausted credit window
	ResultsBuffered atomic.Int64 // gauge: undelivered results across sessions

	Latency LatencyHist // per-round window classification latency

	// sops accumulates the energy model's estimated synaptic operations
	// across every classified batch, as math.Float64bits in an
	// atomic.Uint64 — the float analogue of the counters above, updated
	// by a CAS loop so the batch-classify path stays lock-free.
	sops atomic.Uint64
}

// AddSOPs accumulates estimated synaptic operations from one classified
// batch. Lock-free and allocation-free: it runs on every session's
// classify path.
func (m *Metrics) AddSOPs(v float64) {
	for {
		old := m.sops.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if m.sops.CompareAndSwap(old, next) {
			return
		}
	}
}

// SOPsEstimated reads the accumulated synaptic-operation estimate.
func (m *Metrics) SOPsEstimated() float64 { return math.Float64frombits(m.sops.Load()) }

// Metrics exposes the live counter registry (primarily for tests and
// embedders; HTTP scraping goes through MetricsHandler).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// ObserveRound implements stream.Observer for the server's sessions:
// every session pipeline's classification round lands in the shared
// histogram and the windows-served counter, once per window.
func (s *Server) ObserveRound(windows int, latencyNs int64) {
	s.metrics.WindowsServed.Add(int64(windows))
	s.metrics.Latency.Observe(latencyNs, int64(windows))
}

// MetricsSnapshot is the JSON document the metrics endpoint serves.
type MetricsSnapshot struct {
	SessionsActive  int64 `json:"sessions_active"`
	SessionsServed  int64 `json:"sessions_served"`
	SessionsRefused int64 `json:"sessions_refused"`
	SessionsQueued  int64 `json:"sessions_queued"`
	QueueTimeouts   int64 `json:"queue_timeouts"`
	SessionErrors   int64 `json:"session_errors"`
	AcceptRetries   int64 `json:"accept_retries"`

	WindowsServed int64   `json:"windows_served"`
	ResultsSent   int64   `json:"results_sent"`
	WindowsPerSec float64 `json:"windows_per_sec"`

	WindowLatencyP50Ms float64 `json:"window_latency_p50_ms"`
	WindowLatencyP99Ms float64 `json:"window_latency_p99_ms"`

	CreditStalls    int64 `json:"credit_stalls"`
	ResultsBuffered int64 `json:"results_buffered"`

	// Deprecated: always zero and left out of the JSON and Prometheus
	// bodies — the server has no cross-session scheduler. The repo
	// benchmark (bench/) is their only reader; they go once it stops
	// reading them.
	SchedTicks, SchedWindows, SchedDeferrals, SchedFailures int64 `json:"-"`

	SlotCap       int64 `json:"slot_cap"`
	SlotOccupancy int64 `json:"slot_occupancy"`
	SlotHighWater int64 `json:"slot_high_water"`
	SlotWaits     int64 `json:"slot_waits"`
	CloneCap      int64 `json:"clone_cap"`

	// Energy accounting (see approx.EnergyModel): total estimated
	// synaptic operations attributed across all classified windows and
	// the modelled energy they cost, plus whether the quantized INT8
	// precision tier is available to sessions (per-channel panels built
	// on the served master).
	SOPsEstimated    float64 `json:"sops_estimated"`
	EnergyEstimatedJ float64 `json:"energy_estimated_j"`
	Int8Supported    bool    `json:"int8_supported"`

	SwapGeneration int64   `json:"swap_generation"`
	CheckpointFP   uint64  `json:"checkpoint_fp"`
	UptimeSec      float64 `json:"uptime_sec"`
}

// MetricsSnapshot assembles the current counters, pool gauges and
// latency quantiles.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	m := &s.metrics
	hist := m.Latency.Snapshot()
	up := time.Since(s.start).Seconds()
	var wps float64
	if up > 0 {
		wps = float64(m.WindowsServed.Load()) / up
	}
	snap := MetricsSnapshot{
		SessionsActive:  s.active.Load(),
		SessionsServed:  s.served.Load(),
		SessionsRefused: m.SessionsRefused.Load(),
		SessionsQueued:  m.SessionsQueued.Load(),
		QueueTimeouts:   m.QueueTimeouts.Load(),
		SessionErrors:   m.SessionErrors.Load(),
		AcceptRetries:   m.AcceptRetries.Load(),

		WindowsServed: m.WindowsServed.Load(),
		ResultsSent:   m.ResultsSent.Load(),
		WindowsPerSec: wps,

		WindowLatencyP50Ms: float64(hist.Quantile(0.50)) / float64(time.Millisecond),
		WindowLatencyP99Ms: float64(hist.Quantile(0.99)) / float64(time.Millisecond),

		CreditStalls:    m.CreditStalls.Load(),
		ResultsBuffered: m.ResultsBuffered.Load(),

		SlotCap:       int64(s.slots.Size()),
		SlotOccupancy: s.slots.Occupancy(),
		SlotHighWater: s.slots.HighWater(),
		SlotWaits:     s.slots.Waits(),
		CloneCap:      int64(s.opts.PoolSize),

		SOPsEstimated: m.SOPsEstimated(),
		Int8Supported: s.int8OK,

		SwapGeneration: s.swaps.Load(),
		CheckpointFP:   s.ckptFP.Load(),
		UptimeSec:      up,
	}
	if em := s.energy.Load(); em != nil {
		snap.EnergyEstimatedJ = snap.SOPsEstimated * em.EnergyPerSOpJ
	}
	return snap
}

// MetricsHandler serves MetricsSnapshot — the handler cmd/axsnn-serve
// mounts on its -metrics listener, and what tests hit through httptest.
// JSON by default; Prometheus text exposition when the request asks for
// it (?format=prometheus, or a text/plain / OpenMetrics Accept header —
// what a Prometheus scraper sends). Registry-free so any number of
// servers (and test instances) can each have one.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wantsPromText(r) {
			w.Header().Set("Content-Type", promContentType)
			writeServerProm(w, s.MetricsSnapshot())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.MetricsSnapshot())
	})
}

// PublishExpvar registers the snapshot under name in the process-global
// expvar namespace. expvar panics on duplicate names, so this is for
// the binary's main (cmd/axsnn-serve), never for library or test code
// — those use MetricsHandler.
func (s *Server) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return s.MetricsSnapshot() }))
}
