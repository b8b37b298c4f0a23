package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/tensor"
)

func TestLatencyHistObserveQuantile(t *testing.T) {
	var h LatencyHist
	// 90 samples at ~1ms, 10 at ~100ms: p50 lands in the 1ms bucket's
	// neighborhood, p99 in the 100ms one. Quantile reports the bucket
	// upper bound, so allow one quarter-octave (~19%) of geometry slop.
	h.Observe(int64(time.Millisecond), 90)
	h.Observe(int64(100*time.Millisecond), 10)
	s := h.Snapshot()
	if got := s.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	checkQ := func(q float64, want time.Duration) {
		t.Helper()
		got := s.Quantile(q)
		if got < want || float64(got) > float64(want)*1.2 {
			t.Fatalf("Quantile(%.2f) = %v, want within [%v, %v]", q, got, want, time.Duration(float64(want)*1.2))
		}
	}
	checkQ(0.50, time.Millisecond)
	checkQ(0.90, time.Millisecond)
	checkQ(0.99, 100*time.Millisecond)
}

func TestLatencyHistEdges(t *testing.T) {
	var h LatencyHist
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", got)
	}
	// Below the first bound and past the last both land somewhere
	// finite: the floor bucket and the overflow bucket.
	h.Observe(1, 1)
	if got := h.Snapshot().Quantile(1.0); got != time.Duration(histMinNs) {
		t.Fatalf("sub-minimum sample reports %v, want the %v floor", got, time.Duration(histMinNs))
	}
	h.Observe(int64(time.Hour), 1)
	if got := h.Snapshot().Quantile(1.0); got != time.Duration(2*histBounds[histBuckets-1]) {
		t.Fatalf("overflow sample reports %v, want %v", got, time.Duration(2*histBounds[histBuckets-1]))
	}
}

func TestLatencyHistSub(t *testing.T) {
	var h LatencyHist
	h.Observe(int64(time.Millisecond), 5)
	before := h.Snapshot()
	h.Observe(int64(time.Millisecond), 3)
	delta := h.Snapshot().Sub(before)
	if got := delta.Count(); got != 3 {
		t.Fatalf("interval count = %d, want 3", got)
	}
}

// TestServeMetricsEndpoint is the metrics smoke: after serving real
// traffic, the HTTP handler must report the session, window, credit
// and pool gauges consistently with the load that just ran.
func TestServeMetricsEndpoint(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(4, 61)
	o := stream.Options{WindowMS: 45, Steps: 4, Batch: 2, ChunkEvents: 64}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, MaxSessions: 2, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := testRecording(t, 1, 300, 29)
	want := standalone(t, master, data, o)
	cl, done := startSession(srv)
	defer cl.Close()
	if _, err := cl.Stream(bytes.NewReader(data), nil); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	<-done

	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()
	get := func(url, wantCT string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != wantCT {
			t.Fatalf("%s: Content-Type = %q, want %q", url, ct, wantCT)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		// Nothing of the retired cross-session scheduler is exported.
		for _, gone := range []string{"sched", "batch_fill"} {
			if strings.Contains(string(body), gone) {
				t.Fatalf("%s: body mentions %q:\n%s", url, gone, body)
			}
		}
		return body
	}
	body := get(ts.URL, "application/json")
	get(ts.URL+"?format=prometheus", promContentType)
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics endpoint served undecodable JSON: %v", err)
	}
	if snap.SessionsServed != 1 || snap.SessionsActive != 0 {
		t.Fatalf("served=%d active=%d, want 1/0", snap.SessionsServed, snap.SessionsActive)
	}
	if snap.WindowsServed != int64(len(want)) || snap.ResultsSent != int64(len(want)) {
		t.Fatalf("windows=%d results=%d, want %d/%d", snap.WindowsServed, snap.ResultsSent, len(want), len(want))
	}
	if snap.SlotCap != 1 || snap.CloneCap != 1 {
		t.Fatalf("slot_cap=%d clone_cap=%d, want 1/1", snap.SlotCap, snap.CloneCap)
	}
	// The session's batches borrowed frame slots from the server's pool
	// (PoolSize 1, so one at a time) and handed every one back.
	if snap.SlotHighWater != 1 || snap.SlotOccupancy != 0 {
		t.Fatalf("slot high_water=%d occupancy=%d, want 1/0", snap.SlotHighWater, snap.SlotOccupancy)
	}
	if snap.WindowLatencyP99Ms <= 0 || snap.WindowsPerSec <= 0 || snap.UptimeSec <= 0 {
		t.Fatalf("p99=%v windows/s=%v uptime=%v, want all positive",
			snap.WindowLatencyP99Ms, snap.WindowsPerSec, snap.UptimeSec)
	}
	if snap.ResultsBuffered != 0 {
		t.Fatalf("results_buffered = %d after drain, want 0", snap.ResultsBuffered)
	}
}
