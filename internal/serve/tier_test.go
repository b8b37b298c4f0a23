package serve

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// streamAll runs one recording through cl collecting every result.
func streamAll(t testing.TB, cl *Client, data []byte) []stream.Result {
	t.Helper()
	var got []stream.Result
	if _, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// assertSOPs checks every window carries a positive, finite SOP
// estimate and that the done frame's total matches their sum.
func assertSOPs(t testing.TB, ctx string, cl *Client, got []stream.Result) {
	t.Helper()
	sum := 0.0
	for i, r := range got {
		if !(r.SOPs > 0) || math.IsInf(r.SOPs, 0) {
			t.Fatalf("%s: result %d SOPs = %v, want positive and finite", ctx, i, r.SOPs)
		}
		sum += r.SOPs
	}
	if ls := cl.LastSOPs(); math.Abs(ls-sum) > 1e-6*math.Max(1, sum) {
		t.Fatalf("%s: done-frame SOPs total %v, want sum of results %v", ctx, ls, sum)
	}
}

// TestServeInt8TierEndToEnd pins the quantized serving tier: an INT8
// session's results are bit-identical to a standalone INT8 pipeline,
// FP32 sessions stay bit-identical to the FP32 reference while sharing
// the server's clone pool, every result frame carries a positive SOP estimate whose sum
// matches the done frame, and the metrics snapshot accounts the energy.
func TestServeInt8TierEndToEnd(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(5, 17)
	o := stream.Options{WindowMS: 60, Steps: 5, Batch: 2, ChunkEvents: 64}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !srv.SupportsTier(snn.TierINT8) {
		t.Fatal("server over a weighted net must support the INT8 tier")
	}
	data := testRecording(t, 2, 250, 11)
	wantFP := standalone(t, master, data, o)
	oI8 := o
	oI8.Tier = snn.TierINT8
	wantI8 := standalone(t, master, data, oI8)
	if len(wantI8) != len(wantFP) {
		t.Fatalf("tier references disagree on window count: %d vs %d", len(wantI8), len(wantFP))
	}

	run := func(ctx string, copts ClientOptions, want []stream.Result) {
		cl, done := startSessionOptions(srv, copts)
		defer cl.Close()
		// Two recordings back to back: the tier is latched at the first
		// and must hold for the session's lifetime.
		for rec := 0; rec < 2; rec++ {
			got := streamAll(t, cl, data)
			assertResults(t, fmt.Sprintf("%s rec %d", ctx, rec), want, got)
			assertSOPs(t, ctx, cl, got)
		}
		cl.Close()
		<-done
	}
	run("fp32", ClientOptions{}, wantFP)
	run("int8", ClientOptions{Config: SessionConfig{Tier: snn.TierINT8}}, wantI8)

	// Mixed tiers concurrently over the one clone pool: the pool re-pins
	// each clone's tier on acquire, so every session must stay on its
	// own reference whichever clone its batches land on.
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			copts, want := ClientOptions{}, wantFP
			if i%2 == 1 {
				copts, want = ClientOptions{Config: SessionConfig{Tier: snn.TierINT8}}, wantI8
			}
			cl, done := startSessionOptions(srv, copts)
			defer cl.Close()
			var got []stream.Result
			if _, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
				got = append(got, r)
				return nil
			}); err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("session %d: %d results, want %d", i, len(got), len(want))
				return
			}
			for k := range want {
				if !sameResult(got[k], want[k]) {
					errs <- fmt.Errorf("session %d: result %d = %+v, want %+v", i, k, got[k], want[k])
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

	snap := srv.MetricsSnapshot()
	if !snap.Int8Supported {
		t.Fatal("snapshot must advertise the INT8 tier")
	}
	if !(snap.SOPsEstimated > 0) {
		t.Fatalf("sops_estimated = %v after traffic, want > 0", snap.SOPsEstimated)
	}
	if want := snap.SOPsEstimated * srv.energy.Load().EnergyPerSOpJ; snap.EnergyEstimatedJ != want {
		t.Fatalf("energy_estimated_j = %v, want %v", snap.EnergyEstimatedJ, want)
	}
}

// TestServeInt8HotSwapRebuildsPanels pins the LoadCheckpoint contract
// for the quantized tier: the swap rebuilds the int8 panels on the new
// weights, so an INT8 session classifying after the swap matches a
// standalone INT8 run of the new model — the tier never silently
// detaches from the served weights.
func TestServeInt8HotSwapRebuildsPanels(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	oldNet := testNet(4, 21)
	o := stream.Options{WindowMS: 40, Steps: 4, ChunkEvents: 16}
	data := testRecording(t, 3, 200, 31)
	wantOldFP := standalone(t, oldNet, data, o)

	srv, err := NewServer(oldNet, ServerOptions{Pipeline: o, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	newNet := trainedDisagreeing(t, oldNet, data, o, wantOldFP)
	if err := newNet.BuildInt8Panels(); err != nil {
		t.Fatal(err)
	}
	oI8 := o
	oI8.Tier = snn.TierINT8
	wantOldI8 := standalone(t, oldNet, data, oI8)
	wantNewI8 := standalone(t, newNet, data, oI8)
	var ckpt bytes.Buffer
	if err := newNet.Save(&ckpt); err != nil {
		t.Fatal(err)
	}

	run := func(ctx string, want []stream.Result) {
		cl, done := startSessionOptions(srv, ClientOptions{Config: SessionConfig{Tier: snn.TierINT8}})
		defer cl.Close()
		assertResults(t, ctx, want, streamAll(t, cl, data))
		cl.Close()
		<-done
	}
	run("int8 before swap", wantOldI8)
	if err := srv.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	run("int8 after swap", wantNewI8)
}
