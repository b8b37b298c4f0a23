package snn

import (
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestPredictBatchIntoReleasesOnPanic pins the deferred-release
// contract poolrelease enforces: a classification that panics mid-pass
// (here: samples disagreeing on frame size) must still park the
// acquired arena, or every such failure would leak one arena and a
// recovering caller would slowly drain the pool.
func TestPredictBatchIntoReleasesOnPanic(t *testing.T) {
	cfg := DefaultConfig(0.5, 4)
	net := DenseNet(cfg, 16, 8, 4, rng.New(1))
	r := rng.New(2)
	samples := [][]*tensor.Tensor{
		spikeFrames(r, cfg.Steps, []int{4, 4}),
		spikeFrames(r, cfg.Steps, []int{2, 4}), // wrong frame size: panics while stacking the batch
	}
	out := make([]int, len(samples))

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PredictBatchInto with mismatched frame sizes did not panic")
			}
		}()
		net.PredictBatchInto(samples, out)
	}()
	if got := len(net.trainFree); got != 1 {
		t.Fatalf("after a panicking batch, %d arenas parked on the free list, want 1 (deferred Release must run)", got)
	}

	// The parked arena must still serve correct predictions.
	good := [][]*tensor.Tensor{samples[0]}
	net.PredictBatchInto(good, out[:1])
	if want := forwardOne(net, samples[0], false).Argmax(); out[0] != want {
		t.Fatalf("prediction after recovered panic: %d, want %d", out[0], want)
	}
}

// TestPredictConcurrentClones runs the arena Predict path (deferred
// Release inside Network.Predict) from several goroutines, each on its
// own weight-sharing clone — the serving tier's concurrency model.
// Under -race this is the regression test for the acquire/defer
// conversion: clones share the trained weight tensors read-only while
// every goroutine churns its own arena free list.
func TestPredictConcurrentClones(t *testing.T) {
	cfg := DefaultConfig(0.5, 4)
	master := DenseNet(cfg, 16, 8, 4, rng.New(3))
	r := rng.New(4)
	const rounds = 20
	frames := make([][]*tensor.Tensor, rounds)
	want := make([]int, rounds)
	for i := range frames {
		frames[i] = spikeFrames(r, cfg.Steps, []int{4, 4})
		want[i] = master.Predict(frames[i])
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clone := master.CloneArchitecture()
			for i := range frames {
				if got := clone.Predict(frames[i]); got != want[i] {
					t.Errorf("clone predicted %d for sample %d, want %d", got, i, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
