package snn

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Golden FP32 numerics. testdata/fp32.golden pins, as float32 bit
// patterns, what the FP32 kernels compute on two nets: MNISTNet lite on
// Direct-coded analog images, and DVSNet lite pruned with a random mask
// on spike frames. For each net it holds
//
//   - the inference pass's logits for a lone sample and a batch of five;
//   - the InputGradSumScratch sum over the batch of five, the gradient
//     every attack crafts from;
//   - every parameter after three TrainStepScratch + Adam steps on that
//     batch.
//
// The arena-versus-allocating suites run the same GEMM, col2im and
// scatter kernels on both sides, and the tensor reference tests compare
// within a tolerance, so neither can catch a kernel rewrite that
// changes FP32 numerics. This file can: it was generated by the code
// before such a rewrite. Logits are stored bit for bit; the larger
// tensors as their length and a 64-bit FNV-1a digest of their bits,
// which keeps the file small while every bit still enters the
// comparison.
//
// Regenerate with: go test ./internal/snn -run TestFP32Golden -update-fp32-golden
// (only when the FP32 numerics change on purpose; say so in the same
// commit.)

var updateFP32Golden = flag.Bool("update-fp32-golden", false, "rewrite the FP32 numerics golden file")

const fp32GoldenFile = "fp32.golden"

// fp32GoldenTrainSteps is the number of training steps before the
// parameters are read.
const fp32GoldenTrainSteps = 3

// fp32GoldenCase builds one net fresh, so training on it leaves the
// next worker count's run untouched, and holds the five samples its
// batch runs; the lone case runs the first of them.
type fp32GoldenCase struct {
	name    string
	build   func() *Network
	samples [][]*tensor.Tensor
}

func fp32GoldenCases() []fp32GoldenCase {
	const batch = 5
	spikes := make([][]*tensor.Tensor, batch)
	analog := make([][]*tensor.Tensor, batch)
	r := rng.New(73)
	for b := 0; b < batch; b++ {
		spikes[b] = spikeFrames(r, 6, []int{2, 32, 32})
		analog[b] = analogFrames(r, 6, []int{1, 16, 16})
	}
	return []fp32GoldenCase{
		{"mnist-direct", func() *Network {
			return MNISTNet(DefaultConfig(0.5, 6), 1, 16, 16, true, rng.New(2))
		}, analog},
		// A low threshold keeps every DVS layer spiking, so conv2 and
		// fc1 see the AvgPool levels and the readout sees activity.
		{"dvs-pruned", func() *Network {
			net := DVSNet(DefaultConfig(0.25, 6), 32, 32, 11, true, rng.New(3), nil)
			randomMasks(net, rng.New(61))
			return net
		}, spikes},
	}
}

// fp32GoldenValues runs every case and returns its values keyed
// "<net>/lone", "<net>/batch5", "<net>/igrad" and "<net>/param<i>",
// in a fixed order.
func fp32GoldenValues(cases []fp32GoldenCase) (keys []string, vals map[string][]float32) {
	vals = map[string][]float32{}
	add := func(key string, v []float32) {
		keys = append(keys, key)
		vals[key] = v
	}
	for _, c := range cases {
		net := c.build()
		add(c.name+"/lone", net.ForwardSamples([][]*tensor.Tensor{c.samples[0]}).Data)
		add(c.name+"/batch5", net.ForwardSamples(c.samples).Data)
		labels := make([]int, len(c.samples))
		for b := range labels {
			labels[b] = b
		}
		ts := net.AcquireTrainScratch()
		add(c.name+"/igrad", net.InputGradSumScratch(c.samples, labels, ts).Clone().Data)
		opt := NewAdam(2e-3)
		for step := 0; step < fp32GoldenTrainSteps; step++ {
			ts.ZeroGrads()
			net.TrainStepScratch(c.samples, labels, ts)
			opt.Step(ts.Params(), ts.Grads(), 1/float32(len(c.samples)))
		}
		net.ReleaseTrain(ts)
		for i, p := range net.Params() {
			add(fmt.Sprintf("%s/param%d", c.name, i), p.Data)
		}
	}
	return keys, vals
}

// fp32GoldenLogitKey reports whether key holds logits, which the file
// stores bit for bit rather than as a digest.
func fp32GoldenLogitKey(key string) bool {
	return strings.HasSuffix(key, "/lone") || strings.HasSuffix(key, "/batch5")
}

// fp32Digest is the 64-bit FNV-1a hash of v's float32 bit patterns.
func fp32Digest(v []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range v {
		bits := math.Float32bits(x)
		b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// fp32GoldenLine renders one entry: "key bits..." for logits, and
// "key len digest" otherwise.
func fp32GoldenLine(key string, v []float32) string {
	var sb strings.Builder
	sb.WriteString(key)
	if fp32GoldenLogitKey(key) {
		for _, x := range v {
			fmt.Fprintf(&sb, " %08x", math.Float32bits(x))
		}
		return sb.String()
	}
	fmt.Fprintf(&sb, " %d %016x", len(v), fp32Digest(v))
	return sb.String()
}

func writeFP32Golden(t *testing.T, keys []string, vals map[string][]float32) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# FP32 logits as float32 bits, other tensors as length and FNV-1a digest of their bits; see fp32_golden_test.go\n")
	for _, key := range keys {
		sb.WriteString(fp32GoldenLine(key, vals[key]))
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(goldenPath(fp32GoldenFile), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readFP32Golden returns the file's lines keyed by their first field.
func readFP32Golden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath(fp32GoldenFile))
	if err != nil {
		t.Fatalf("missing FP32 golden (run with -update-fp32-golden): %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		out[fields[0]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFP32Golden pins the FP32 inference logits, the attacks' input
// gradient and three steps of training to the golden file under
// math.Float32bits, at 1, 2 and 4 workers.
func TestFP32Golden(t *testing.T) {
	defer tensor.SetWorkers(0)
	cases := fp32GoldenCases()
	if *updateFP32Golden {
		tensor.SetWorkers(1)
		keys, vals := fp32GoldenValues(cases)
		writeFP32Golden(t, keys, vals)
	}
	want := readFP32Golden(t)
	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		keys, vals := fp32GoldenValues(cases)
		if len(want) != len(keys) {
			t.Fatalf("golden holds %d entries, run has %d", len(want), len(keys))
		}
		for _, key := range keys {
			if !slices.ContainsFunc(vals[key], func(v float32) bool { return v != 0 }) {
				t.Fatalf("%s is all zeros, so it pins no kernel", key)
			}
			got := fp32GoldenLine(key, vals[key])
			w, ok := want[key]
			if !ok {
				t.Fatalf("workers=%d: golden has no %s", workers, key)
			}
			if got == w {
				continue
			}
			if fp32GoldenLogitKey(key) {
				wf := strings.Fields(w)[1:]
				for i, v := range vals[key] {
					if i >= len(wf) {
						break
					}
					bits, err := strconv.ParseUint(wf[i], 16, 32)
					if err != nil {
						t.Fatalf("golden %s: %v", key, err)
					}
					if math.Float32bits(v) != uint32(bits) {
						t.Fatalf("workers=%d %s logit %d = %v (%08x), golden %v (%08x)",
							workers, key, i, v, math.Float32bits(v), math.Float32frombits(uint32(bits)), bits)
					}
				}
			}
			t.Fatalf("workers=%d %s differs from the golden:\n run:    %.120s\n golden: %.120s", workers, key, got, w)
		}
	}
}
