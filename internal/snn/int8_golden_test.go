package snn

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Golden INT8-tier logits. testdata/int8_logits.golden holds the
// inference pass's logits, as float32 bit patterns, for three nets at
// the INT8 tier: DVSNet lite on spike frames, the same net pruned with
// a random mask, and MNISTNet lite on a Direct-coded analog image. Each
// net has a lone sample and a batch of five. The file pins the tier's
// numerics to a fixed reference, so a kernel rewrite that claims bit
// identity is checked against the code it replaced, not only against
// itself or against FP32 within a tolerance.
//
// Regenerate with: go test ./internal/snn -run TestInt8Golden -update-int8-golden
// (only when the INT8 numerics change on purpose; say so in the same
// commit.)

var updateInt8Golden = flag.Bool("update-int8-golden", false, "rewrite the INT8-tier logit golden file")

const int8GoldenFile = "int8_logits.golden"

// int8GoldenCase is one INT8-tier net with the five samples its batch
// case runs; the lone case runs the first of them.
type int8GoldenCase struct {
	name    string
	net     *Network
	samples [][]*tensor.Tensor
}

func int8GoldenCases(t *testing.T) []int8GoldenCase {
	t.Helper()
	tiered := func(net *Network) *Network {
		if err := net.BuildInt8Panels(); err != nil {
			t.Fatal(err)
		}
		if err := net.SetTier(TierINT8); err != nil {
			t.Fatal(err)
		}
		return net
	}
	// A low threshold keeps every DVS layer spiking, so conv2 and fc1
	// see the AvgPool levels and the readout sees activity.
	dvs := func() *Network {
		return DVSNet(DefaultConfig(0.25, 6), 32, 32, 11, true, rng.New(3), nil)
	}
	pruned := dvs()
	randomMasks(pruned, rng.New(61))
	const batch = 5
	spikes := make([][]*tensor.Tensor, batch)
	analog := make([][]*tensor.Tensor, batch)
	r := rng.New(71)
	for b := 0; b < batch; b++ {
		spikes[b] = spikeFrames(r, 6, []int{2, 32, 32})
		analog[b] = analogFrames(r, 6, []int{1, 16, 16})
	}
	return []int8GoldenCase{
		{"dvs", tiered(dvs()), spikes},
		{"dvs-pruned", tiered(pruned), spikes},
		{"mnist-direct", tiered(MNISTNet(DefaultConfig(0.5, 6), 1, 16, 16, true, rng.New(2))), analog},
	}
}

// int8GoldenLogits runs every case's lone sample and batch through the
// inference pass, keyed "<net>/lone" and "<net>/batch5".
func int8GoldenLogits(cases []int8GoldenCase) map[string][]float32 {
	out := map[string][]float32{}
	for _, c := range cases {
		out[c.name+"/lone"] = c.net.ForwardSamples([][]*tensor.Tensor{c.samples[0]}).Data
		out[c.name+"/batch5"] = c.net.ForwardSamples(c.samples).Data
	}
	return out
}

func writeInt8Golden(t *testing.T, logits map[string][]float32, cases []int8GoldenCase) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# INT8-tier inference logits as float32 bits; see int8_golden_test.go\n")
	for _, c := range cases {
		for _, key := range []string{c.name + "/lone", c.name + "/batch5"} {
			sb.WriteString(key)
			for _, v := range logits[key] {
				fmt.Fprintf(&sb, " %08x", math.Float32bits(v))
			}
			sb.WriteByte('\n')
		}
	}
	if err := os.WriteFile(goldenPath(int8GoldenFile), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readInt8Golden(t *testing.T) map[string][]uint32 {
	t.Helper()
	f, err := os.Open(goldenPath(int8GoldenFile))
	if err != nil {
		t.Fatalf("missing INT8 golden (run with -update-int8-golden): %v", err)
	}
	defer f.Close()
	out := map[string][]uint32{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		bits := make([]uint32, len(fields)-1)
		for i, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 16, 32)
			if err != nil {
				t.Fatalf("golden %s: %v", fields[0], err)
			}
			bits[i] = uint32(v)
		}
		out[fields[0]] = bits
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInt8Golden pins the INT8 tier's logits to the golden file under
// math.Float32bits, for a lone sample and a batch of five, at 1, 2
// and 4 workers.
func TestInt8Golden(t *testing.T) {
	defer tensor.SetWorkers(0)
	cases := int8GoldenCases(t)
	if *updateInt8Golden {
		tensor.SetWorkers(1)
		writeInt8Golden(t, int8GoldenLogits(cases), cases)
	}
	want := readInt8Golden(t)
	if len(want) != 2*len(cases) {
		t.Fatalf("golden holds %d entries, want %d", len(want), 2*len(cases))
	}
	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		for key, got := range int8GoldenLogits(cases) {
			w, ok := want[key]
			if !ok || len(w) != len(got) {
				t.Fatalf("workers=%d %s: golden has %d logits, run has %d", workers, key, len(w), len(got))
			}
			for i, v := range got {
				if math.Float32bits(v) != w[i] {
					t.Fatalf("workers=%d %s logit %d = %v (%08x), golden %v (%08x)",
						workers, key, i, v, math.Float32bits(v), math.Float32frombits(w[i]), w[i])
				}
			}
		}
	}
}
