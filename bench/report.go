package main

import (
	"fmt"
	"io"
	"math"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's contract with BENCHMARK.json, which TestMetricsMatchManifest
// holds them to.
type metricDef struct {
	name, unit string
}

// An item is the unit of work a workload completes: a classified window
// on the serve workloads, an adversarial sample crafted and evaluated on
// both nets on offline-pgd.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "items/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// snnLayers and snnLIFs name the weighted and spiking layers by position,
// so one name covers both presets: dvsnet has conv1, conv2, fc1, fc2 and
// lif1-lif3; mnistnet adds conv3 and lif4. A layer a preset lacks reads 0.
var (
	snnLayers = []string{"conv1", "conv2", "conv3", "fc1", "fc2"}
	snnLIFs   = []string{"lif1", "lif2", "lif3", "lif4"}
)

// perLayer lists the per-layer metrics. A metric whose layer is not on
// the workload's path (AQF on closed-*, serve on offline-pgd, the attack
// on the serve workloads) reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.gen_lag_p50_ms", "ms"},
		{"bench.gen_lag_p99_ms", "ms"},
		{"bench.trace_overhead_frac", "fraction"},
		{"serve.round_p50_ms", "ms"},
		{"serve.round_p99_ms", "ms"},
		{"serve.credit_stalls", "count"},
		{"serve.session_errors", "count"},
		{"serve.sessions_refused", "count"},
		{"stream.sched_fill_avg", "windows/tick"},
		{"stream.sched_ticks_per_s", "ticks/s"},
		{"stream.sched_deferrals_per_tick", "windows/tick"},
		{"stream.sched_failures", "count"},
		{"dvs.decode_ns_per_event", "ns"},
		{"dvs.window_ns_per_window", "ns"},
		{"dvs.voxelize_ns_per_window", "ns"},
		{"dvs.events_per_window", "count"},
		{"defense.aqf_ns_per_event", "ns"},
		{"defense.aqf_kept_frac", "fraction"},
		{"snn.predict_b4_ns_per_sample", "ns"},
		{"snn.predict_b16_ns_per_sample", "ns"},
	}
	for _, l := range snnLayers {
		defs = append(defs,
			metricDef{"snn." + l + ".in_density", "fraction"},
			metricDef{"snn." + l + ".sops_per_sample", "count"},
			metricDef{"snn." + l + ".macs_per_sample", "count"},
			metricDef{"snn." + l + ".fwd_ns_per_sample", "ns"})
	}
	for _, l := range snnLIFs {
		defs = append(defs, metricDef{"snn." + l + ".firing_rate", "fraction"})
	}
	return append(defs,
		metricDef{"approx.sops_per_sample", "count"},
		metricDef{"approx.batch_sops_ns_per_batch", "ns"},
		metricDef{"approx.pruned_frac", "fraction"},
		metricDef{"attack.pgd_ns_per_sample", "ns"},
		metricDef{"snn.eval_acc_ns_per_sample", "ns"},
		metricDef{"snn.eval_ax_ns_per_sample", "ns"},
		metricDef{"runtime.allocs_per_item", "count"},
		metricDef{"runtime.alloc_bytes_per_item", "B"},
		metricDef{"runtime.gc_cycles_per_s", "1/s"},
		metricDef{"runtime.gc_pause_p99_ms", "ms"},
		metricDef{"runtime.sched_latency_p99_ms", "ms"},
	)
}()

// report is one workload run: its checked-output counts, every metric it
// measured (missing per-layer metrics print as 0) and the named outputs
// that are not metrics.
type report struct {
	attempted, failed int64
	values            map[string]float64
	outputs           []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

func (r *report) output(format string, args ...any) {
	r.outputs = append(r.outputs, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.attempted > 0 && r.failed == 0 }

// print writes the human-readable report: every metric by name, value
// and unit, then the outputs.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "attempted %d failed %d failed_frac %.6g\n", r.attempted, r.failed, r.failedFrac())
	for _, d := range endToEnd {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "layer  %-34s %14.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	for _, o := range r.outputs {
		fmt.Fprintf(w, "output %s\n", o)
	}
}

func (r *report) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the end-to-end metrics, or the per-layer ones when
// traced.
func (r *report) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return res
}
