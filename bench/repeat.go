package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifestPath is BENCHMARK.json, read from the repository root the
// benchmark runs in.
const manifestPath = "BENCHMARK.json"

// manifest is the part of BENCHMARK.json the benchmark reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("parsing %s: %w", path, err)
	}
	return m, nil
}

// spread summarizes one metric's values over repeated runs the way the
// acceptance check does: quartiles as Python's
// statistics.quantiles(values, n=4) gives them, and spreads as shares of
// the median.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// IQR is (q3-q1)/median; Range is (max-min)/median.
	IQR   float64 `json:"iqr_frac"`
	Range float64 `json:"range_frac"`
}

func spreadOf(values []float64) spread {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return spread{}
	}
	sp := spread{Min: s[0], Max: s[n-1], Q1: s[0], Median: s[0], Q3: s[0]}
	if n >= 2 {
		q := exclusiveQuartiles(s)
		sp.Q1, sp.Median, sp.Q3 = q[0], q[1], q[2]
	}
	if sp.Median != 0 {
		sp.IQR = (sp.Q3 - sp.Q1) / sp.Median
		sp.Range = (sp.Max - sp.Min) / sp.Median
	}
	return sp
}

// exclusiveQuartiles is statistics.quantiles(sorted, n=4), whose default
// method is 'exclusive'; sorted needs at least two values.
func exclusiveQuartiles(sorted []float64) [3]float64 {
	ld := len(sorted)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return out
}

// repeatRun is one child run of -repeat.
type repeatRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

// runRepeat runs every named workload n times in fresh child processes,
// alternating workloads and advancing the seed each round, then prints
// each metric's median, quartiles and spreads per workload, flagging any
// end-to-end metric whose max-min spread exceeds its BENCHMARK.json
// bound, or (setup_s aside) whose quartile spread exceeds a third of it,
// the steadiness the bounds were set to. The last line is the whole
// record as JSON.
func runRepeat(cfg config, names []string, n int, stdout io.Writer) int {
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -repeat needs %s in the working directory: %v\n", manifestPath, err)
		return 2
	}
	bounds := map[string]float64{}
	for _, m := range man.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	status := 0
	var runs []repeatRun
	for r := 0; r < n; r++ {
		for _, w := range names {
			seed := cfg.seed + uint64(r)
			res, err := runChild(cfg, w, seed, io.Discard)
			if err != nil || !res.Correct {
				fmt.Fprintf(stdout, "# run %d %s seed=%d failed: %v\n", r+1, w, seed, err)
				status = 1
				continue
			}
			runs = append(runs, repeatRun{Workload: w, Seed: seed, result: res})
			fmt.Fprintf(stdout, "# run %d %s seed=%d attempted=%d\n", r+1, w, seed, res.Attempted)
		}
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	summary := map[string]map[string]spread{}
	fmt.Fprintf(stdout, "%-12s %-34s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "iqr", "range", "bound")
	for _, w := range names {
		summary[w] = map[string]spread{}
		for _, d := range defs {
			var vals []float64
			for _, run := range runs {
				if run.Workload == w {
					vals = append(vals, run.Metrics[d.name].Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			sp := spreadOf(vals)
			summary[w][d.name] = sp
			flag := ""
			if b, ok := bounds[d.name]; ok && !cfg.trace {
				if sp.Range > b {
					flag += "  FLAG: max-min spread exceeds the bound"
				}
				if d.name != "setup_s" && sp.IQR > b/3 {
					flag += "  FLAG: quartile spread exceeds a third of the bound"
				}
			}
			fmt.Fprintf(stdout, "%-12s %-34s %12.6g %12.6g %12.6g %8.4f %8.4f %6.3g%s\n",
				w, d.name, sp.Median, sp.Q1, sp.Q3, sp.IQR, sp.Range, bounds[d.name], flag)
		}
	}
	line, err := json.Marshal(struct {
		Env     envInfo                      `json:"env"`
		Seconds float64                      `json:"seconds"`
		Trace   bool                         `json:"trace"`
		Runs    []repeatRun                  `json:"runs"`
		Summary map[string]map[string]spread `json:"summary"`
	}{currentEnv(), cfg.seconds, cfg.trace, runs, summary})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encoding repeat record: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return status
}
