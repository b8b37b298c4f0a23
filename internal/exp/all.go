package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// JSON renders the result as indented JSON (text artifact, metrics and
// notes; CSV payloads are included verbatim). Non-finite metric values
// (e.g. the infinite energy savings of a fully pruned network) are
// clamped to ±1e15, since JSON has no Inf.
func (r Result) JSON() ([]byte, error) {
	clean := r
	clean.Metrics = make(map[string]float64, len(r.Metrics))
	for k, v := range r.Metrics {
		switch {
		case math.IsInf(v, 1) || v > 1e15:
			v = 1e15
		case math.IsInf(v, -1) || v < -1e15:
			v = -1e15
		case math.IsNaN(v):
			v = 0
		}
		clean.Metrics[k] = v
	}
	return json.MarshalIndent(clean, "", "  ")
}

// Runner is one experiment entry point.
type Runner func(Options) Result

// Registry maps experiment IDs (paper figure/table numbers) to runners.
var Registry = map[string]Runner{
	"fig1":   Fig1,
	"fig2":   Fig2,
	"fig3":   Fig3,
	"fig4":   Fig4,
	"fig5":   Fig5,
	"fig6":   Fig6,
	"fig7a":  Fig7a,
	"fig7b":  Fig7b,
	"table1": Table1,
	"table2": Table2,
	"energy": Energy,

	// Extensions beyond the paper's artifacts: ablations, hardware
	// mapping, streaming evaluation and precision tiers.
	"ablation-encoding": AblationEncoding,
	"ablation-aqf":      AblationAQF,
	"ablation-filters":  AblationFilters,
	"ablation-uap":      AblationUAP,
	"hw-mapping":        HWMapping,
	"stream-eval":       StreamEval,
	"precision-tiers":   PrecisionTiers,
}

// IDs returns the registry keys in stable order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string, o Options) (Result, error) {
	r, ok := Registry[id]
	if !ok {
		return Result{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	return r(o), nil
}

// RunAll executes every experiment in a stable order.
func RunAll(o Options) []Result {
	var out []Result
	for _, id := range IDs() {
		out = append(out, Registry[id](o))
	}
	return out
}
