package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/approx"
	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// The traced run replays a workload's inputs through each layer's public
// functions, recording an in-memory span around every call. The spans
// come from the benchmark's own code, around the calls into each layer;
// the end-to-end numbers always come from the untraced run.

// span is one timed call. Spans of one recording (or PGD round) share a
// trace id; Parent indexes the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans while on; when off, begin and end cost a branch,
// which is what the overhead comparison measures against.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

func (t *tracer) begin(name string, parent, trace int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	type interval struct{ lo, hi int64 }
	self := make([]int64, len(spans))
	for i, s := range spans {
		var ivs []interval
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			if v.hi > reach {
				covered += v.hi - max(v.lo, reach)
				reach = v.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count      int
	busy, self int64 // ns
}

// perItem is a layer's self time per unit of work, 0 when there was none.
func (lt *layerTime) perItem(n float64) float64 {
	if lt == nil || n == 0 {
		return 0
	}
	return float64(lt.self) / n
}

// summarizeSpans aggregates spans by name, and sums the roots' durations
// into the traced wall time.
func summarizeSpans(spans []span) (map[string]*layerTime, int64) {
	self := selfTimes(spans)
	by := map[string]*layerTime{}
	var wall int64
	for i, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{}
			by[s.Name] = lt
		}
		lt.count++
		lt.busy += s.End - s.Start
		lt.self += self[i]
		if s.Parent < 0 {
			wall += s.End - s.Start
		}
	}
	return by, wall
}

// writeTrace prints each span name's busy and self time and its share of
// the traced wall time, and writes the spans to <out>/<workload>.trace.json.
func writeTrace(cfg config, tr *tracer, stdout io.Writer) (map[string]*layerTime, error) {
	by, wall := summarizeSpans(tr.spans)
	fmt.Fprintf(stdout, "# trace %-26s %8s %12s %12s %8s\n", "span", "count", "busy_ms", "self_ms", "share")
	for _, name := range slices.Sorted(maps.Keys(by)) {
		lt := by[name]
		fmt.Fprintf(stdout, "# trace %-26s %8d %12.3f %12.3f %8.4f\n", name, lt.count,
			float64(lt.busy)/1e6, float64(lt.self)/1e6, float64(lt.self)/float64(wall))
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, cfg.workload+".trace.json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, tr.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# trace %d spans written to %s\n", len(tr.spans), path)
	return by, nil
}

// replayPasses is how many untraced/traced replay pairs a traced serve
// run alternates; trace_overhead_frac compares their throughput.
const replayPasses = 3

// replayCounts is the work one replay pass did.
type replayCounts struct {
	events, aqfIn, aqfOut, windows, windowEvents, sopsCalls int64
	sops                                                    float64
}

func (c *replayCounts) add(o replayCounts) {
	c.events += o.events
	c.aqfIn += o.aqfIn
	c.aqfOut += o.aqfOut
	c.windows += o.windows
	c.windowEvents += o.windowEvents
	c.sopsCalls += o.sopsCalls
	c.sops += o.sops
}

// replayer pushes recordings through the serving layers the way a
// session pipeline does: decode → incremental AQF → windower → voxelize
// → batched predict at the session batch → energy accounting.
type replayer struct {
	spec  serveSpec
	clone *snn.Network // classifies at the workload's tier
	em    *approx.EnergyModel
	inc   *defense.IncrementalAQF
	chunk []dvs.Event
	slots [][]*tensor.Tensor // batch × voxel frames
	idx   []int              // window index per filled slot
	out   []int
	fill  int

	// keep holds copies of the first windows' frames for the layer pass.
	keep       [][]*tensor.Tensor
	counts     replayCounts
	mismatches int64
}

// keepWindows is how many replayed windows the layer pass runs on.
const keepWindows = 64

func newReplayer(spec serveSpec, model *snn.Network) (*replayer, error) {
	clone := model.CloneArchitecture()
	if err := clone.SetTier(spec.tier); err != nil {
		return nil, err
	}
	g := gestureConfig()
	rp := &replayer{
		spec: spec, clone: clone, em: approx.NewEnergyModel(model),
		chunk: make([]dvs.Event, 4096), slots: make([][]*tensor.Tensor, batch),
		idx: make([]int, batch), out: make([]int, batch),
	}
	for i := range rp.slots {
		rp.slots[i] = make([]*tensor.Tensor, steps)
		for t := range rp.slots[i] {
			rp.slots[i][t] = tensor.New(2, g.H, g.W)
		}
	}
	return rp, nil
}

// recording replays one recording under a root span; predict checks
// every window's class against the oracle.
func (rp *replayer) recording(rec *recording, id int, tr *tracer) error {
	root := tr.begin("replay", -1, id)
	defer tr.end(root)
	sr, err := dvs.NewStreamReaderOptions(bytes.NewReader(rec.data), dvs.StreamReaderOptions{ReorderWindow: 1024})
	if err != nil {
		return err
	}
	win, err := dvs.NewWindower(windowMS, sr.Duration())
	if err != nil {
		return err
	}
	if rp.spec.aqf {
		if rp.inc == nil {
			if rp.inc, err = defense.NewIncrementalAQF(sr.W(), sr.H(), sr.Duration(), *pipelineOptions(rp.spec).AQF); err != nil {
				return err
			}
		} else {
			rp.inc.Reset(sr.Duration())
		}
	}
	// offer feeds events to the windower; windows it closes voxelize and
	// classify under its span, so dvs.window's self time is Offer/Pop.
	offer := func(events []dvs.Event) error {
		sp := tr.begin("dvs.window", root, id)
		defer tr.end(sp)
		for _, e := range events {
			for {
				ok, err := win.Offer(e)
				if err != nil {
					return err
				}
				if ok {
					break
				}
				rp.takeWindow(win, rec, sp, id, tr)
			}
		}
		return nil
	}
	for {
		sp := tr.begin("dvs.decode", root, id)
		n, rerr := sr.ReadChunk(rp.chunk)
		tr.end(sp)
		rp.counts.events += int64(n)
		events := rp.chunk[:n]
		if rp.inc != nil {
			sp := tr.begin("defense.aqf", root, id)
			events, err = rp.inc.Push(events)
			tr.end(sp)
			if err != nil {
				return err
			}
			rp.counts.aqfIn += int64(n)
			rp.counts.aqfOut += int64(len(events))
		}
		if err := offer(events); err != nil {
			return err
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	if rp.inc != nil {
		sp := tr.begin("defense.aqf", root, id)
		events := rp.inc.Flush()
		tr.end(sp)
		rp.counts.aqfOut += int64(len(events))
		if err := offer(events); err != nil {
			return err
		}
	}
	for !win.Done() {
		rp.takeWindow(win, rec, root, id, tr)
	}
	rp.predict(rec, root, id, tr)
	return nil
}

// takeWindow voxelizes the windower's current window into the next slot,
// classifying when the batch is full.
func (rp *replayer) takeWindow(win *dvs.Windower, rec *recording, parent, id int, tr *tracer) {
	g := gestureConfig()
	idx, start, events := win.Pop()
	sp := tr.begin("dvs.voxelize", parent, id)
	dvs.VoxelizeWindowInto(rp.slots[rp.fill], events, g.W, g.H, start, windowMS)
	tr.end(sp)
	rp.counts.windows++
	rp.counts.windowEvents += int64(len(events))
	if len(rp.keep) < keepWindows {
		frames := make([]*tensor.Tensor, steps)
		for t, f := range rp.slots[rp.fill] {
			frames[t] = f.Clone()
		}
		rp.keep = append(rp.keep, frames)
	}
	rp.idx[rp.fill] = idx
	if rp.fill++; rp.fill == batch {
		rp.predict(rec, parent, id, tr)
	}
}

// predict classifies the filled slots, accounts their synaptic work and
// checks the classes against the oracle.
func (rp *replayer) predict(rec *recording, parent, id int, tr *tracer) {
	if rp.fill == 0 {
		return
	}
	samples, out := rp.slots[:rp.fill], rp.out[:rp.fill]
	input := 0.0
	for _, frames := range samples {
		for _, f := range frames {
			input += f.Sum()
		}
	}
	rp.clone.ResetStats()
	sp := tr.begin("snn.predict", parent, id)
	rp.clone.PredictBatchInto(samples, out)
	tr.end(sp)
	sp = tr.begin("approx.batch_sops", parent, id)
	sops, _ := rp.em.BatchSOPs(rp.clone, input, len(samples))
	tr.end(sp)
	rp.counts.sops += sops
	rp.counts.sopsCalls++
	for j, c := range out {
		if w := rp.idx[j]; w >= len(rec.classes) || c != rec.classes[w] {
			rp.mismatches++
		}
	}
	rp.fill = 0
}

// traceServe is the traced run of a serve workload: replay passes with
// and without spans, then predict timing and the layer-by-layer pass on
// replayed windows.
func traceServe(cfg config, spec serveSpec, model *snn.Network, recs []recording, rep *report, stdout io.Writer) error {
	rp, err := newReplayer(spec, model)
	if err != nil {
		return err
	}
	tr := newTracer(true)
	var wall [2]time.Duration // untraced, traced
	var counts [2]replayCounts
	for pass := 0; pass < 2*replayPasses; pass++ {
		traced := pass % 2
		t := tr
		if traced == 0 {
			t = newTracer(false)
		}
		rp.counts = replayCounts{}
		t0 := time.Now()
		for i := range recs {
			if err := rp.recording(&recs[i], i, t); err != nil {
				return err
			}
		}
		wall[traced] += time.Since(t0)
		counts[traced].add(rp.counts)
	}
	rep.attempted += counts[0].windows + counts[1].windows
	if rp.mismatches > 0 {
		rep.failed += rp.mismatches
		rep.output("replay_mismatches %d (replayed classes that differ from the oracle)", rp.mismatches)
	}
	rep.set("bench.trace_overhead_frac", 1-(float64(counts[1].windows)/wall[1].Seconds())/(float64(counts[0].windows)/wall[0].Seconds()))

	root := tr.begin("layers", -1, len(recs))
	timePredict(rp.clone, rp.keep, tr, root)
	lp := layerPass(model, rp.keep, batch, tr, root)
	tr.end(root)

	by, err := writeTrace(cfg, tr, stdout)
	if err != nil {
		return err
	}
	c := counts[1]
	rep.set("dvs.decode_ns_per_event", by["dvs.decode"].perItem(float64(c.events)))
	rep.set("dvs.window_ns_per_window", by["dvs.window"].perItem(float64(c.windows)))
	rep.set("dvs.voxelize_ns_per_window", by["dvs.voxelize"].perItem(float64(c.windows)))
	rep.set("dvs.events_per_window", float64(c.windowEvents)/float64(c.windows))
	if spec.aqf {
		rep.set("defense.aqf_ns_per_event", by["defense.aqf"].perItem(float64(c.aqfIn)))
		rep.set("defense.aqf_kept_frac", float64(c.aqfOut)/float64(c.aqfIn))
	}
	rep.set("approx.sops_per_sample", c.sops/float64(c.windows))
	rep.set("approx.batch_sops_ns_per_batch", by["approx.batch_sops"].perItem(float64(c.sopsCalls)))
	rep.setPredict(by, len(rp.keep))
	rep.setLayers(lp, by)
	return nil
}

// predictRepeats is how many times timePredict classifies the samples
// at each batch width.
const predictRepeats = 4

// timePredict times PredictBatchInto at the session batch and at the
// scheduler's widest tick.
func timePredict(net *snn.Network, samples [][]*tensor.Tensor, tr *tracer, parent int) {
	out := make([]int, maxBatch)
	for _, b := range []int{batch, maxBatch} {
		name := fmt.Sprintf("snn.predict_b%d", b)
		for r := 0; r < predictRepeats; r++ {
			for lo := 0; lo+b <= len(samples); lo += b {
				sp := tr.begin(name, parent, -1)
				net.PredictBatchInto(samples[lo:lo+b], out[:b])
				tr.end(sp)
			}
		}
	}
}

func (r *report) setPredict(by map[string]*layerTime, samples int) {
	for _, b := range []int{batch, maxBatch} {
		n := float64(predictRepeats * (samples / b) * b)
		r.set(fmt.Sprintf("snn.predict_b%d_ns_per_sample", b), by[fmt.Sprintf("snn.predict_b%d", b)].perItem(n))
	}
}

// layerStats is what the layer-by-layer pass counts for one weighted
// layer, summed over every time step of every sample.
type layerStats struct {
	name            string
	inputs, nonzero int64
	levels          map[float32]bool // distinct input values, up to maxLevels+1
	sops, macs      float64
}

// maxLevels caps how many distinct input values a layer reports.
const maxLevels = 16

// layerPassResult is the layer-by-layer pass over some samples.
type layerPassResult struct {
	layers  []*layerStats
	samples int
	firing  []float64 // per LIF layer, from snn.Trace
}

// layerPass runs the samples through each layer's public ForwardBatch —
// the FP32 allocating path — on a fresh clone, timing every weighted
// layer under a span named snn.<layer>.fwd and counting its input
// activity, synaptic operations (non-zero inputs × live fan-out) and
// dense-equivalent MACs. snn.Trace then measures the firing rates on the
// same samples.
func layerPass(model *snn.Network, samples [][]*tensor.Tensor, b int, tr *tracer, parent int) layerPassResult {
	clone := model.CloneArchitecture()
	stats := make([]*layerStats, len(clone.Layers))
	kinds := map[string]int{}
	for li, l := range clone.Layers {
		kind := ""
		switch l.(type) {
		case *snn.Conv2D:
			kind = "conv"
		case *snn.Dense:
			kind = "fc"
		default:
			continue
		}
		kinds[kind]++
		stats[li] = &layerStats{name: fmt.Sprintf("%s%d", kind, kinds[kind]), levels: map[float32]bool{}}
	}
	res := layerPassResult{}
	for lo := 0; lo+b <= len(samples); lo += b {
		frames := snn.StackFrames(samples[lo:lo+b], clone.Cfg.Steps)
		clone.Reset()
		for t := 0; t < clone.Cfg.Steps; t++ {
			x := frames[t]
			for li, l := range clone.Layers {
				bl := l.(snn.BatchLayer)
				st := stats[li]
				if st == nil {
					x = bl.ForwardBatch(x, false)
					continue
				}
				st.sops += float64(st.observe(x)) * liveFanOut(l)
				st.macs += denseMACs(l) * float64(b)
				sp := tr.begin("snn."+st.name+".fwd", parent, -1)
				x = bl.ForwardBatch(x, false)
				tr.end(sp)
			}
		}
		res.samples += b
	}
	for _, st := range stats {
		if st != nil {
			res.layers = append(res.layers, st)
		}
	}
	for _, l := range snn.Trace(model.CloneArchitecture(), samples).Layers {
		res.firing = append(res.firing, l.FiringRate)
	}
	return res
}

// observe counts x's non-zero inputs and records its distinct values.
func (st *layerStats) observe(x *tensor.Tensor) int64 {
	var nz int64
	for _, v := range x.Data {
		if v != 0 {
			nz++
		}
		if len(st.levels) <= maxLevels {
			st.levels[v] = true
		}
	}
	st.inputs += int64(len(x.Data))
	st.nonzero += nz
	return nz
}

// liveFanOut is how many unpruned synapses one input unit of l reaches.
func liveFanOut(l snn.Layer) float64 {
	switch v := l.(type) {
	case *snn.Conv2D:
		g := v.Geom
		return float64(live(v.W, v.Mask)) * float64(g.OutH()*g.OutW()) / float64(g.InC*g.InH*g.InW)
	case *snn.Dense:
		return float64(live(v.W, v.Mask)) / float64(v.In)
	}
	return 0
}

func live(w, mask *tensor.Tensor) int {
	if mask == nil {
		return w.Len()
	}
	n := 0
	for _, m := range mask.Data {
		if m != 0 {
			n++
		}
	}
	return n
}

// denseMACs is one sample-step of l computed as a dense layer.
func denseMACs(l snn.Layer) float64 {
	switch v := l.(type) {
	case *snn.Conv2D:
		return float64(v.W.Len() * v.Geom.OutH() * v.Geom.OutW())
	case *snn.Dense:
		return float64(v.W.Len())
	}
	return 0
}

// setLayers records the layer pass, and prints each layer's distinct
// input levels: layers fed by AvgPool see multiples of 1/4, not {0,1}.
func (r *report) setLayers(lp layerPassResult, by map[string]*layerTime) {
	n := float64(lp.samples)
	for _, st := range lp.layers {
		p := "snn." + st.name
		r.set(p+".in_density", float64(st.nonzero)/float64(st.inputs))
		r.set(p+".sops_per_sample", st.sops/n)
		r.set(p+".macs_per_sample", st.macs/n)
		r.set(p+".fwd_ns_per_sample", by[p+".fwd"].perItem(n))
		r.output("%s.in_levels %s", p, levelsString(st.levels))
	}
	for i, f := range lp.firing {
		r.set(fmt.Sprintf("snn.lif%d.firing_rate", i+1), f)
	}
}

// levelsString prints a layer's distinct input values in order.
func levelsString(levels map[float32]bool) string {
	if len(levels) > maxLevels {
		return fmt.Sprintf("more than %d distinct values", maxLevels)
	}
	vals := make([]float64, 0, len(levels))
	for v := range levels {
		vals = append(vals, float64(v))
	}
	sort.Float64s(vals)
	return fmt.Sprint(vals)
}
