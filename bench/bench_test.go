package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/snn"
)

// TestMetricsMatchManifest holds the metric lists in code to the ones
// BENCHMARK.json declares, names and units alike.
func TestMetricsMatchManifest(t *testing.T) {
	man, err := readManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []metricDef, declared []manifestMetric) {
		if len(code) != len(declared) {
			t.Errorf("%s: code defines %d metrics, BENCHMARK.json %d", kind, len(code), len(declared))
		}
		for i := 0; i < len(code) && i < len(declared); i++ {
			if code[i].name != declared[i].Name || code[i].unit != declared[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i,
					code[i].name, code[i].unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, man.EndToEnd)
	check("per_layer", perLayer, man.PerLayer)
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloads)
	}
}

// runShort runs one workload for a fraction of a second and returns its
// exit status, its printed lines and the result from the last line.
func runShort(t *testing.T, cfg config) (int, []string, result) {
	t.Helper()
	cfg.seconds, cfg.out = 0.3, t.TempDir()
	var out bytes.Buffer
	status := execute(cfg, &out)
	var lines []string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	var res result
	if len(lines) == 0 {
		t.Fatalf("%s printed nothing", cfg.workload)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", cfg.workload, err)
	}
	return status, lines, res
}

// TestSmoke runs every workload briefly, traced, and checks that nothing
// fails and that every metric BENCHMARK.json names is printed with its
// unit and lands in the result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and trains every workload's models")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			status, lines, res := runShort(t, config{workload: w, seed: 3, trace: true})
			if status != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("status %d, result correct=%t attempted=%d failed=%d", status, res.Correct, res.Attempted, res.Failed)
			}
			printed := strings.Join(lines, "\n")
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if !strings.Contains(printed, " "+d.name+" ") || !strings.Contains(printed, " "+d.unit) {
					t.Errorf("metric %s (%s) not printed", d.name, d.unit)
				}
			}
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("result line lacks %s (%s)", d.name, d.unit)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced result holds %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
		})
	}
	t.Run("untraced", func(t *testing.T) {
		status, _, res := runShort(t, config{workload: "closed-fp32", seed: 3})
		if status != 0 || len(res.Metrics) != len(endToEnd) {
			t.Fatalf("status %d, %d metrics, want the %d end-to-end ones", status, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m := res.Metrics[d.name]; m.Unit != d.unit || m.Value <= 0 {
				t.Errorf("%s = %v %s, want a positive value in %s", d.name, m.Value, m.Unit, d.unit)
			}
		}
	})
}

// TestTamperedOracleFails corrupts oracle classes: a correct server
// must now fail those windows' checks and the run must exit non-zero.
func TestTamperedOracleFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and trains the served model")
	}
	status, _, res := runShort(t, config{workload: "closed-fp32", seed: 3, tamper: true})
	if res.Failed == 0 || res.Correct {
		t.Errorf("tampered oracle: failed %d of %d, correct=%t; want failures", res.Failed, res.Attempted, res.Correct)
	}
	if status == 0 {
		t.Error("tampered oracle: exit status 0, want non-zero")
	}
}

// TestClosingOffsetsMatchSplitWindows checks the window-closing byte
// offsets against dvs.SplitWindows: the events before window w's
// closing byte are exactly those SplitWindows puts in windows 0..w.
func TestClosingOffsetsMatchSplitWindows(t *testing.T) {
	g := gestureConfig()
	model := snn.DVSNet(snn.DefaultConfig(1.0, steps), g.H, g.W, dvs.GestureClasses, true, rng.New(1), rng.New(2))
	r := rng.New(11)
	for rec := 0; rec < 6; rec++ {
		segs := make([]*dvs.Stream, 1+rec)
		for k := range segs {
			segs[k] = dvs.GenerateGesture(r.Intn(dvs.GestureClasses), g, r)
			if rec%2 == 1 {
				segs[k] = attack.NewFrame().Perturb(model, segs[k], 0)
			}
		}
		flow, err := dvs.ConcatStreams(segs...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dvs.WriteAEDAT(&buf, flow); err != nil {
			t.Fatal(err)
		}
		// A window size that does not divide the gestures exercises
		// boundaries inside segments too.
		for _, win := range []float64{windowMS, 250} {
			closes := closingOffsets(flow, win)
			windows := dvs.SplitWindows(flow, win)
			if len(closes) != len(windows) {
				t.Fatalf("recording %d: %d closing offsets, %d windows", rec, len(closes), len(windows))
			}
			before := 0
			for w, c := range closes {
				before += len(windows[w].Events)
				if c < aedatHeader || c >= buf.Len() {
					t.Fatalf("recording %d window %d: offset %d outside the %d-byte encoding", rec, w, c, buf.Len())
				}
				if c == buf.Len()-1 {
					if before != len(flow.Events) && w != len(closes)-1 {
						t.Errorf("recording %d window %d: closed by the last byte with %d of %d events before it",
							rec, w, before, len(flow.Events))
					}
					continue
				}
				if (c-aedatHeader)%aedatEvent != 0 || (c-aedatHeader)/aedatEvent != before {
					t.Errorf("recording %d window %d: offset %d, want event %d's first byte %d",
						rec, w, c, before, aedatHeader+aedatEvent*before)
				}
			}
		}
	}
}

// fakeClock is a clock that only moves when the reader sleeps or the
// test advances it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestPacedDueTimesAndLag drives a paced reader on a fake clock: each
// window is due at its scheduled time, no byte that closes a window is
// handed out before that time, windows closed by the same byte share
// the latest of their times, and a late generator shows up as lag.
func TestPacedDueTimesAndLag(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.now()
	// Windows 1 and 2 are closed by the same byte (an empty window).
	rec := &recording{data: make([]byte, 100), closes: []int{40, 72, 72, 99}}
	sched := schedule(start, len(rec.closes))
	r := newDueReader(rec, sched)
	r.now, r.sleep = clk.now, clk.sleep
	period := time.Duration(windowMS / pacedSpeed * float64(time.Millisecond))

	var got int
	p := make([]byte, 30)
	for reads := 0; ; reads++ {
		if reads == 3 {
			// The generator falls behind, after window 0's release.
			clk.advance(10 * time.Millisecond)
		}
		n, err := r.Read(p)
		if err != nil {
			break
		}
		// Every byte handed out so far lies before the next unreleased
		// closing byte, and the clock has reached each released one's time.
		got += n
		for w, c := range rec.closes {
			if got > c && clk.now().Before(sched[w]) {
				t.Errorf("byte %d closing window %d handed out at %v, scheduled %v", c, w, clk.now().Sub(start), sched[w].Sub(start))
			}
		}
	}
	if got != len(rec.data) {
		t.Fatalf("read %d bytes, want %d", got, len(rec.data))
	}
	wantDue := []time.Duration{period, 3 * period, 3 * period, 4 * period}
	for w, want := range wantDue {
		due, ok := r.dueAt(w)
		if !ok || due.Sub(start) != want {
			t.Errorf("window %d due at %v (ok=%t), want %v", w, due.Sub(start), ok, want)
		}
	}
	// The first release was on time; the generator then fell 10 ms
	// behind, past the remaining schedule, so later windows are late by
	// the clock's lead over their times.
	if r.lag[0] != 0 {
		t.Errorf("window 0 lag %v, want 0", r.lag[0])
	}
	late := 10*time.Millisecond + period - 3*period
	for w := 1; w <= 2; w++ {
		if r.lag[w] != late {
			t.Errorf("window %d lag %v, want %v", w, r.lag[w], late)
		}
	}
	if _, ok := newDueReader(rec, sched).dueAt(0); ok {
		t.Error("a window is due before its closing byte was read")
	}
}

// TestSummarizeTail checks the percentile helper's choice of the deepest
// tail with at least ten samples beyond it.
func TestSummarizeTail(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tailQ float64
	}{{5, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // reversed: summarize must sort
		}
		d := summarize(xs)
		if d.n != tc.n || d.tailQ != tc.tailQ {
			t.Errorf("n=%d: tail p%v, want p%v", tc.n, 100*d.tailQ, 100*tc.tailQ)
			continue
		}
		if tc.tailQ > 0 {
			beyond := 0
			for _, x := range xs {
				if x > d.tailAt {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: %d samples beyond p%v=%v, want at least 10", tc.n, beyond, 100*tc.tailQ, d.tailAt)
			}
		}
		if want := float64((tc.n + 1) / 2); d.p50 != want {
			t.Errorf("n=%d: p50 %v, want %v", tc.n, d.p50, want)
		}
	}
}

// TestFastestBlocks checks the block cut, the ranking by median latency
// and the throughput over the kept blocks' own durations.
func TestFastestBlocks(t *testing.T) {
	start := time.Unix(1000, 0)
	// Ten blocks of 4 items; block b's items take b+1 ms and arrive
	// 10·(b+1) ms apart, so the kept 15%, rounded up, is blocks 0 and 1.
	// Two more items form a partial block, which is dropped.
	var s []sample
	at := start
	for b := 0; b < 10; b++ {
		for i := 0; i < 4; i++ {
			at = at.Add(time.Duration(10*(b+1)) * time.Millisecond)
			s = append(s, sample{at: at, lat: float64(b + 1)})
		}
	}
	s = append(s, sample{at: at.Add(time.Millisecond), lat: 0.5}, sample{at: at.Add(2 * time.Millisecond), lat: 0.5})
	rand.New(rand.NewSource(1)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := fastestBlocks(s, start, 4)
	if got.blocks != 10 || got.kept != 2 {
		t.Fatalf("blocks %d kept %d, want 10 and 2", got.blocks, got.kept)
	}
	// Blocks 0 and 1 last 40 ms and 80 ms.
	if want := 8 / 0.120; math.Abs(got.rate-want) > 1e-9 {
		t.Errorf("rate %v, want %v", got.rate, want)
	}
	if got.lat.n != 8 || got.lat.p50 != 1 || got.lat.p99 != 2 {
		t.Errorf("kept latency %+v, want n=8 p50=1 p99=2", got.lat)
	}
	if got.allLat.n != 42 {
		t.Errorf("whole run has %d samples, want 42", got.allLat.n)
	}
	short := fastestBlocks(s[:3], start, 4)
	if short.blocks != 1 || short.kept != 1 || short.lat.n != 3 {
		t.Errorf("short run: %d blocks, %d kept, %d samples; want one block of 3", short.blocks, short.kept, short.lat.n)
	}
}

// TestSelfTimeWithinDuration checks self time on random span trees
// whose children overlap each other and spill past their parent: it is
// never negative and never exceeds the span's duration.
func TestSelfTimeWithinDuration(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var spans []span
		for i := 0; i < 1+r.Intn(30); i++ {
			parent := -1
			if i > 0 && r.Intn(4) > 0 {
				parent = r.Intn(i)
			}
			start := r.Int63n(1000)
			spans = append(spans, span{Parent: parent, Start: start, End: start + r.Int63n(500)})
		}
		for i, s := range selfTimes(spans) {
			if d := spans[i].End - spans[i].Start; s < 0 || s > d {
				t.Fatalf("trial %d span %d: self %d outside [0, %d]", trial, i, s, d)
			}
		}
	}
	exact := []span{{Parent: -1, Start: 0, End: 100}, {Parent: 0, Start: 10, End: 30}, {Parent: 0, Start: 20, End: 50}, {Parent: 1, Start: 12, End: 14}}
	if got := selfTimes(exact); got[0] != 60 || got[1] != 18 || got[2] != 30 || got[3] != 2 {
		t.Errorf("self times %v, want [60 18 30 2]", got)
	}
}

// TestExclusiveQuartilesMatchPython pins the quartiles to
// statistics.quantiles(values, n=4).
func TestExclusiveQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
	} {
		sp := spreadOf(tc.in)
		if sp.Q1 != tc.want[0] || sp.Median != tc.want[1] || sp.Q3 != tc.want[2] {
			t.Errorf("%v: q1 %v median %v q3 %v, want %v", tc.in, sp.Q1, sp.Median, sp.Q3, tc.want)
		}
	}
}
