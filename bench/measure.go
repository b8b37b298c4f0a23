package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// dist summarizes a sample of timings. Alongside the median and p99 it
// carries the highest of p50, p90, p99, p99.9 and p99.99 that still has
// at least ten samples beyond it — the deepest tail the sample supports.
type dist struct {
	n             int
	p50, p99      float64
	tailQ, tailAt float64
}

// tailLevels are the percentiles summarize considers for the supported
// tail, shallowest first; beyond is the share of samples past each, as
// 1/beyond, so the ten-sample test stays in integers.
var tailLevels = []struct {
	q      float64
	beyond int
}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

func summarize(xs []float64) dist {
	d := dist{n: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.p50, d.p99 = quantile(s, 0.5), quantile(s, 0.99)
	for _, l := range tailLevels {
		if len(s) >= 10*l.beyond {
			d.tailQ, d.tailAt = l.q, quantile(s, l.q)
		}
	}
	return d
}

// quantile is the nearest-rank q-quantile of sorted. The epsilon keeps
// q·n from rounding up past an exact rank (0.99·1000 is 990.0000000000001
// in floating point).
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// String prints the tail beside the sample count, e.g. "n=1200 p99.9=3.1".
func (d dist) String() string {
	if d.tailQ == 0 {
		return fmt.Sprintf("n=%d (fewer than 10 beyond the median)", d.n)
	}
	return fmt.Sprintf("n=%d p%s=%.4g", d.n, strconv.FormatFloat(100*d.tailQ, 'f', -1, 64), d.tailAt)
}

// sample is one verified item: when its result arrived and its latency.
type sample struct {
	at  time.Time
	lat float64 // ms
}

// timing is a run's throughput and latency over its fastest blocks, with
// the whole run beside it.
//
// The machine the bounds were set on is a 2-vCPU VM whose speed swings
// 2× and more as other tenants load the shared host, over seconds to
// minutes: a fixed single-thread loop ranged 1.8–4.2 ms per repetition
// there, with CPU time equal to wall time and no steal, for working sets
// from L1 to memory alike. A whole-run mean carries that swing into
// every run. Over ten-minute recordings of closed-fp32 and offline-pgd,
// 15 s windows spread 7–12% between quartiles by their mean, and 4–9%
// by their fastest tenth to fifth of blocks. Only a slowdown lasting a
// whole run still shows.
type timing struct {
	rate, allRate float64 // items/s
	lat, allLat   dist
	blocks, kept  int
}

// keptPercent is the share of a run's blocks its timing metrics keep:
// at 15 s, 1100 windows of paced-aqf, enough for ten beyond p99.
const keptPercent = 15

// fastestBlocks cuts the samples, in completion order, into blocks of
// size items (a shorter run makes one block of all of them), ranks the
// blocks by median latency, and computes throughput and latency over the
// fastest keptPercent. A block lasts from the previous block's last
// completion, or from start, to its own last completion.
func fastestBlocks(samples []sample, start time.Time, size int) timing {
	var t timing
	if len(samples) == 0 {
		return t
	}
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].at.Before(s[j].at) })
	type block struct {
		items  []sample
		secs   float64
		median float64
	}
	var blocks []block
	prev := start
	for lo := 0; lo < len(s); lo += size {
		hi := lo + size
		if hi > len(s) {
			if lo > 0 {
				break // a trailing partial block would rank on fewer samples
			}
			hi = len(s)
		}
		b := block{items: s[lo:hi], secs: s[hi-1].at.Sub(prev).Seconds()}
		b.median = summarize(latencies(b.items)).p50
		prev = s[hi-1].at
		blocks = append(blocks, b)
	}
	t.blocks = len(blocks)
	t.allRate = float64(len(s)) / s[len(s)-1].at.Sub(start).Seconds()
	t.allLat = summarize(latencies(s))
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].median < blocks[j].median })
	t.kept = (len(blocks)*keptPercent + 99) / 100
	var kept []sample
	secs := 0.0
	for _, b := range blocks[:t.kept] {
		kept = append(kept, b.items...)
		secs += b.secs
	}
	t.rate = float64(len(kept)) / secs
	t.lat = summarize(latencies(kept))
	return t
}

func latencies(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.lat
	}
	return out
}

// setTiming records a run's timing metrics, naming its items in the
// printed outputs.
func (r *report) setTiming(t timing, items string) {
	r.set("items_per_s", t.rate)
	r.set("latency_p50_ms", t.lat.p50)
	r.set("latency_p99_ms", t.lat.p99)
	r.output("%s_per_s %.6g %s/s (fastest %d of %d blocks; whole run %.6g)", items, t.rate, items, t.kept, t.blocks, t.allRate)
	r.output("latency_ms fastest blocks: p50=%.4g p99=%.4g %s; whole run: p50=%.4g p99=%.4g %s",
		t.lat.p50, t.lat.p99, t.lat, t.allLat.p50, t.allLat.p99, t.allLat)
}

// The runtime/metrics the benchmark reads as deltas over a measured
// interval.
const (
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtAllocObjs  = "/gc/heap/allocs:objects"
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtGCPauses   = "/sched/pauses/total/gc:seconds"
	rtSchedLat   = "/sched/latencies:seconds"
)

type runtimeSnap struct {
	at      time.Time
	samples []metrics.Sample
}

func readRuntime() runtimeSnap {
	s := runtimeSnap{at: time.Now(), samples: make([]metrics.Sample, 5)}
	for i, name := range []string{rtGCCycles, rtAllocObjs, rtAllocBytes, rtGCPauses, rtSchedLat} {
		s.samples[i].Name = name
	}
	metrics.Read(s.samples)
	return s
}

func (s runtimeSnap) uint(name string) float64 {
	for _, m := range s.samples {
		if m.Name == name && m.Value.Kind() == metrics.KindUint64 {
			return float64(m.Value.Uint64())
		}
	}
	return 0
}

// histP99 is the p99 of the histogram's growth since prev, in
// milliseconds (the upper edge of the bucket holding it).
func (s runtimeSnap) histP99(prev runtimeSnap, name string) float64 {
	cur, old := s.hist(name), prev.hist(name)
	if cur == nil || old == nil || len(cur.Counts) != len(old.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(cur.Counts))
	for i := range delta {
		delta[i] = cur.Counts[i] - old.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range delta {
		if cum += c; cum >= target {
			edge := cur.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = cur.Buckets[i]
			}
			return edge * 1e3
		}
	}
	return 0
}

func (s runtimeSnap) hist(name string) *metrics.Float64Histogram {
	for _, m := range s.samples {
		if m.Name == name && m.Value.Kind() == metrics.KindFloat64Histogram {
			return m.Value.Float64Histogram()
		}
	}
	return nil
}

// setRuntime records the runtime metrics of the interval prev→cur, with
// allocations normalized per completed item.
func (r *report) setRuntime(prev, cur runtimeSnap, items float64) {
	secs := cur.at.Sub(prev.at).Seconds()
	r.set("runtime.allocs_per_item", (cur.uint(rtAllocObjs)-prev.uint(rtAllocObjs))/items)
	r.set("runtime.alloc_bytes_per_item", (cur.uint(rtAllocBytes)-prev.uint(rtAllocBytes))/items)
	r.set("runtime.gc_cycles_per_s", (cur.uint(rtGCCycles)-prev.uint(rtGCCycles))/secs)
	r.set("runtime.gc_pause_p99_ms", cur.histP99(prev, rtGCPauses))
	r.set("runtime.sched_latency_p99_ms", cur.histP99(prev, rtSchedLat))
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// finish records the metrics every workload shares: set-up time as the
// median of the timed set-ups, and the peak resident set.
func (r *report) finish(setups []time.Duration) error {
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	r.set("setup_s", summarize(secs).p50)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
