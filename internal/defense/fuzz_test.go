package defense

import (
	"testing"

	"repro/internal/dvs"
	"repro/internal/rng"
)

// FuzzIncrementalAQF drives the online filter over randomized sorted
// flows cut at fuzzed boundaries and holds it, and the whole-stream AQF
// built on it, to the reference scan refAQF: same events, same order,
// bit for bit. The fuzzer steers the sensor size, event density,
// burstiness (repeated timestamps hit the polarity rule), quantization
// step and the chunking itself.
func FuzzIncrementalAQF(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(16), uint8(3), uint8(13))
	f.Add(uint64(7), uint16(900), uint8(8), uint8(0), uint8(1))
	f.Add(uint64(42), uint16(50), uint8(32), uint8(2), uint8(255))
	f.Add(uint64(9), uint16(1500), uint8(4), uint8(1), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, side, qtSel, chunk uint8) {
		w := int(side%32) + 2
		h := int(side/8%32) + 2
		r := rng.New(seed)
		dur := 200 + r.Float64()*1800
		s := &dvs.Stream{W: w, H: h, Duration: dur}
		tms := 0.0
		for i := 0; i < int(n); i++ {
			// Bursty clock: ~1/4 of events share the previous timestamp.
			if !r.Bernoulli(0.25) {
				tms += r.Float64() * 4
			}
			if tms > dur {
				break
			}
			p := int8(1)
			if r.Bernoulli(0.5) {
				p = -1
			}
			s.Events = append(s.Events, dvs.Event{X: r.Intn(w), Y: r.Intn(h), P: p, T: tms})
		}
		qt := []float64{0, 0.01, 0.015, 0.1}[qtSel%4]
		p := DefaultAQFParams(qt)
		want := refAQF(s, p).Events
		sameEvents(t, "AQF", want, AQF(s, p).Events)

		inc, err := NewIncrementalAQF(w, h, dur, p)
		if err != nil {
			t.Fatal(err)
		}
		var got []dvs.Event
		step := int(chunk)%97 + 1
		for lo := 0; lo < len(s.Events); lo += step {
			hi := lo + step
			if hi > len(s.Events) {
				hi = len(s.Events)
			}
			out, err := inc.Push(s.Events[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, out...)
		}
		got = append(got, inc.Flush()...)
		sameEvents(t, "incremental", want, got)
	})
}
