package txline

import (
	"math"
	"testing"

	"divot/internal/rng"
	"divot/internal/signal"
)

// reflectReference is the original combined superposition loop (windowed
// edge plus per-event O(n) tail additions), kept as the reference for the
// prefix-sum restructure in ReflectInto. With exactErf false it evaluates
// each window through the edge bank's addWindow, the helper ReflectInto
// uses, and is a bitwise oracle; with exactErf true it evaluates the window
// verbatim with math.Erf, the untabulated edge the bank approximates. The
// per-segment attenuation is recomputed on every call, not taken from
// ReflectScratch.
func reflectReference(l *Line, p Probe, deltaT, stretch float64, rate float64, n int, exactErf bool) *signal.Waveform {
	stretch *= 1 + l.cfg.ThermalStretchPerC*deltaT
	z, term := l.effectiveProfileInto(nil, deltaT)
	segDt := 2 * l.cfg.SegmentLength / l.cfg.Velocity
	alpha := l.cfg.LossDBPerMeter * math.Ln10 / 20

	var events []reflectEvent
	for i := 0; i < len(z)-1; i++ {
		g := (z[i+1] - z[i]) / (z[i+1] + z[i])
		if g == 0 {
			continue
		}
		d := float64(i+1) * l.cfg.SegmentLength
		att := math.Exp(-2 * alpha * d)
		events = append(events, reflectEvent{t: float64(i+1) * segDt, a: g * att})
	}
	zLast := z[len(z)-1]
	gTerm := (term - zLast) / (term + zLast)
	attTerm := math.Exp(-2 * alpha * l.cfg.Length)
	tTerm := l.RoundTripTime()
	events = append(events, reflectEvent{t: tTerm, a: gTerm * attTerm})
	if p.SecondOrder {
		gSrc := (l.cfg.SourceZ - z[0]) / (l.cfg.SourceZ + z[0])
		echo := gTerm * gSrc * gTerm * math.Exp(-4*alpha*l.cfg.Length)
		events = append(events, reflectEvent{t: 2 * tTerm, a: echo})
	}

	out := signal.New(rate, n)
	sigma := p.sigma()
	window := 5 * sigma
	for _, ev := range events {
		tEv := ev.t * stretch
		amp := p.Amplitude * ev.a
		loIdx := int((tEv - window) * rate)
		hiIdx := int((tEv+window)*rate) + 1
		if loIdx < 0 {
			loIdx = 0
		}
		if hiIdx > n {
			hiIdx = n
		}
		if exactErf {
			for i := loIdx; i < hiIdx; i++ {
				t := float64(i)/rate - tEv
				out.Samples[i] += amp * 0.5 * (1 + math.Erf(t/(sigma*math.Sqrt2)))
			}
		} else {
			bankFor(rate, sigma).addWindow(out.Samples, tEv, amp)
		}
		for i := hiIdx; i < n; i++ {
			out.Samples[i] += amp
		}
	}
	return out
}

// reflectProbes × reflectConds is the grid the reference tests sweep. The
// 10 ps probe's edge is about a sample wide (dx ≈ 2 in x = t/(σ√2)), so
// its bank has ~1000 phase rows of ~6 samples: the short-edge extreme.
var (
	reflectProbes = []Probe{
		DefaultProbe(),
		{RiseTime: 120e-12, Amplitude: 0.9, SecondOrder: false},
		{RiseTime: 480e-12, Amplitude: 0.4, SecondOrder: true},
		{RiseTime: 10e-12, Amplitude: 0.7, SecondOrder: true},
	}
	reflectConds = []struct{ deltaT, stretch float64 }{
		{0, 1}, {12.5, 1}, {-8, 1.0003}, {35, 0.9991}, {3.3, 1.2},
	}
)

func reflectTestLine() *Line {
	l := New("prefix-test", DefaultConfig(), rng.New(7).Child("line"))
	l.ApplyPerturbation("probe-a", Perturbation{Position: 0.08, Extent: 0.02, DeltaZ: 4.2})
	l.ApplyPerturbation("probe-b", Perturbation{Position: 0.19, Extent: 0.005, DeltaZ: -9.1})
	return l
}

// TestReflectIntoMatchesReference proves the prefix-sum tail restructure and
// the cached attenuation are bitwise identical to the original
// superposition across temperatures, strains, probe shapes, and perturbed
// profiles.
func TestReflectIntoMatchesReference(t *testing.T) {
	l := reflectTestLine()
	var scratch ReflectScratch
	for pi, p := range reflectProbes {
		for ci, c := range reflectConds {
			want := reflectReference(l, p, c.deltaT, c.stretch, 89.6e9, 343, false)
			got := l.ReflectInto(&scratch, p, c.deltaT, c.stretch, 89.6e9, 343)
			if got.Len() != want.Len() {
				t.Fatalf("probe %d cond %d: length %d != %d", pi, ci, got.Len(), want.Len())
			}
			for i := range want.Samples {
				if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
					t.Fatalf("probe %d cond %d: sample %d differs: got %x want %x",
						pi, ci, i, math.Float64bits(got.Samples[i]), math.Float64bits(want.Samples[i]))
				}
			}
		}
	}
}

// TestReflectIntoMatchesErf bounds what tabulating the edge costs: every
// sample stays within 1e-12·Amplitude of the superposition evaluated with
// math.Erf directly.
func TestReflectIntoMatchesErf(t *testing.T) {
	l := reflectTestLine()
	var scratch ReflectScratch
	for pi, p := range reflectProbes {
		for ci, c := range reflectConds {
			want := reflectReference(l, p, c.deltaT, c.stretch, 89.6e9, 343, true)
			got := l.ReflectInto(&scratch, p, c.deltaT, c.stretch, 89.6e9, 343)
			for i := range want.Samples {
				if d := math.Abs(got.Samples[i] - want.Samples[i]); d > 1e-12*p.Amplitude {
					t.Fatalf("probe %d cond %d: sample %d off by %g (got %v want %v)",
						pi, ci, i, d, got.Samples[i], want.Samples[i])
				}
			}
		}
	}
}

// TestReflectScratchRekeysAttenuation checks that one scratch reused across
// lines of different loss and segment length recomputes the cached
// attenuation rather than serving the previous line's.
func TestReflectScratchRekeysAttenuation(t *testing.T) {
	lossy := DefaultConfig()
	lossy.LossDBPerMeter = 20
	fine := DefaultConfig() // same segment count, half the segment length
	fine.SegmentLength /= 2
	fine.Length /= 2
	lines := []*Line{
		reflectTestLine(),
		New("lossy", lossy, rng.New(8)),
		New("fine", fine, rng.New(9)),
		reflectTestLine(),
	}
	var scratch ReflectScratch
	p := DefaultProbe()
	for li, l := range lines {
		want := reflectReference(l, p, 0, 1, 89.6e9, 343, false)
		got := l.ReflectInto(&scratch, p, 0, 1, 89.6e9, 343)
		for i := range want.Samples {
			if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
				t.Fatalf("line %d: sample %d differs after scratch reuse", li, i)
			}
		}
	}
}
