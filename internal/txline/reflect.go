package txline

import (
	"fmt"
	"math"

	"divot/internal/signal"
)

// Probe describes the edge waveform used to interrogate the line.
type Probe struct {
	// RiseTime is the 10-90 % rise time of the launched edge in seconds.
	RiseTime float64
	// Amplitude is the edge swing in volts.
	Amplitude float64
	// SecondOrder enables the dominant multi-bounce echo term
	// (termination → source → termination).
	SecondOrder bool
}

// Validate reports probe errors. The rise time sets the launched edge's σ,
// so it must be positive and finite; a non-finite amplitude would turn
// every sample NaN.
func (p Probe) Validate() error {
	switch {
	case !(p.RiseTime > 0) || math.IsInf(p.RiseTime, 1):
		return fmt.Errorf("txline: probe rise time %v s must be positive and finite", p.RiseTime)
	case math.IsNaN(p.Amplitude) || math.IsInf(p.Amplitude, 0):
		return fmt.Errorf("txline: probe amplitude %v V must be finite", p.Amplitude)
	}
	return nil
}

// sigma returns the σ of the launched Gaussian-filtered edge: the 10-90 %
// rise time is 2.563σ.
func (p Probe) sigma() float64 { return p.RiseTime / 2.563 }

// DefaultProbe returns a probe matching a 156.25 MHz FPGA I/O edge.
func DefaultProbe() Probe {
	return Probe{RiseTime: 120e-12, Amplitude: 0.9, SecondOrder: true}
}

// Reflect synthesizes the back-reflection waveform received at the source for
// the line's current state. deltaT is the temperature offset from the 23 °C
// calibration point, stretch is the mechanical time-axis factor (1 = none),
// and the output is sampled at rate over n samples starting at t = 0 (edge
// launch). It panics on a probe that fails Validate, or on one whose edge
// is far too short to sample at rate.
//
// The result is the superposition over every impedance boundary of the
// incident edge scaled by the boundary's reflection coefficient, delayed by
// its round-trip time (under stretch) and attenuated by the line loss.
func (l *Line) Reflect(p Probe, deltaT, stretch float64, rate float64, n int) *signal.Waveform {
	return l.ReflectInto(nil, p, deltaT, stretch, rate, n)
}

// reflectEvent is one arrival in the reflection superposition: round-trip
// time t (unstretched) and amplitude a relative to the incident edge.
type reflectEvent struct{ t, a float64 }

// ReflectScratch holds the reusable buffers of ReflectInto: the effective
// impedance profile, the event list, and the output waveform. The zero value
// is ready to use; one scratch serves one goroutine.
type ReflectScratch struct {
	z      []float64
	events []reflectEvent
	hi     []int
	out    *signal.Waveform
	att    attenuation
	bank   *edgeBank // the last (rate, σ)'s shared edge bank
}

// attenuation caches the round-trip loss exp(-2αd) to every segment
// boundary. It depends only on the line's loss, segment length and segment
// count, which every line of a fleet usually shares, so one scratch
// recomputes it only when those change.
type attenuation struct {
	loss, seg float64
	f         []float64 // f[i] is the loss to boundary i+1, d = (i+1)·seg
}

// of returns the cached factors for cfg and n segments, rebuilding them if
// the key changed.
func (a *attenuation) of(cfg Config, n int) []float64 {
	if len(a.f) == n-1 && a.loss == cfg.LossDBPerMeter && a.seg == cfg.SegmentLength {
		return a.f
	}
	alpha := cfg.lossNepers()
	f := a.f[:0]
	for i := 0; i < n-1; i++ {
		d := float64(i+1) * cfg.SegmentLength
		f = append(f, math.Exp(-2*alpha*d))
	}
	*a = attenuation{loss: cfg.LossDBPerMeter, seg: cfg.SegmentLength, f: f}
	return f
}

// lossNepers returns the one-way line loss in nepers per meter.
func (c Config) lossNepers() float64 { return c.LossDBPerMeter * math.Ln10 / 20 }

// ReflectInto is Reflect with every buffer recycled from s (nil s behaves
// like Reflect). The returned waveform aliases s.out and is valid until the
// next ReflectInto on the same scratch; numerics are bit-identical to
// Reflect.
func (l *Line) ReflectInto(s *ReflectScratch, p Probe, deltaT, stretch float64, rate float64, n int) *signal.Waveform {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if s == nil {
		s = &ReflectScratch{}
	}
	// Thermal slowing of the wave stretches all arrival times on top of
	// any mechanical strain.
	stretch *= 1 + l.cfg.ThermalStretchPerC*deltaT
	z, term := l.effectiveProfileInto(s.z[:0], deltaT)
	s.z = z
	segDt := 2 * l.cfg.SegmentLength / l.cfg.Velocity // round trip per segment
	alpha := l.cfg.lossNepers()

	type event = reflectEvent
	events := s.events[:0]
	if cap(events) < len(z)+2 {
		events = make([]event, 0, len(z)+2)
	}
	// Launch interface (source impedance to first segment) is excluded: the
	// iTDR couples after the driver, so this static offset carries no IIP
	// information and is removed during calibration anyway.
	att := s.att.of(l.cfg, len(z))
	for i := 0; i < len(z)-1; i++ {
		g := (z[i+1] - z[i]) / (z[i+1] + z[i])
		if g == 0 {
			continue
		}
		events = append(events, event{t: float64(i+1) * segDt, a: g * att[i]})
	}
	// Termination reflection.
	zLast := z[len(z)-1]
	gTerm := (term - zLast) / (term + zLast)
	attTerm := math.Exp(-2 * alpha * l.cfg.Length)
	tTerm := l.RoundTripTime()
	events = append(events, event{t: tTerm, a: gTerm * attTerm})
	if p.SecondOrder {
		// Echo: wave reflects off termination, travels back, re-reflects
		// off the source impedance, and bounces off the termination again.
		gSrc := (l.cfg.SourceZ - z[0]) / (l.cfg.SourceZ + z[0])
		echo := gTerm * gSrc * gTerm * math.Exp(-4*alpha*l.cfg.Length)
		events = append(events, event{t: 2 * tTerm, a: echo})
	}
	s.events = events

	s.out = signal.Reuse(s.out, rate, n)
	out := s.out
	sigma := p.sigma()
	bank := s.bank
	if bank == nil || bank.rate != rate || bank.sigma != sigma {
		bank = bankFor(rate, sigma)
		s.bank = bank
	}
	// Each reflection is the incident erf edge delayed to the event time,
	// evaluated only within its window (addWindow) and held at 0 or full
	// step outside.
	window := bank.window

	// Post-window samples see the full step of every earlier event, so the
	// naive superposition re-adds each event's amplitude over an O(n) tail —
	// ~100k additions per synthesis at the default geometry. Events are
	// emitted in arrival order, which makes the window-end indexes
	// monotonically non-decreasing; when they are, each sample's tail sum is
	// a prefix sum over the event amplitudes and can be written once by
	// assignment into the zeroed buffer. The running prefix uses the same
	// left-to-right fold the tail loops performed, so results stay
	// bit-identical (see TestReflectIntoMatchesReference).
	if cap(s.hi) < len(events) {
		s.hi = make([]int, len(events))
	}
	his := s.hi[:len(events)]
	mono := len(events) > 0
	prev := 0
	for e, ev := range events {
		hi := int((ev.t*stretch+window)*rate) + 1
		if hi > n {
			hi = n
		}
		his[e] = hi
		if hi < prev {
			mono = false
		}
		prev = hi
	}
	if mono && his[0] >= 0 {
		// Pass 1: fill each region [hi_e, hi_{e+1}) with the prefix sum of
		// amplitudes through event e. Assignment, not accumulation — the
		// buffer was zeroed by Reuse and the regions partition [hi_0, n).
		acc := 0.0
		for e, ev := range events {
			acc += p.Amplitude * ev.a
			end := n
			if e+1 < len(events) {
				end = his[e+1]
			}
			for i := his[e]; i < end; i++ {
				out.Samples[i] = acc
			}
		}
		// Pass 2: the windowed erf transitions, added in event order on top
		// of the prefix fill — the same order the combined loop used, since
		// for any sample every tail contribution comes from an earlier event
		// than every window contribution.
		for _, ev := range events {
			bank.addWindow(out.Samples, ev.t*stretch, p.Amplitude*ev.a)
		}
		return out
	}

	// Fallback for non-monotone arrival times (negative stretch or a
	// pathological profile): the original combined superposition.
	for _, ev := range events {
		amp := p.Amplitude * ev.a
		hiIdx := bank.addWindow(out.Samples, ev.t*stretch, amp)
		// Samples after the window see the full step.
		for i := hiIdx; i < n; i++ {
			out.Samples[i] += amp
		}
	}
	return out
}

// TotalReflectionEnergyBound returns the sum of absolute reflection
// coefficients — an upper bound on the reflected amplitude relative to the
// incident edge, used to check passivity.
func (l *Line) TotalReflectionEnergyBound() float64 {
	z, term := l.effectiveProfile(0)
	var s float64
	for i := 0; i < len(z)-1; i++ {
		s += math.Abs((z[i+1] - z[i]) / (z[i+1] + z[i]))
	}
	zLast := z[len(z)-1]
	s += math.Abs((term - zLast) / (term + zLast))
	return s
}
