package itdr

import (
	"fmt"
	"math"

	"divot/internal/analog"
	"divot/internal/pool"
	"divot/internal/rng"
	"divot/internal/signal"
	"divot/internal/telemetry"
	"divot/internal/txline"
)

// Measurement is the result of one full IIP acquisition.
type Measurement struct {
	// IIP is the reconstructed back-reflection waveform at the line input,
	// sampled at the ETS-equivalent rate (one sample per phase bin). The
	// coupler factor has been divided out, so values are line-referred
	// volts.
	IIP *signal.Waveform
	// Trials is the total number of comparator decisions taken.
	Trials int
	// CyclesUsed is the number of sample-clock cycles consumed, including
	// data cycles that offered no usable launch edge.
	CyclesUsed int
	// Duration is CyclesUsed divided by the sample clock — the wall-clock
	// measurement time.
	Duration float64
	// Saturated flags, per ETS bin, a ones-count pegged at either rail
	// (0 or TrialsPerBin). A pegged count carries no analog information —
	// the inverse map clamps it to the edge of the reference sweep — so a
	// bin that saturates persistently is dead or stuck, and the protocol
	// layer uses this to mask degraded bins out of matching.
	Saturated []bool
}

// Reflectometer is one iTDR instance attached to a line. It owns the
// comparator (whose noise stream is part of the instrument's identity) and
// the PDM modulator, which in a real chip is shared among all iTDRs.
type Reflectometer struct {
	cfg   Config
	comp  *analog.Comparator
	mod   analog.Modulator
	apc   APC
	probe txline.Probe
	envRN *rng.Stream
	seq   uint64 // measurement counter, for per-measurement sub-streams
	inj   Injector

	// sink, when non-nil, receives one telemetry event per completed
	// measurement; link/side label the instrument in those events. See
	// SetSink.
	sink       telemetry.Sink
	link, side string

	// fwd caches the forward incident edge fed to the coupler's directivity
	// term: it depends only on static configuration (rate, bins, probe), so
	// it is synthesized once and reused by every measurement.
	fwd *signal.Waveform

	// binInv caches one inverse APC map per ETS phase bin across
	// measurements. Clock-triggered probing revisits each bin with the same
	// Vernier reference sequence every measurement, so from the second
	// measurement on the bin's inverter is promoted to a tabulated CDF and
	// reconstruction stops paying for erfc entirely. Each slot is touched by
	// exactly one worker per measurement (bins are the unit of fan-out), and
	// measurements are separated by the pool's join, so no locking is
	// needed.
	binInv []*Inverter
	// binInvStore backs binInv with a single flat allocation so building the
	// per-bin cache costs one slice instead of one heap Inverter per bin.
	binInvStore []Inverter

	// wu, when non-nil, is the fleet-shared warm-up for this (Config, Probe)
	// pair: forward edge, per-bin reference schedules, and per-bin inverse-map
	// cores (see warmup). Only clock-triggered instruments using the config's
	// own modulator have one — exactly the case where the acquisition schedule
	// is a pure function of configuration.
	wu *warmup
}

// New builds a reflectometer. The stream seeds both the comparator noise and
// per-measurement environment sampling; modulator may be nil to use the
// config's RC quasi-triangle. The config and the probe must both validate.
func New(cfg Config, probe txline.Probe, mod analog.Modulator, stream *rng.Stream) (*Reflectometer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	// A non-coprime modulation ratio is permitted — the Vernier sweep
	// degrades and the dynamic range collapses, which the coprime ablation
	// demonstrates — so it is not a validation error.
	var wu *warmup
	if mod == nil {
		mod = analog.NewTriangleModulator(cfg.ModFrequency(), cfg.ModAmplitude, cfg.ModTauRatio)
		// The config's own modulator plus clock triggering makes the whole
		// acquisition schedule a pure function of (cfg, probe); share it.
		wu = warmupFor(cfg, probe)
	}
	r := &Reflectometer{
		cfg:   cfg,
		comp:  analog.NewComparator(cfg.ComparatorNoise, cfg.ComparatorOffset, stream.Child("comparator")),
		mod:   mod,
		apc:   NewAPC(cfg.ComparatorNoise, cfg.ComparatorOffset),
		probe: probe,
		envRN: stream.Child("environment"),
		wu:    wu,
	}
	if wu != nil {
		r.fwd = wu.fwd
	}
	return r, nil
}

// MustNew is New but panics on configuration errors; for tests and examples
// with static configuration.
func MustNew(cfg Config, probe txline.Probe, mod analog.Modulator, stream *rng.Stream) *Reflectometer {
	r, err := New(cfg, probe, mod, stream)
	if err != nil {
		panic(fmt.Sprintf("itdr: %v", err))
	}
	return r
}

// Config returns the instrument configuration.
func (r *Reflectometer) Config() Config { return r.cfg }

// InjectOffsetDrift adds v volts of *uncalibrated* comparator offset — aging
// or supply drift that happened after factory calibration, which the APC's
// inverse map does not know about. Reconstruction then carries a systematic
// bias; the offset-drift ablation quantifies how much drift the
// authentication margin tolerates before recalibration is due.
func (r *Reflectometer) InjectOffsetDrift(v float64) {
	r.comp.Offset += v
}

// Probe returns the probing-edge description.
func (r *Reflectometer) Probe() txline.Probe { return r.probe }

// Measure acquires one full IIP of the line under the given environment.
// The environment condition (temperature, strain, EMI phase) is sampled once
// per measurement; comparator noise is drawn per trial. The returned
// Measurement owns its memory (it is detached from the pooled arena backing
// the acquisition), so callers may retain it across further measurements —
// calibration averaging depends on that.
func (r *Reflectometer) Measure(line *txline.Line, env txline.Environment) Measurement {
	a := arenaPool.Get().(*Arena)
	m := r.MeasureInto(a, line, env)
	m.IIP = m.IIP.Clone()
	m.Saturated = append([]bool(nil), m.Saturated...)
	arenaPool.Put(a)
	return m
}

// MeasureInto is Measure running entirely inside the caller's arena: the
// returned Measurement's IIP and Saturated alias the arena's buffers and are
// valid until the next MeasureInto on the same arena. In steady state (warm
// arena, warm per-bin inverter cache, Parallelism 1) a measurement allocates
// nothing; results are bit-identical to Measure at any parallelism.
func (r *Reflectometer) MeasureInto(a *Arena, line *txline.Line, env txline.Environment) Measurement {
	cond := env.Sample(r.envRN)
	return r.measureUnder(a, line, cond)
}

// measureUnder runs the acquisition for a fixed environmental condition.
//
// Acquisition is organized around the fact that ETS phase bins are
// embarrassingly parallel: every bin owns its trigger search, its trial
// loop, and its inverse-map evaluation, and nothing a bin computes feeds any
// other bin. Each bin therefore derives all of its randomness (trigger
// pattern, EMI phase, PLL jitter, comparator noise) from its own labelled
// child of the per-measurement stream and writes only to its own output
// slot, so fanning bins across cfg.EffectiveParallelism() workers yields
// bit-identical IIPs at any worker count — Parallelism=1 runs the same
// per-bin code inline.
func (r *Reflectometer) measureUnder(a *Arena, line *txline.Line, cond txline.Condition) Measurement {
	r.seq++
	return r.measureAt(a, line, cond, r.seq, false)
}

// measureAt is measureUnder for an explicit sequence number. shared marks a
// measurement running concurrently with others on the same instrument (the
// MeasureSeries fan-out): it must treat all instrument state — fwd, binInv,
// the warmup — as frozen, reading but never writing it. The series
// leader guarantees that state is fully built and promoted first, and the
// eligibility gate (clock trigger, no injector) guarantees a shared
// measurement never needs to mutate it.
func (r *Reflectometer) measureAt(a *Arena, line *txline.Line, cond txline.Condition, seq uint64, shared bool) Measurement {
	cfg := r.cfg
	bins := cfg.Bins()
	rate := cfg.EquivalentRate()

	// Consult the fault injector first: environmental glitches must land
	// before the line response is synthesized. Incrementing seq in the
	// caller (rather than just before the per-measurement stream derivation
	// below) changes nothing on the healthy path — no randomness is drawn in
	// between.
	var mf MeasurementFault
	faulted := false
	if r.inj != nil {
		mf, faulted = r.inj.BeginMeasurement(seq)
	}
	if faulted && mf.Condition != nil {
		ct := mf.Condition(ConditionTransform{DeltaT: cond.DeltaT, EMIAmplitude: cond.EMIAmplitude})
		cond.DeltaT = ct.DeltaT
		cond.EMIAmplitude = ct.EMIAmplitude
	}

	workers := cfg.EffectiveParallelism()
	if workers > bins {
		workers = bins
	}
	a.prepare(rate, bins, workers, cfg.TrialsPerBin)

	// Physical truth: the back-reflection waveform for this condition, and
	// the incident edge that leaks through the coupler's finite directivity.
	// The forward edge depends only on static configuration, so it is
	// synthesized once per instrument and reused.
	backward := line.ReflectInto(&a.reflect, r.probe, cond.DeltaT, cond.Stretch, rate, bins)
	if r.fwd == nil || r.fwd.Rate != rate || r.fwd.Len() != bins {
		r.fwd = signal.StepEdge(rate, bins, 0, r.probe.RiseTime, r.probe.Amplitude)
	}
	a.seen = cfg.Coupler.OutputInto(a.seen, backward, r.fwd)
	// Directional couplers are inherently AC-coupled: the DC level of the
	// reflected waveform (set by the line's average impedance offset from
	// nominal) never reaches the detector. Removing it keeps the waveform
	// centered in the APC's dynamic range regardless of which line is
	// attached — without this, lines with a large average offset would
	// saturate the comparator range. (In place: the coupler output above is
	// a buffer this measurement owns.)
	seen := signal.RemoveMeanInPlace(a.seen)

	// Fresh randomness for each measurement: the trigger pattern depends
	// on the live traffic and the EMI aggressor drifts in phase, so
	// neither may repeat identically between measurements. (Deriving the
	// child reads only the parent's seed, so concurrent shared measurements
	// never contend on envRN.)
	a.mStream.ReseedChildN(r.envRN, "measurement", seq)
	if !shared && len(r.binInv) != bins {
		r.binInv = make([]*Inverter, bins)
		r.binInvStore = make([]Inverter, bins)
	}

	// Jitter faults add in quadrature to the PLL's own phase noise.
	jitterRMS := cfg.PhaseJitterRMS
	if faulted && mf.ExtraJitterRMS > 0 {
		jitterRMS = math.Sqrt(jitterRMS*jitterRMS + mf.ExtraJitterRMS*mf.ExtraJitterRMS)
	}

	// Deterministic per-bin cycle base: bin m behaves as if it were acquired
	// after the m bins before it, preserving the sequential path's Vernier
	// phase rotation from bin to bin (without it, every bin would sweep the
	// reference levels from the same phase and the quantization residual
	// would correlate across the whole IIP). For data-triggered modes the
	// base uses the expected stride 1/density.
	binStride := cfg.TrialsPerBin
	if cfg.Trigger != TriggerClock {
		binStride = int(float64(cfg.TrialsPerBin) / cfg.TriggerDensity)
	}

	a.ctx = binCtx{
		cond:        cond,
		seen:        seen,
		mf:          mf,
		faulted:     faulted,
		distorted:   faulted && mf.distortsTrials(),
		jitterRMS:   jitterRMS,
		clockPeriod: 1 / cfg.SampleClockHz,
		binStride:   binStride,
		out:         a.out,
		binCycles:   a.binCycles,
		saturated:   a.saturated,
		scratch:     a.scratch,
		binRN:       a.binRN,
		mStream:     a.mStream,
		wu:          r.wu,
		shared:      shared,
	}
	ctx := &a.ctx
	if workers <= 1 {
		// Inline fast path: no closure, no goroutines — the steady-state
		// Parallelism=1 monitoring loop allocates nothing here.
		for m := 0; m < bins; m++ {
			r.measureBin(ctx, 0, m)
		}
	} else {
		pool.Run(bins, workers, func(worker, m int) { r.measureBin(ctx, worker, m) })
	}

	cycles := 0
	for _, c := range a.binCycles {
		cycles += c
	}
	if !shared {
		r.emitMeasurement(seq, a.saturated)
	}
	return Measurement{
		IIP:        a.out,
		Trials:     bins * cfg.TrialsPerBin,
		CyclesUsed: cycles,
		Duration:   float64(cycles) / cfg.SampleClockHz,
		Saturated:  a.saturated,
	}
}

// binCtx is the read-mostly state shared by every bin of one measurement;
// it lives inside the arena so assembling it per measurement costs nothing.
// Workers touch only their own scratch/binRN slot and their bins' output
// slots.
type binCtx struct {
	cond        txline.Condition
	seen        *signal.Waveform
	mf          MeasurementFault
	faulted     bool
	distorted   bool
	jitterRMS   float64
	clockPeriod float64
	binStride   int
	out         *signal.Waveform
	binCycles   []int
	saturated   []bool
	scratch     [][]float64
	binRN       []*rng.Stream
	mStream     *rng.Stream
	wu          *warmup
	shared      bool
}

// emitMeasurement publishes the per-measurement telemetry event. The series
// fan-out calls it from the ordered hand-off so events keep their exact
// sequential order.
func (r *Reflectometer) emitMeasurement(seq uint64, saturated []bool) {
	if r.sink == nil {
		return
	}
	sat := 0
	for _, s := range saturated {
		if s {
			sat++
		}
	}
	r.sink.Emit(telemetry.Event{
		Kind: telemetry.EventMeasurement,
		Link: r.link, Side: r.side,
		Round: seq, SatBins: sat,
	})
}

// measureBin acquires one ETS phase bin: trigger search, trial loop, and
// inverse-map evaluation. All randomness derives from the bin index, never
// from which worker runs the bin or in what order — the determinism contract
// behind bit-identical IIPs at any parallelism.
func (r *Reflectometer) measureBin(c *binCtx, worker, m int) {
	cfg := r.cfg
	bs := c.binRN[worker]
	bs.ReseedChildN(c.mStream, "bin", uint64(m))
	// With a shared warmup the bin's reference schedule was precomputed once
	// for the whole fleet: read it instead of re-evaluating the modulator per
	// trial. wuRefs is immutable — the trial loop must not write it.
	refs := c.scratch[worker]
	var wuRefs []float64
	if c.wu != nil {
		wuRefs = c.wu.refs[m]
		refs = wuRefs
	}
	tBin := float64(m) * cfg.PhaseStepSec
	xtalk := c.cond.CrosstalkAt(tBin)
	var bf BinFault
	if c.faulted && c.mf.Bin != nil {
		bf = c.mf.Bin(m)
	}

	// Everything the trial loop branches on is fixed for the bin, so it is
	// resolved here once; the loop body is then a jitter draw, the
	// interpolation of seen, a noise draw and one compare. Each path's draw
	// sequence and float expression order is pinned bit for bit by
	// TestGoldenIIPDigests.
	//
	// Trigger search: clock triggering advances one cycle per trial. Data
	// triggering draws cycles until one carries a usable launch edge; under
	// TriggerNone the edge direction is uncontrolled too — half the launches
	// fall, and a falling edge's reflection is the rising one's negative.
	advance, search, flip, fire := 0, false, false, 0.0
	switch cfg.Trigger {
	case TriggerClock:
		advance = 1
	case TriggerFIFO:
		search, fire = true, cfg.TriggerDensity
	case TriggerNone:
		search, flip, fire = true, true, 2*cfg.TriggerDensity
	}
	// A PLL phase-step fault shifts every sampling instant of the bin.
	tNominal := tBin
	if c.faulted {
		tNominal += c.mf.PhaseOffset
	}
	// Comparator: a dead acquisition slice never fires and a stuck output
	// sits at its rail, neither drawing noise — in hardware the counter
	// simply sees no pulses, or only pulses. Otherwise each trial is one
	// noisy compare; the healthy comparator is the distorted one with no
	// extra offset and unit noise scale, bitwise the same decision.
	decide := !bf.Dead && !(c.faulted && c.mf.Stuck != StuckNone)
	railHigh := !bf.Dead && c.faulted && c.mf.Stuck == StuckHigh
	extraOffset, noiseScale := 0.0, 1.0
	if c.distorted {
		extraOffset, noiseScale = c.mf.ExtraOffset, c.mf.noiseScale()
	}
	emiAmp := c.cond.EMIAmplitude
	jitterRMS := c.jitterRMS

	ones := 0
	cycleBase := m * c.binStride
	cycle := 0
	for j := 0; j < cfg.TrialsPerBin; j++ {
		// Advance to the bin's next cycle carrying a usable launch edge.
		cycle += advance
		polarity := 1.0
		if search {
			for {
				cycle++
				if bs.Bool(fire) {
					break
				}
			}
			if flip && bs.Bool(0.5) {
				polarity = -1
			}
		}
		var ref float64
		if wuRefs != nil {
			ref = wuRefs[j]
		} else {
			tAbs := float64(cycleBase+cycle)*c.clockPeriod + tBin
			ref = r.mod.Level(tAbs)
			refs[j] = ref
		}
		// The EMI aggressor is asynchronous to the sampling clock: its
		// frequency offset and jitter decorrelate the phase between
		// successive visits to the same bin, so each trial sees an
		// independent phase — the premise of the paper's synchronized-
		// averaging argument (§IV-C). A phase-locked aggressor would
		// not average out; that adversarial case is out of scope here.
		var emi float64
		if emiAmp != 0 {
			emi = emiAmp * math.Sin(bs.Uniform(0, 2*math.Pi))
		}
		// The PLL's phase-shifted clock jitters around the nominal
		// bin position, so each trial samples the waveform slightly
		// off-bin — a timing-noise contribution that scales with the
		// local slew rate.
		tSample := tNominal
		if jitterRMS > 0 {
			tSample += bs.Gaussian(0, jitterRMS)
		}
		if decide {
			vsig := polarity*c.seen.At(tSample) + emi + xtalk
			if r.comp.SampleDistorted(bs, vsig, ref, extraOffset, noiseScale) {
				ones++
			}
		}
	}
	if railHigh {
		ones = cfg.TrialsPerBin
	}
	if bf.CounterXOR != 0 {
		ones ^= int(bf.CounterXOR)
		if ones > cfg.TrialsPerBin {
			// The physical counter is TrialsPerBin wide; an upset cannot
			// read beyond full scale.
			ones = cfg.TrialsPerBin
		}
	}
	c.saturated[m] = ones == 0 || ones == cfg.TrialsPerBin
	// Per-bin inverse-map cache: reuse the inverter while the bin's
	// reference sequence repeats (always, under TriggerClock) and
	// promote it to a tabulated CDF on the first reuse. Data-triggered
	// modes see fresh cycle offsets each measurement, so they rebuild —
	// still cheaper than before thanks to the sorted, windowed CDF.
	inv := r.binInv[m]
	switch {
	case c.shared:
		// Shared measurements run after the series leader built and promoted
		// every bin's inverter, so the cache is frozen and always hits; the
		// rebuild below is defensive (unreachable under the clock-trigger
		// eligibility gate) and deliberately leaves instrument state alone.
		if inv == nil || !inv.Matches(refs) {
			inv = r.apc.NewInverter(refs)
		}
	case inv == nil || !inv.Matches(refs):
		// Cache miss: rebuild in place into the flat per-bin store — one
		// slice for all bins instead of a heap Inverter per bin, and with a
		// warmup the CDF/refs/memo alias the fleet-shared copies.
		inv = &r.binInvStore[m]
		var wb *warmBin
		if c.wu != nil {
			wb = &c.wu.bins[m]
		}
		r.apc.resetInverter(inv, refs, wb)
		r.binInv[m] = inv
	default:
		inv.Promote()
	}
	// Refer the estimate back to the line by undoing the coupler gain. A
	// promoted inverter reads the estimate by count.
	c.out.Samples[m] = inv.EstimateCount(ones) / cfg.Coupler.Factor
	c.binCycles[m] = cycle
}
