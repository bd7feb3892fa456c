package itdr

import (
	"fmt"
	"math"
	"sync"

	"divot/internal/stats"
)

// APC implements the analog-to-probability conversion math: the forward map
// from signal voltage to ones-probability for a given reference-level set,
// and the inverse map used to reconstruct the voltage from a measured count.
//
// Invariant: NoiseSigma and Offset are fixed at construction and must not be
// mutated afterwards — NewAPC hoists the noise Gaussian into the value so the
// per-call maps stop rebuilding (and revalidating) it, and an Inverter built
// from an APC caches tables derived from both fields. Uncalibrated offset
// drift is modelled at the comparator (Reflectometer.InjectOffsetDrift), not
// here, precisely because the APC's inverse map is not supposed to know
// about it.
type APC struct {
	// NoiseSigma is the comparator's input-referred RMS noise.
	NoiseSigma float64
	// Offset is the comparator's calibrated static offset.
	Offset float64

	// gauss is the hoisted N(0, NoiseSigma) distribution. The zero value
	// (Sigma == 0) marks a literal-constructed APC; gaussian() falls back to
	// building it on the fly so the exported struct stays usable as a plain
	// value.
	gauss stats.Gaussian
}

// NewAPC returns an APC with the noise Gaussian hoisted into the value. All
// hot paths construct APCs through here; the composite-CDF maps below then
// reuse the cached distribution instead of calling stats.NewGaussian per
// evaluation.
func NewAPC(noiseSigma, offset float64) APC {
	return APC{
		NoiseSigma: noiseSigma,
		Offset:     offset,
		gauss:      stats.NewGaussian(0, noiseSigma),
	}
}

// gaussian returns the hoisted noise distribution, tolerating APCs built as
// struct literals (tests, experiment code) by constructing it on demand.
func (a APC) gaussian() stats.Gaussian {
	if a.gauss.Sigma != 0 {
		return a.gauss
	}
	return stats.NewGaussian(0, a.NoiseSigma)
}

// Probability returns p{Y=1} for signal voltage v against the given set of
// reference levels, each visited equally often (Eq. 1 generalized to the PDM
// composite of Fig. 4). With a single reference level this is the plain
// Gaussian CDF of Fig. 2.
func (a APC) Probability(v float64, refs []float64) float64 {
	if len(refs) == 0 {
		panic("itdr: APC needs at least one reference level")
	}
	g := a.gaussian()
	var p float64
	for _, r := range refs {
		p += g.CDF(v + a.Offset - r)
	}
	return p / float64(len(refs))
}

// Sensitivity returns d p{Y=1} / d v at voltage v — the composite PDF, which
// is the APC sensitivity definition of Eq. 3.
func (a APC) Sensitivity(v float64, refs []float64) float64 {
	if len(refs) == 0 {
		panic("itdr: APC needs at least one reference level")
	}
	g := a.gaussian()
	var s float64
	for _, r := range refs {
		s += g.PDF(v + a.Offset - r)
	}
	return s / float64(len(refs))
}

// inverterTableSize is the grid resolution of a promoted inverter. Over the
// default ~12 mV bracket this is a ~46 µV step, whose interpolation error
// (sub-5 µV, see the stats tests) sits three orders of magnitude below the
// per-bin counting noise.
const inverterTableSize = 256

// Inverter is the reusable inverse APC map for one fixed reference-level
// set: measured ones-fraction in, reconstructed voltage out. Constructing an
// Inverter sorts the levels once and hoists every per-call quantity; Promote
// additionally tabulates the composite CDF so steady-state inversion does no
// transcendental math at all. The Reflectometer keeps one Inverter per ETS
// phase bin and promotes it as soon as the bin's reference set proves stable
// across measurements (always, for clock-triggered probing).
//
// An Inverter is immutable after Promote and safe for concurrent use; the
// promotion itself must be single-goroutine (the measurement engine
// guarantees this by owning each bin's slot on exactly one worker).
type Inverter struct {
	cdf *stats.CompositeCDF
	// promoted, nil until Promote, is the fleet-shared tabulation: the
	// inverse table and the estimate of every count. It is one pointer, not
	// a table pointer plus a count slice, because every instrument holds an
	// Inverter per bin: one more slice header per Inverter is ~2 MB of live
	// heap in a 128-bus daemon (343 bins × 256 instruments × 24 B).
	promoted *tableCacheEntry
	refs     []float64 // the (unsorted) reference set this was built for

	// memo, when non-nil, caches un-promoted bisections fleet-wide (set by
	// the warmup-backed reset; see bisectMemo). It never changes a result:
	// Invert is a pure function of (cdf, p).
	memo *bisectMemo
}

// NewInverter builds the inverse map for the given reference levels. The
// slice is copied; callers may reuse their scratch buffer.
func (a APC) NewInverter(refs []float64) *Inverter {
	if len(refs) == 0 {
		panic("itdr: APC needs at least one reference level")
	}
	centers := make([]float64, len(refs))
	for i, r := range refs {
		centers[i] = r - a.Offset
	}
	return &Inverter{
		cdf:  stats.NewCompositeCDF(a.gaussian().Sigma, centers),
		refs: append([]float64(nil), refs...),
	}
}

// resetInverter rebuilds iv in place for the given reference levels,
// avoiding the per-bin heap Inverter of NewInverter. When the instrument has
// a shared warmup, the bin's CDF, reference slice, and bisect memo all alias
// the immutable fleet-wide copies; otherwise the CDF is built fresh and the
// refs are copied out of the caller's scratch, exactly as NewInverter does.
func (a APC) resetInverter(iv *Inverter, refs []float64, wb *warmBin) {
	if len(refs) == 0 {
		panic("itdr: APC needs at least one reference level")
	}
	if wb != nil {
		*iv = Inverter{cdf: wb.cdf, refs: refs, memo: &wb.memo}
		return
	}
	centers := make([]float64, len(refs))
	for i, r := range refs {
		centers[i] = r - a.Offset
	}
	*iv = Inverter{
		cdf:  stats.NewCompositeCDF(a.gaussian().Sigma, centers),
		refs: append([]float64(nil), refs...),
	}
}

// Matches reports whether the inverter was built for exactly this reference
// sequence — the cache-hit test for per-bin reuse across measurements.
func (iv *Inverter) Matches(refs []float64) bool {
	if len(refs) != len(iv.refs) {
		return false
	}
	for i, r := range refs {
		if r != iv.refs[i] {
			return false
		}
	}
	return true
}

// Promoted reports whether the composite CDF has been tabulated.
func (iv *Inverter) Promoted() bool { return iv.promoted != nil }

// Promote tabulates the composite CDF so subsequent Estimate calls invert by
// interpolation instead of bisection, and EstimateCount by one lookup.
// Idempotent. Both tables come from a process-wide cache keyed by the CDF's
// parameters: every instrument of the same configuration probes a given ETS
// bin with the same Vernier reference sequence, so a 1000-link fleet shares
// one ~4 KB table per bin instead of holding a thousand bitwise-identical
// copies.
func (iv *Inverter) Promote() {
	if iv.promoted == nil {
		iv.promoted = sharedInverseTable(iv.cdf)
	}
}

// tableCache shares promoted inverse tables across instruments. Tabulation
// is a pure function of the CDF parameters, so sharing cannot change any
// estimate; a fingerprint collision (different parameters, same key) falls
// back to private tables rather than evicting the first owner. The cache
// grows with the set of distinct instrument configurations seen by the
// process — bounded in practice: at the default geometry an entry is a 2 KB
// inverse table plus 208 B of count estimates, one entry per ETS bin, so a
// homogeneous fleet holds ~71 KB of count estimates in all.
var tableCache sync.Map // uint64 → *tableCacheEntry

// tableKey keys tableCache. Tests replace it to force fingerprint
// collisions.
var tableKey = (*stats.CompositeCDF).Fingerprint

// tableCacheEntry is one CDF's promoted tables. byCount[k] is the estimate
// for k ones out of T trials, T being the CDF's component count: the
// instrument takes one trial per reference level.
type tableCacheEntry struct {
	cdf     *stats.CompositeCDF
	table   *stats.InverseTable
	byCount []float64
}

// newTableCacheEntry tabulates cdf's inverse and the estimate of every count.
func newTableCacheEntry(cdf *stats.CompositeCDF) *tableCacheEntry {
	ent := &tableCacheEntry{cdf: cdf, table: cdf.InverseTable(inverterTableSize)}
	trials := cdf.Len()
	ent.byCount = make([]float64, trials+1)
	for k := range ent.byCount {
		ent.byCount[k] = ent.table.Invert(clampFraction(float64(k)/float64(trials), trials))
	}
	return ent
}

func sharedInverseTable(cdf *stats.CompositeCDF) *tableCacheEntry {
	key := tableKey(cdf)
	if e, ok := tableCache.Load(key); ok {
		if ent := e.(*tableCacheEntry); ent.cdf.Equal(cdf) {
			return ent
		}
		return newTableCacheEntry(cdf)
	}
	fresh := newTableCacheEntry(cdf)
	if e, loaded := tableCache.LoadOrStore(key, fresh); loaded {
		// Another goroutine published first; use its entry when it truly
		// matches (the tables are bitwise-identical either way).
		if ent := e.(*tableCacheEntry); ent.cdf.Equal(cdf) {
			return ent
		}
	}
	return fresh
}

// clampFraction clamps a measured ones-fraction half a count inside (0, 1):
// a count of 0 or trials carries only one-sided information, and the clamp
// keeps the inverse finite.
func clampFraction(onesFraction float64, trials int) float64 {
	eps := 0.5 / float64(trials)
	p := onesFraction
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return p
}

// Estimate inverts the composite CDF: given a measured ones-fraction over
// `trials` trials, it returns the voltage estimate (Eq. 2 generalized),
// clamped to the invertible range spanned by the reference levels plus a few
// noise sigmas.
func (iv *Inverter) Estimate(onesFraction float64, trials int) float64 {
	if trials <= 0 {
		panic(fmt.Sprintf("itdr: non-positive trial count %d", trials))
	}
	p := clampFraction(onesFraction, trials)
	if iv.promoted != nil {
		return iv.promoted.table.Invert(p)
	}
	if iv.memo != nil {
		return iv.memo.invert(iv.cdf, p)
	}
	return iv.cdf.Invert(p)
}

// EstimateCount is Estimate(ones/T, T) for T = len(refs), one trial per
// reference level as the instrument takes them; ones must lie in [0, T].
// Once promoted it is a single lookup, bit-identical to Estimate.
func (iv *Inverter) EstimateCount(ones int) float64 {
	if iv.promoted != nil {
		return iv.promoted.byCount[ones]
	}
	trials := len(iv.refs)
	return iv.Estimate(float64(ones)/float64(trials), trials)
}

// EstimateVoltage is the one-shot form of the inverse map, for callers that
// do not hold a reference set long enough to amortize an Inverter. The
// composite CDF is strictly monotone in v; bisect.
func (a APC) EstimateVoltage(onesFraction float64, trials int, refs []float64) float64 {
	return a.NewInverter(refs).Estimate(onesFraction, trials)
}

// LinearRegion returns the width of the voltage interval around the center
// of the reference span where the APC sensitivity stays within the given
// relative tolerance of its central value — the "linear region" the paper
// uses to compare single-reference APC against PDM (Fig. 4). The interval is
// scanned at the given voltage step.
func (a APC) LinearRegion(refs []float64, tol, step float64) float64 {
	var center float64
	for _, r := range refs {
		center += r
	}
	center /= float64(len(refs))
	s0 := a.Sensitivity(center, refs)
	if s0 == 0 {
		return 0
	}
	within := func(v float64) bool {
		s := a.Sensitivity(v, refs)
		return math.Abs(s-s0) <= tol*s0
	}
	var lo, hi float64
	for v := center; within(v); v -= step {
		lo = v
	}
	for v := center; within(v); v += step {
		hi = v
	}
	return hi - lo
}
