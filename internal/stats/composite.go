package stats

import (
	"fmt"
	"math"
	"sort"
)

// satWindowSigmas is how many sigmas away a mixture component must be before
// its CDF term is treated as exactly 0 or 1. At 8.5σ the true tail mass is
// ~1e-17 — below one ulp of a 25-term sum — so the windowing is lossless at
// float64 precision while skipping most erfc evaluations.
const satWindowSigmas = 8.5

// CompositeCDF is the cumulative distribution of an equal-weight mixture of
// Gaussians N(center_i, sigma) — the composite analog-to-probability transfer
// the PDM comparator front end realizes (Eq. 1 generalized to the Vernier
// reference set of Fig. 4). It precomputes everything that the naive
// per-call formulation rebuilt on every evaluation: the centers are sorted
// once so saturated terms are counted (not integrated), and the 1/(σ√2)
// factor is hoisted.
//
// The value is immutable after construction and safe for concurrent use.
type CompositeCDF struct {
	sigma      float64
	invSigmaS2 float64   // 1/(sigma*sqrt2), hoisted out of the erfc argument
	centers    []float64 // sorted ascending; private copy
}

// NewCompositeCDF builds the mixture CDF. It panics on a non-positive sigma
// or an empty center set, mirroring NewGaussian: every caller constructs
// mixtures from static instrument configuration.
func NewCompositeCDF(sigma float64, centers []float64) *CompositeCDF {
	if sigma <= 0 {
		panic(fmt.Sprintf("stats: non-positive mixture sigma %v", sigma))
	}
	if len(centers) == 0 {
		panic("stats: mixture needs at least one center")
	}
	cs := append([]float64(nil), centers...)
	sort.Float64s(cs)
	return &CompositeCDF{
		sigma:      sigma,
		invSigmaS2: 1 / (sigma * math.Sqrt2),
		centers:    cs,
	}
}

// Sigma returns the component standard deviation.
func (c *CompositeCDF) Sigma() float64 { return c.sigma }

// Len returns the number of mixture components.
func (c *CompositeCDF) Len() int { return len(c.centers) }

// Fingerprint hashes the mixture's defining parameters (sigma and the sorted
// centers) into a cache key — FNV-1a over the IEEE-754 bit patterns. Two
// mixtures with equal fingerprints almost certainly tabulate identical
// inverse tables; callers that share tables across instruments confirm with
// Equal before trusting a hit.
func (c *CompositeCDF) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v float64) {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(bits>>(8*i)))) * prime64
		}
	}
	mix(c.sigma)
	for _, t := range c.centers {
		mix(t)
	}
	return h
}

// Equal reports whether two mixtures have bitwise-equal parameters — and
// therefore bitwise-equal CDFs, inversions, and tabulations.
func (c *CompositeCDF) Equal(o *CompositeCDF) bool {
	if c.sigma != o.sigma || len(c.centers) != len(o.centers) {
		return false
	}
	for i, t := range c.centers {
		if t != o.centers[i] {
			return false
		}
	}
	return true
}

// Bracket returns the voltage interval [lo, hi] outside which the CDF is
// saturated to (numerically) 0 or 1: the center span widened by pad sigmas.
func (c *CompositeCDF) Bracket(pad float64) (lo, hi float64) {
	return c.centers[0] - pad*c.sigma, c.centers[len(c.centers)-1] + pad*c.sigma
}

// Eval returns the mixture CDF at x. Components further than the saturation
// window contribute their exact limit (0 or 1) without an erfc call; for the
// default iTDR configuration roughly half the Vernier levels saturate at any
// x, halving the transcendental work of each evaluation.
func (c *CompositeCDF) Eval(x float64) float64 {
	w := satWindowSigmas * c.sigma
	// centers[:lo] are all <= x-w: fully transitioned, each contributes 1.
	lo := sort.SearchFloat64s(c.centers, x-w)
	// centers[hi:] are all >= x+w: each contributes 0.
	hi := lo + sort.SearchFloat64s(c.centers[lo:], x+w)
	sum := float64(lo)
	for _, t := range c.centers[lo:hi] {
		sum += 0.5 * math.Erfc((t-x)*c.invSigmaS2)
	}
	return sum / float64(len(c.centers))
}

// Invert returns the x with Eval(x) = p, bisected to sub-noise precision
// over the saturated bracket. p must lie in (0, 1); callers clamp measured
// fractions away from the limits first (see itdr.APC.EstimateVoltage). 36
// halvings of a ~20 mV bracket reach sub-picovolt precision, far below the
// comparator noise.
func (c *CompositeCDF) Invert(p float64) float64 {
	lo, hi := c.Bracket(6)
	for i := 0; i < 36; i++ {
		mid := (lo + hi) / 2
		if c.Eval(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// InverseTable tabulates a monotone CDF on a uniform grid so that inversion
// becomes a binary search plus linear interpolation — no transcendental math
// at all. Built once per reference-level set and reused across measurements,
// this is what lets the iTDR's inverse map stop paying for erfc in steady
// state. Immutable after construction; safe for concurrent use.
type InverseTable struct {
	lo, step float64
	p        []float64 // p[k] = CDF(lo + k*step), nondecreasing
}

// InverseTable samples the mixture CDF at n+1 grid points across the
// saturated bracket. n must be at least 2. For the default iTDR front end
// (σ = 0.4 mV over a ~12 mV bracket), n = 256 keeps the interpolation error
// below a few microvolts — three orders of magnitude under the per-bin
// counting noise.
func (c *CompositeCDF) InverseTable(n int) *InverseTable {
	if n < 2 {
		panic(fmt.Sprintf("stats: inverse table needs >= 2 intervals, got %d", n))
	}
	lo, hi := c.Bracket(6)
	step := (hi - lo) / float64(n)
	p := make([]float64, n+1)
	for k := range p {
		p[k] = c.Eval(lo + float64(k)*step)
	}
	return &InverseTable{lo: lo, step: step, p: p}
}

// Invert returns the x with CDF(x) ~= p, clamped to the tabulated bracket.
func (t *InverseTable) Invert(p float64) float64 {
	k := sort.SearchFloat64s(t.p, p)
	switch {
	case k == 0:
		return t.lo
	case k == len(t.p):
		return t.lo + float64(len(t.p)-1)*t.step
	}
	dp := t.p[k] - t.p[k-1]
	frac := 1.0
	if dp > 0 {
		frac = (p - t.p[k-1]) / dp
	}
	return t.lo + (float64(k-1)+frac)*t.step
}
