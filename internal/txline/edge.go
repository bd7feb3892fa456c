package txline

import (
	"fmt"
	"math"
	"sync"
)

// The probe's launched edge is a Gaussian-filtered step, so every reflection
// is the edge 0.5·(1+erf(t/(σ√2))) scaled and delayed. In x = t/(σ√2) the
// output samples of one reflection sit dx = 1/(rate·σ·√2) apart, and dx is
// the same for every event of every capture taken with one probe at one
// rate. What differs between events is only the sub-sample phase of the
// window's first sample.
//
// An edgeBank exploits that: it is a polyphase table of 1+erf for one
// (rate, σ). Row k holds the window's samples at x = x0 + k/edgeRes + j·dx
// for j = 0…width-1, each as the value and the analytic slope
// (2/√π)·e^{-x²} premultiplied by the row step 1/edgeRes. An event whose
// first sample sits at phase k+u between rows k and k+1 reads those two
// contiguous rows; the cubic Hermite weights depend only on u, so they are
// computed once per event, and each output sample costs four multiply-adds.
// The interpolant is within 2e-13 of 1+erf everywhere (the fourth-derivative
// error bound h⁴/384·max|f⁗| is 1.3e-13; the rest is rounding).
const edgeRes = 512

// edgeWindow is the half-width, in σ, of the span over which a reflection's
// edge is evaluated; outside it the edge is held at 0 or its full step.
// That is exact to 3e-7 and ~50x cheaper than evaluating the edge at every
// sample.
const edgeWindow = 5

// maxBankStep caps dx, the sample step in units of σ√2: a 10-90 % rise
// shorter than ~1/35 of a sample period cannot be resolved by the sampling
// at all, and its bank (edgeRes·dx rows) would grow without bound.
const maxBankStep = 64

// edgeNode is one bank entry: v = 1+erf(x), m = d/dx(1+erf(x))/edgeRes.
type edgeNode struct{ v, m float64 }

// edgeBank is the immutable polyphase edge table for one (rate, σ).
type edgeBank struct {
	rate, sigma float64
	window      float64 // edgeWindow·σ, in seconds
	invS        float64 // 1/(σ√2): seconds to x
	x0          float64 // x of row 0's first sample
	width       int     // entries per row
	rows        int
	nodes       []edgeNode // rows × width, row-major
}

// newEdgeBank builds the bank for one (rate, σ). A window's first sample
// lies in (-xw-dx, -xw] with xw = edgeWindow/√2, so row 0 starts at
// x0 = -xw-dx and ⌊edgeRes·dx⌋+2 rows span every phase. A window holds at
// most 2·xw/dx+3 samples (the last one a sample past xw when truncation
// rounds a negative window end up), so rows are that wide plus one for
// rounding.
func newEdgeBank(rate, sigma float64) *edgeBank {
	dx := 1 / (rate * sigma * math.Sqrt2)
	xw := edgeWindow / math.Sqrt2
	b := &edgeBank{
		rate:   rate,
		sigma:  sigma,
		window: edgeWindow * sigma,
		invS:   1 / (sigma * math.Sqrt2),
		x0:     -xw - dx,
		width:  int(2*xw/dx) + 4,
		rows:   int(edgeRes*dx) + 2,
	}
	b.nodes = make([]edgeNode, b.rows*b.width)
	for k := 0; k < b.rows; k++ {
		row := b.nodes[k*b.width : (k+1)*b.width]
		for j := range row {
			x := b.x0 + float64(k)/edgeRes + float64(j)*dx
			row[j] = edgeNode{
				v: 1 + math.Erf(x),
				m: 2 / math.SqrtPi * math.Exp(-x*x) / edgeRes,
			}
		}
	}
	return b
}

// bankKey identifies one bank.
type bankKey struct{ rate, sigma float64 }

// bankCache shares banks process-wide, like the instrument warmups: a fleet
// probed with one probe at one rate builds one bank (~63 KB at the default
// 120 ps edge and 89.6 GHz ETS rate). Growth is bounded by the distinct
// (rate, rise time) pairs the process synthesizes.
var bankCache sync.Map // bankKey → *bankEntry

type bankEntry struct {
	once sync.Once
	b    *edgeBank
}

// bankFor returns the shared bank for (rate, σ), building it at most once.
// It panics when the rate and σ are not positive and finite, or when the
// edge is too short to sample (dx > maxBankStep).
func bankFor(rate, sigma float64) *edgeBank {
	if dx := 1 / (rate * sigma * math.Sqrt2); !(dx > 0 && dx <= maxBankStep) {
		panic(fmt.Sprintf("txline: cannot sample an edge of σ = %g s at %g Hz", sigma, rate))
	}
	e, _ := bankCache.LoadOrStore(bankKey{rate, sigma}, &bankEntry{})
	ent := e.(*bankEntry)
	ent.once.Do(func() { ent.b = newEdgeBank(rate, sigma) })
	return ent.b
}

// addWindow adds one reflection's edge transition, arriving at tEv with
// amplitude amp, to the samples of out within ±edgeWindow·σ of tEv, and
// returns the end of that window: samples from there on see the full step.
// Every synthesis path calls it, so they share one edge bit for bit.
func (b *edgeBank) addWindow(out []float64, tEv, amp float64) (hiIdx int) {
	// The unclamped first sample fixes the phase, so it is floored (not
	// truncated) to keep negative times in range.
	lo := int(math.Floor((tEv - b.window) * b.rate))
	hiIdx = int((tEv+b.window)*b.rate) + 1
	if hiIdx > len(out) {
		hiIdx = len(out)
	}
	first := max(lo, 0)
	if first >= hiIdx {
		return hiIdx
	}
	s := ((float64(lo)/b.rate-tEv)*b.invS - b.x0) * edgeRes
	k := min(max(int(s), 0), b.rows-2)
	u := min(max(s-float64(k), 0), 1)
	// Cubic Hermite basis at u, with amp/2 folded in.
	half := 0.5 * amp
	u2 := u * u
	u3 := u2 * u
	w0 := half * (2*u3 - 3*u2 + 1)
	w1 := half * (u3 - 2*u2 + u)
	w2 := half * (3*u2 - 2*u3)
	w3 := half * (u3 - u2)
	dst := out[first:hiIdx]
	ra := b.nodes[k*b.width+first-lo : (k+1)*b.width]
	rb := b.nodes[(k+1)*b.width+first-lo : (k+2)*b.width]
	ra, rb = ra[:len(dst)], rb[:len(dst)]
	for j := range dst {
		dst[j] += w0*ra[j].v + w1*ra[j].m + w2*rb[j].v + w3*rb[j].m
	}
	return hiIdx
}
