package txline

import "math"

// The probe's launched edge is a Gaussian-filtered step, so every reflection
// is the edge 0.5·(1+erf(t/(σ√2))) scaled and delayed. In x = t/(σ√2) that
// shape is the same for every rise time, amplitude, line and instrument, so
// one immutable table of 1+erf(x) serves the whole fleet.
//
// The table samples x on a uniform grid of step 1/edgeTableRes over
// |x| ≤ edgeTableMax and stores, at each node, the value and the analytic
// slope (2/√π)·e^{-x²} premultiplied by the step. A cubic Hermite
// interpolant through both is within 2e-13 of 1+erf(x) everywhere inside
// the grid (the fourth-derivative error bound h⁴/384·max|f⁗| is 1.3e-13;
// the rest is rounding). Outside it — only reached by window samples of
// very short rise times — addEdge evaluates math.Erf directly.
const (
	edgeTableMax = 4
	edgeTableRes = 512
	edgeTableN   = 2 * edgeTableMax * edgeTableRes // intervals
)

// edgeNode is one grid node: v = 1+erf(x), m = h·d/dx(1+erf(x)).
type edgeNode struct{ v, m float64 }

var edgeTable = buildEdgeTable()

func buildEdgeTable() *[edgeTableN + 1]edgeNode {
	var tab [edgeTableN + 1]edgeNode
	const h = 1.0 / edgeTableRes
	for k := range tab {
		x := float64(k)*h - edgeTableMax
		tab[k] = edgeNode{
			v: 1 + math.Erf(x),
			m: h * 2 / math.SqrtPi * math.Exp(-x*x),
		}
	}
	return &tab
}

// addEdge adds half·(1+erf(x0+j·dx)) to dst[j] for every j: one
// reflection's windowed transition, with x0 the window's first sample and dx
// the sample step, both in units of σ√2. Inside the grid the edge is the
// cubic Hermite interpolant of edgeTable in Horner form; outside it,
// math.Erf. Every synthesis path calls it, so they share one edge bit for
// bit.
func addEdge(dst []float64, half, x0, dx float64) {
	s0 := (x0 + edgeTableMax) * edgeTableRes
	ds := dx * edgeTableRes
	for j := range dst {
		s := s0 + float64(j)*ds
		var e float64
		if s >= 0 && s < edgeTableN {
			k := int(s)
			u := s - float64(k)
			a, b := edgeTable[k], edgeTable[k+1]
			d := b.v - a.v
			c2 := 3*d - 2*a.m - b.m
			c3 := a.m + b.m - 2*d
			e = a.v + u*(a.m+u*(c2+u*c3))
		} else {
			e = 1 + math.Erf(x0+float64(j)*dx)
		}
		dst[j] += half * e
	}
}
