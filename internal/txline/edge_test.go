package txline

import (
	"math"
	"testing"
)

// edgeAt evaluates the tabulated edge at one point.
func edgeAt(x float64) float64 {
	var v [1]float64
	addEdge(v[:], 1, x, 0)
	return v[0]
}

// TestEdgeTableMatchesErf checks the tabulated edge against 1+erf(x) on a
// grid far denser than the table's, across both table ends and into the
// math.Erf fallback beyond them.
func TestEdgeTableMatchesErf(t *testing.T) {
	const lim = edgeTableMax + 2
	worst, at := 0.0, 0.0
	for j := -lim * 8192; j <= lim*8192; j++ {
		x := float64(j) / 8192
		if d := math.Abs(edgeAt(x) - (1 + math.Erf(x))); d > worst {
			worst, at = d, x
		}
	}
	for _, x := range []float64{
		-edgeTableMax, math.Nextafter(-edgeTableMax, 0), math.Nextafter(-edgeTableMax, -lim),
		edgeTableMax, math.Nextafter(edgeTableMax, 0), math.Nextafter(edgeTableMax, lim),
		0, -20, 20,
	} {
		if d := math.Abs(edgeAt(x) - (1 + math.Erf(x))); d > worst {
			worst, at = d, x
		}
	}
	if worst > 1e-12 {
		t.Fatalf("tabulated edge off by %g at x=%v, want ≤ 1e-12", worst, at)
	}
	t.Logf("worst |edge-(1+erf)| = %.3g at x=%v", worst, at)
}
