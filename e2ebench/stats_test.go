package main

import "testing"

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 0},
		{19, 0},
		{20, 0.5},
		{199, 0.9},
		{200, 0.95},
		{999, 0.95},
		{1000, 0.99},
		{1999, 0.99},
		{2000, 0.995},
		{10000, 0.999},
		{100000, 0.9999},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p            float64
		value        float64
		samplesAbove int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.value || beyond != c.samplesAbove {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", 100*c.p, v, beyond, c.value, c.samplesAbove)
		}
	}
	if v, beyond := percentile([]float64{3}, 0.99); v != 3 || beyond != 0 {
		t.Errorf("single sample: %g, %d", v, beyond)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %g", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("even median %g", m)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "req", ID: 1, Parent: -1, StartNS: 0, EndNS: 10e6},
		{Name: "call", ID: 1, Parent: 0, StartNS: 2e6, EndNS: 6e6},
		{Name: "call", ID: 1, Parent: 0, StartNS: 5e6, EndNS: 8e6},
	}}
	st := tr.summarize()
	if got := st["req"].SelfMS; got != 4 {
		t.Errorf("req self time %g ms, want 4 (10 minus the 6 ms its children cover)", got)
	}
	if got := st["call"].TotalMS; got != 7 {
		t.Errorf("call total %g ms, want 7", got)
	}
}
