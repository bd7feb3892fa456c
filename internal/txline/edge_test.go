package txline

import (
	"math"
	"sync"
	"testing"
	"unsafe"

	"divot/internal/rng"
)

// bankRiseTimes × bankRates is the grid the bank tests sweep: from an edge
// a sample wide (10 ps at 89.6 GHz, dx ≈ 2) to one spanning a hundred
// samples.
var (
	bankRiseTimes = []float64{10e-12, 30e-12, 120e-12, 500e-12}
	bankRates     = []float64{89.6e9, 40e9}
)

// bankBytes returns a bank's table size.
func bankBytes(b *edgeBank) int { return len(b.nodes) * int(unsafe.Sizeof(edgeNode{})) }

// TestEdgeBankMatchesErf checks the polyphase bank against 1+erf(x) for
// every sample of windows placed at thousands of sub-sample phases,
// including windows cut off by the start of the buffer (negative arrival
// times) and by its end.
func TestEdgeBankMatchesErf(t *testing.T) {
	for _, rise := range bankRiseTimes {
		for _, rate := range bankRates {
			sigma := Probe{RiseTime: rise}.sigma()
			b := bankFor(rate, sigma)
			n := int(4*b.window*rate) + 8
			dst := make([]float64, n)
			worst, at := 0.0, 0.0
			const phases = 4096
			for i := 0; i < 3*phases; i++ {
				// Centred, straddling the start, straddling the end.
				tEv := (float64(n)/2 + float64(i%phases)/phases) / rate
				switch i / phases {
				case 1:
					tEv -= float64(n) / 2 / rate
				case 2:
					tEv += float64(n) / 2 / rate
				}
				clear(dst)
				hi := b.addWindow(dst, tEv, 2)
				lo := max(int(math.Floor((tEv-b.window)*rate)), 0)
				for s := range dst {
					if s < lo || s >= hi {
						if dst[s] != 0 {
							t.Fatalf("rise %g s at %g Hz: sample %d outside the window [%d, %d) written", rise, rate, s, lo, hi)
						}
						continue
					}
					want := 1 + math.Erf((float64(s)/rate-tEv)/(sigma*math.Sqrt2))
					if d := math.Abs(dst[s] - want); d > worst {
						worst, at = d, tEv
					}
				}
			}
			if worst > 2e-13 {
				t.Errorf("rise %g s at %g Hz: bank off by %g (event at %g s), want ≤ 2e-13", rise, rate, worst, at)
			}
			t.Logf("rise %g s at %g Hz: %d×%d bank, %d B, worst |edge-(1+erf)| = %.3g",
				rise, rate, b.rows, b.width, bankBytes(b), worst)
		}
	}
}

// TestEdgeBankBytes bounds the bank footprint, one bank per (rate, rise
// time) per process: at most 64 KiB for the default probe at the ETS rate,
// and 192 KiB for any tested pair (the largest is the 10 ps edge at
// 40 GHz, whose edgeRes·dx ≈ 2300 phase rows are each a few samples wide).
func TestEdgeBankBytes(t *testing.T) {
	if got := bankBytes(bankFor(89.6e9, DefaultProbe().sigma())); got > 64<<10 {
		t.Errorf("default bank is %d B, want ≤ %d", got, 64<<10)
	}
	for _, rise := range bankRiseTimes {
		for _, rate := range bankRates {
			if got := bankBytes(bankFor(rate, Probe{RiseTime: rise}.sigma())); got > 192<<10 {
				t.Errorf("rise %g s at %g Hz: bank is %d B, want ≤ %d", rise, rate, got, 192<<10)
			}
		}
	}
}

// TestEdgeBankRejectsUnsampleableEdges checks that a degenerate rate or σ,
// or an edge far shorter than a sample period, panics instead of building
// a runaway bank.
func TestEdgeBankRejectsUnsampleableEdges(t *testing.T) {
	for _, c := range []struct{ rate, sigma float64 }{
		{89.6e9, 0}, {89.6e9, -1e-12}, {89.6e9, math.NaN()}, {0, 50e-12},
		{math.Inf(1), 50e-12}, {89.6e9, 1e-17},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bankFor(%g, %g) did not panic", c.rate, c.sigma)
				}
			}()
			bankFor(c.rate, c.sigma)
		}()
	}
}

// TestConcurrentReflectIntoSharesBanks runs ReflectInto from several
// goroutines over two (rate, σ) pairs at once, each goroutine alternating
// between them on one scratch, and checks every result against a serial
// synthesis made afterwards. Under -race it also proves the shared bank
// build is safe.
func TestConcurrentReflectIntoSharesBanks(t *testing.T) {
	l := New("race", DefaultConfig(), rng.New(31))
	slow := DefaultProbe()
	slow.RiseTime = 47e-12 // a σ no other test builds a bank for
	type job struct {
		p    Probe
		rate float64
	}
	jobs := []job{{DefaultProbe(), 89.6e9}, {slow, 61.3e9}}
	const goroutines, iters, n = 4, 20, 300
	got := make([][][]float64, goroutines) // [goroutine][iteration]samples
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s ReflectScratch
			for it := 0; it < iters; it++ {
				j := jobs[(g+it)%len(jobs)]
				w := l.ReflectInto(&s, j.p, 0, 1, j.rate, n)
				got[g] = append(got[g], append([]float64(nil), w.Samples...))
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for it, samples := range got[g] {
			j := jobs[(g+it)%len(jobs)]
			want := reflectReference(l, j.p, 0, 1, j.rate, n, false)
			for i, v := range samples {
				if math.Float64bits(v) != math.Float64bits(want.Samples[i]) {
					t.Fatalf("goroutine %d iteration %d: sample %d differs", g, it, i)
				}
			}
		}
	}
}
