package itdr

import (
	"math"
	"testing"

	"divot/internal/rng"
	"divot/internal/stats"
	"divot/internal/txline"
)

// TestMeasureIntoMatchesMeasure proves the arena path is bit-identical to
// the allocating path across a sequence of measurements: two identically
// seeded rigs must reconstruct the same IIPs whether or not they recycle an
// arena, at sequential and parallel worker counts.
func TestMeasureIntoMatchesMeasure(t *testing.T) {
	for _, par := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Parallelism = par
		lineA, ra := testRig(t, 31, cfg)
		lineB, rb := testRig(t, 31, cfg)
		env := txline.RoomTemperature()
		arena := NewArena()
		for round := 0; round < 3; round++ {
			want := ra.Measure(lineA, env)
			got := rb.MeasureInto(arena, lineB, env)
			if want.Trials != got.Trials || want.CyclesUsed != got.CyclesUsed {
				t.Fatalf("par=%d round %d: accounting mismatch", par, round)
			}
			for i, v := range want.IIP.Samples {
				if got.IIP.Samples[i] != v {
					t.Fatalf("par=%d round %d bin %d: MeasureInto %v != Measure %v",
						par, round, i, got.IIP.Samples[i], v)
				}
			}
			for i, s := range want.Saturated {
				if got.Saturated[i] != s {
					t.Fatalf("par=%d round %d bin %d: saturation mismatch", par, round, i)
				}
			}
		}
	}
}

// TestMeasureIntoAllocationFree is the arena's reason to exist: once the
// arena and the per-bin inverter cache are warm, a sequential measurement
// must not allocate at all.
func TestMeasureIntoAllocationFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	line, r := testRig(t, 7, cfg)
	env := txline.RoomTemperature()
	arena := NewArena()
	// Warm-up: first measurement sizes the arena and builds the inverters,
	// second promotes them to tabulated CDFs.
	r.MeasureInto(arena, line, env)
	r.MeasureInto(arena, line, env)
	allocs := testing.AllocsPerRun(10, func() {
		r.MeasureInto(arena, line, env)
	})
	if allocs != 0 {
		t.Fatalf("warm MeasureInto allocates %v times per run, want 0", allocs)
	}
}

// TestMeasureDetachedFromPool proves Measure's result survives the arena
// being reused: retained measurements (the calibration-averaging pattern)
// must not be overwritten by later measurements.
func TestMeasureDetachedFromPool(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	line, r := testRig(t, 11, cfg)
	env := txline.RoomTemperature()
	first := r.Measure(line, env)
	snapshot := append([]float64(nil), first.IIP.Samples...)
	for i := 0; i < 3; i++ {
		r.Measure(line, env)
	}
	for i, v := range snapshot {
		if first.IIP.Samples[i] != v {
			t.Fatalf("bin %d of a retained measurement changed: %v -> %v", i, v, first.IIP.Samples[i])
		}
	}
}

// TestSharedInverseTableReuse proves two instruments of the same
// configuration share promoted tables (the fleet-memory bound), and that a
// differently configured instrument does not.
func TestSharedInverseTableReuse(t *testing.T) {
	cfg := DefaultConfig()
	apc := NewAPC(cfg.ComparatorNoise, cfg.ComparatorOffset)
	refs := []float64{-0.01, -0.005, 0, 0.005, 0.01}
	a := apc.NewInverter(refs)
	b := apc.NewInverter(refs)
	a.Promote()
	b.Promote()
	if a.promoted != b.promoted {
		t.Fatal("identically configured inverters did not share a promoted table")
	}
	other := NewAPC(cfg.ComparatorNoise*2, cfg.ComparatorOffset).NewInverter(refs)
	other.Promote()
	if other.promoted.table == a.promoted.table {
		t.Fatal("differently configured inverters share a table")
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if a.Estimate(p, 25) != b.Estimate(p, 25) {
			t.Fatalf("shared-table estimates diverge at p=%v", p)
		}
	}
}

// TestSharedInverseTableCollision forces a fingerprint collision through
// tableKey. The first CDF keeps the cache entry; a different CDF under the
// same key gets a private inverse table and a private count table, so a
// count table never attaches to an entry whose CDF differs.
func TestSharedInverseTableCollision(t *testing.T) {
	const key = uint64(0x5eedc0111de00001)
	saved := tableKey
	tableKey = func(*stats.CompositeCDF) uint64 { return key }
	defer func() {
		tableKey = saved
		tableCache.Delete(key)
	}()
	cfg := DefaultConfig()
	refs := []float64{-0.004, -0.002, 0, 0.002, 0.004}
	owner := NewAPC(cfg.ComparatorNoise, cfg.ComparatorOffset).NewInverter(refs)
	owner.Promote()
	other := NewAPC(cfg.ComparatorNoise*2, cfg.ComparatorOffset).NewInverter(refs)
	other.Promote()
	twin := NewAPC(cfg.ComparatorNoise, cfg.ComparatorOffset).NewInverter(refs)
	twin.Promote()

	e, ok := tableCache.Load(key)
	if !ok {
		t.Fatal("no cache entry under the forced key")
	}
	ent := e.(*tableCacheEntry)
	if ent.cdf != owner.cdf || ent != owner.promoted {
		t.Fatal("the first CDF does not own the cache entry")
	}
	if twin.promoted != owner.promoted {
		t.Error("an equal CDF did not share the owner's tables")
	}
	mine, theirs := other.promoted, owner.promoted
	if mine == theirs || mine.table == theirs.table || &mine.byCount[0] == &theirs.byCount[0] {
		t.Fatal("a colliding CDF attached to the owner's tables")
	}
	if mine.cdf != other.cdf {
		t.Fatal("the colliding CDF's private tables name another CDF")
	}
	private := newTableCacheEntry(other.cdf)
	differs := false
	for k := range mine.byCount {
		if mine.byCount[k] != private.byCount[k] {
			t.Fatalf("count %d: colliding CDF's estimate %v, want its own %v", k, mine.byCount[k], private.byCount[k])
		}
		differs = differs || mine.byCount[k] != theirs.byCount[k]
	}
	if !differs {
		t.Fatal("the two CDFs' count tables are identical; the collision proves nothing")
	}
}

// TestEstimateCountMatchesEstimate checks the count-indexed inverse against
// Estimate(k/T, T) for every count k, on a plain inverter, on one backed by
// the shared warmup's bisection memo, and on both once promoted.
func TestEstimateCountMatchesEstimate(t *testing.T) {
	cfg := DefaultConfig()
	apc := NewAPC(cfg.ComparatorNoise, cfg.ComparatorOffset)
	wu := warmupFor(cfg, txline.DefaultProbe())
	const m = 120
	memo := &Inverter{}
	apc.resetInverter(memo, wu.refs[m], &wu.bins[m])
	plain := apc.NewInverter(wu.refs[m])
	trials := cfg.TrialsPerBin
	for _, promote := range []bool{false, true} {
		for name, iv := range map[string]*Inverter{"plain": plain, "memo": memo} {
			if promote {
				iv.Promote()
			}
			for k := 0; k <= trials; k++ {
				got, want := iv.EstimateCount(k), iv.Estimate(float64(k)/float64(trials), trials)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s promoted=%t: EstimateCount(%d) = %v, Estimate = %v", name, promote, k, got, want)
				}
			}
		}
	}
}

// TestArenaServesMultipleInstruments proves a pooled arena can hop between
// reflectometers without contaminating results: interleaving two instruments
// through one arena matches running each with its own.
func TestArenaServesMultipleInstruments(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	mk := func() (*txline.Line, *Reflectometer, *txline.Line, *Reflectometer) {
		s := rng.New(77)
		lineA := txline.New("A", txline.DefaultConfig(), s.Child("line-a"))
		lineB := txline.New("B", txline.DefaultConfig(), s.Child("line-b"))
		ra := MustNew(cfg, txline.DefaultProbe(), nil, s.Child("itdr-a"))
		rb := MustNew(cfg, txline.DefaultProbe(), nil, s.Child("itdr-b"))
		return lineA, ra, lineB, rb
	}
	env := txline.RoomTemperature()

	la1, ra1, lb1, rb1 := mk()
	shared := NewArena()
	var interleaved [][]float64
	for i := 0; i < 2; i++ {
		ma := ra1.MeasureInto(shared, la1, env)
		interleaved = append(interleaved, append([]float64(nil), ma.IIP.Samples...))
		mb := rb1.MeasureInto(shared, lb1, env)
		interleaved = append(interleaved, append([]float64(nil), mb.IIP.Samples...))
	}

	la2, ra2, lb2, rb2 := mk()
	arenaA, arenaB := NewArena(), NewArena()
	var separate [][]float64
	for i := 0; i < 2; i++ {
		ma := ra2.MeasureInto(arenaA, la2, env)
		separate = append(separate, append([]float64(nil), ma.IIP.Samples...))
		mb := rb2.MeasureInto(arenaB, lb2, env)
		separate = append(separate, append([]float64(nil), mb.IIP.Samples...))
	}

	for k := range interleaved {
		for i := range interleaved[k] {
			if interleaved[k][i] != separate[k][i] {
				t.Fatalf("measurement %d bin %d: shared-arena %v != private-arena %v",
					k, i, interleaved[k][i], separate[k][i])
			}
		}
	}
}
