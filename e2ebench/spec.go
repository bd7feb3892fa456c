package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"divot/internal/daemon"
)

// workload is one benchmark scenario: the fleet it stands up and the load it
// drives. Daemons only ever see the generated specs and the requests.
type workload struct {
	name string
	// daemons is the number of divotd processes; buses is each one's fleet.
	daemons, buses int
	// herd puts one divotherd in front of the daemons; requests go to it.
	herd bool
	// fleetAttest makes every request a whole-fleet attestation (otherwise
	// each request names one seeded random bus).
	fleetAttest bool
	// rate is the open-loop request rate per second.
	rate float64
	// senders is the number of goroutines issuing requests.
	senders int
	// stream subscribes one whole-fleet GET /v1/stream watcher.
	stream bool
	// stateDir gives each daemon a fresh state directory.
	stateDir bool
	// setups is how many times a run stands the fleet up to time set-up.
	setups int
	// spec fills one daemon's spec from the workload's seeded generator.
	spec func(r *rand.Rand, d int) daemon.Spec
}

// workloads are the benchmark's scenarios, by name.
var workloads = map[string]workload{
	"attest-measure": {
		name: "attest-measure", daemons: 1, buses: 64,
		rate: 50, senders: 2, setups: 3,
		spec: func(r *rand.Rand, d int) daemon.Spec {
			s := daemon.Spec{Seed: r.Uint64(), IntervalMS: 1000, JitterFrac: 0.2}
			s.Buses = buses(0, 64)
			attack(r, s.Buses, 8, []string{"interposer", "wiretap"}, 0, 0)
			return s
		},
	},
	"monitor-fleet": {
		name: "monitor-fleet", daemons: 1, buses: 128,
		rate: 50, senders: 1, stream: true, stateDir: true, setups: 3,
		spec: func(r *rand.Rand, d int) daemon.Spec {
			s := daemon.Spec{Seed: r.Uint64(), IntervalMS: 1, MaxStalenessMS: 1000,
				SchedulerShards: 1, Parallelism: 1, CalibParallelism: 2}
			s.Buses = buses(0, 128)
			attack(r, s.Buses, 16, []string{"interposer", "wiretap", "probe", "module-swap"}, 2, 5)
			return s
		},
	},
	"herd-cached": {
		name: "herd-cached", daemons: 2, buses: 128, herd: true, fleetAttest: true,
		rate: 50, senders: 2, setups: 3,
		spec: func(r *rand.Rand, d int) daemon.Spec {
			s := daemon.Spec{Seed: r.Uint64(), IntervalMS: 10000, JitterFrac: 0.2, MaxStalenessMS: 20000}
			s.Buses = buses(d*128, 128)
			return s
		},
	},
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buses names n buses starting at index first.
func buses(first, n int) []daemon.BusSpec {
	out := make([]daemon.BusSpec, n)
	for i := range out {
		out[i].ID = fmt.Sprintf("bus%03d", first+i)
	}
	return out
}

// attack mounts n attacks on seeded random buses, cycling through kinds,
// each after a seeded round count in [minAfter, maxAfter] and at a seeded
// position inside the middle of the 25 cm line.
func attack(r *rand.Rand, bs []daemon.BusSpec, n int, kinds []string, minAfter, maxAfter int) {
	perm := r.Perm(len(bs))
	for i := 0; i < n; i++ {
		pos := 0.05 + 0.15*r.Float64()
		bs[perm[i]].Attack = &daemon.AttackSpec{
			Kind:        kinds[i%len(kinds)],
			AfterRounds: uint64(minAfter + r.IntN(maxAfter-minAfter+1)),
			Position:    math.Round(pos*1000) / 1000,
		}
	}
}

// fleetSpecs generates the workload's daemon specs from the benchmark seed.
// The daemons' own seeds are drawn from it, so the seed itself never reaches
// them. listen and stateDirs are per daemon (stateDirs may be nil).
func (w workload) fleetSpecs(seed uint64, listen, stateDirs []string) []daemon.Spec {
	r := rand.New(rand.NewPCG(seed, 0x6469766f74626e63))
	specs := make([]daemon.Spec, w.daemons)
	for d := range specs {
		specs[d] = w.spec(r, d)
		specs[d].Listen = listen[d]
		if stateDirs != nil {
			specs[d].StateDir = stateDirs[d]
		}
	}
	return specs
}

// encodeSpec renders a spec as the JSON file divotd loads.
func encodeSpec(s daemon.Spec) ([]byte, error) {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding spec: %w", err)
	}
	return append(raw, '\n'), nil
}

// requestSchedule draws the open-loop schedule: request i is due i/rate
// seconds after the window opens and names a seeded random bus (empty for
// whole-fleet requests).
func (w workload) requestSchedule(seed uint64, seconds float64, ids []string) []string {
	r := rand.New(rand.NewPCG(seed, 0x7363686564756c65))
	n := int(w.rate * seconds)
	out := make([]string, n)
	if w.fleetAttest {
		return out
	}
	for i := range out {
		out[i] = ids[r.IntN(len(ids))]
	}
	return out
}
