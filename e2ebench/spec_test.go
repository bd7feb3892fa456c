package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"divot/internal/daemon"
)

func testListen(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", 19720+i)
	}
	return out
}

func encodeAll(t *testing.T, w workload, seed uint64) [][]byte {
	t.Helper()
	var dirs []string
	if w.stateDir {
		for d := 0; d < w.daemons; d++ {
			dirs = append(dirs, fmt.Sprintf("state%d", d))
		}
	}
	var out [][]byte
	for _, s := range w.fleetSpecs(seed, testListen(w.daemons), dirs) {
		raw, err := encodeSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

func TestSpecsAreByteIdenticalForASeed(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b := encodeAll(t, w, 7), encodeAll(t, w, 7)
		other := encodeAll(t, w, 8)
		if len(a) != w.daemons {
			t.Fatalf("%s: %d specs, want %d", name, len(a), w.daemons)
		}
		for d := range a {
			if !bytes.Equal(a[d], b[d]) {
				t.Errorf("%s daemon %d: two generations from seed 7 differ", name, d)
			}
			if bytes.Equal(a[d], other[d]) {
				t.Errorf("%s daemon %d: seeds 7 and 8 generate the same spec", name, d)
			}
		}
	}
}

func TestSpecsLoadInDivotd(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames() {
		w := workloads[name]
		for d, raw := range encodeAll(t, w, 7) {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, d))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			spec, err := daemon.LoadSpec(path)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(spec.Buses) != w.buses {
				t.Errorf("%s: %d buses, want %d", name, len(spec.Buses), w.buses)
			}
			if spec.Seed == 7 {
				t.Errorf("%s: the benchmark seed reached the daemon spec", name)
			}
		}
	}
}

func TestAttackMix(t *testing.T) {
	for name, want := range map[string]int{"attest-measure": 8, "monitor-fleet": 16, "herd-cached": 0} {
		w := workloads[name]
		ck := newChecker(w.fleetSpecs(7, testListen(w.daemons), nil))
		if len(ck.attacks) != want {
			t.Errorf("%s: %d attacked buses, want %d", name, len(ck.attacks), want)
		}
		if len(ck.ids) != w.daemons*w.buses {
			t.Errorf("%s: %d bus ids, want %d", name, len(ck.ids), w.daemons*w.buses)
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	w := workloads["attest-measure"]
	ids := []string{"a", "b", "c", "d"}
	a := w.requestSchedule(7, 2, ids)
	b := w.requestSchedule(7, 2, ids)
	c := w.requestSchedule(8, 2, ids)
	if want := int(2 * w.rate); len(a) != want {
		t.Fatalf("%d requests in 2 s at %g/s, want %d", len(a), w.rate, want)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("same seed, different schedules")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("seeds 7 and 8 give the same schedule")
	}
}
