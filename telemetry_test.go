package divot

import (
	"bytes"
	"strings"
	"testing"

	"divot/internal/sim"
)

// auditAll builds a system of three single links and one two-wire bus, wires
// an audit log, calibrates everything, runs rounds through MonitorAll, and
// returns the audit bytes.
func auditAll(t *testing.T, parallelism, rounds int) []byte {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Engine.Parallelism = parallelism
	sys := NewSystem(77, cfg)
	var buf bytes.Buffer
	audit := NewAuditLog(&buf)
	sys.SetSink(audit)
	for _, id := range []string{"dimm0", "dimm1", "dimm2"} {
		l, err := sys.NewLink(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Calibrate(); err != nil {
			t.Fatal(err)
		}
	}
	mb, err := sys.NewMultiLink("wide0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if _, err := sys.MonitorAll(); err != nil {
			t.Fatal(err)
		}
	}
	if err := audit.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAuditLogBitIdenticalAcrossParallelism(t *testing.T) {
	seq := auditAll(t, 1, 2)
	par := auditAll(t, 4, 2)
	if len(seq) == 0 {
		t.Fatal("audit log is empty")
	}
	if !bytes.Equal(seq, par) {
		// Find the first differing line for a useful failure message.
		a, b := strings.Split(string(seq), "\n"), strings.Split(string(par), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("audit line %d differs between Parallelism 1 and 4:\nP1: %s\nP4: %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("audit length differs: P1 %d lines, P4 %d lines", len(a), len(b))
	}
}

func TestSetSinkWiresExistingAndFutureBuses(t *testing.T) {
	sys := NewSystem(5, DefaultConfig())
	before, err := sys.NewLink("pre")
	if err != nil {
		t.Fatal(err)
	}
	rec := &TelemetryRecorder{}
	sys.SetSink(rec)
	if sys.Sink() != TelemetrySink(rec) {
		t.Fatal("Sink() should return the attached sink")
	}
	after, err := sys.NewLink("post")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*Link{before, after} {
		if err := l.Calibrate(); err != nil {
			t.Fatal(err)
		}
	}
	var pre, post bool
	for _, ev := range rec.Events() {
		if ev.Kind == EventCalibrated {
			switch ev.Link {
			case "pre":
				pre = true
			case "post":
				post = true
			}
		}
	}
	if !pre || !post {
		t.Fatalf("calibrated events: pre=%v post=%v (both links should report)", pre, post)
	}
}

func TestStorageMonitorRestart(t *testing.T) {
	sys := NewSystem(34, DefaultConfig())
	st, err := sys.NewStorageSystem("ssd0", 64, StorageHostConfig{
		LinkClockHz: 1e9, CmdOverheadCycles: 64, MediaCycles: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Calibrate(); err != nil {
		t.Fatal(err)
	}
	step := sim.FromSeconds(4 * st.Bus.MeasurementDuration())
	st.RunFor(step)
	ran := st.Bus.Rounds()
	if ran == 0 {
		t.Fatal("monitoring loop never ran a round")
	}
	if !st.Monitoring() {
		t.Fatal("Monitoring() should report true while the loop runs")
	}

	st.StopMonitor()
	st.StopMonitor() // idempotent
	if st.Monitoring() {
		t.Fatal("Monitoring() should report false after StopMonitor")
	}
	st.RunFor(step)
	if got := st.Bus.Rounds(); got != ran {
		t.Fatalf("rounds advanced to %d after StopMonitor (was %d)", got, ran)
	}

	// The original bug: monitoring stayed true and stopped stayed set, so a
	// restart silently did nothing forever.
	st.StartMonitor(0)
	st.StartMonitor(0) // idempotent while running
	st.RunFor(step)
	if got := st.Bus.Rounds(); got <= ran {
		t.Fatalf("rounds stuck at %d after StartMonitor — restart is broken", got)
	}

	// A second stop/start cycle must behave the same (no generation leak).
	st.StopMonitor()
	mid := st.Bus.Rounds()
	st.RunFor(step)
	if got := st.Bus.Rounds(); got != mid {
		t.Fatalf("rounds advanced to %d after second StopMonitor (was %d)", got, mid)
	}
	st.StartMonitor(0)
	st.RunFor(step)
	if got := st.Bus.Rounds(); got <= mid {
		t.Fatal("second restart is broken")
	}
	st.StopMonitor()
}

func TestMemoryMonitorRestart(t *testing.T) {
	sys := NewSystem(35, DefaultConfig())
	m, err := sys.NewMemorySystem("dimm0", DefaultMemoryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Calibrate(); err != nil {
		t.Fatal(err)
	}
	step := sim.FromSeconds(4 * m.Bus.MeasurementDuration())
	m.RunFor(step)
	ran := m.Bus.Rounds()
	if ran == 0 {
		t.Fatal("monitoring loop never ran a round")
	}
	m.StopMonitor()
	m.RunFor(step)
	if got := m.Bus.Rounds(); got != ran {
		t.Fatalf("rounds advanced to %d after StopMonitor (was %d)", got, ran)
	}
	m.StartMonitor(0)
	m.RunFor(step)
	if got := m.Bus.Rounds(); got <= ran {
		t.Fatal("memory monitor restart is broken")
	}
	if m.LastMonitorError() != nil {
		t.Errorf("unexpected monitor error: %v", m.LastMonitorError())
	}
	m.StopMonitor()
}
