package divot

import (
	"testing"

	"divot/internal/sim"
)

func TestSystemLinkLifecycle(t *testing.T) {
	s := NewSystem(1, DefaultConfig())
	l, err := s.NewLink("bus0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewLink("bus0"); err == nil {
		t.Error("duplicate link id should fail")
	}
	if err := l.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if alerts, err := l.MonitorOnce(); err != nil {
		t.Fatal(err)
	} else if len(alerts) != 0 {
		t.Errorf("clean link alerted: %v", alerts)
	}
}

func TestAuthenticateSpotCheck(t *testing.T) {
	s := NewSystem(3, DefaultConfig())
	l, err := s.NewLink("bus0")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Calibrate(); err != nil {
		t.Fatal(err)
	}
	res := l.Authenticate()
	if !res.Accepted {
		t.Errorf("genuine spot check rejected: %+v", res)
	}
	// Spot checks must not leave side effects.
	if len(l.Alerts) != 0 {
		t.Error("spot check polluted alert log")
	}

	// Swap the module: spot check fails but gates were rolled back to
	// their prior state.
	swap := NewModuleSwap(s.Config().Line, s.Stream("attacker"))
	swap.Apply(l.Line)
	res = l.Authenticate()
	if res.Accepted {
		t.Errorf("swapped module accepted: %+v", res)
	}
	if !l.CPU.Gate.Authorized() {
		t.Error("spot check should not have closed the gate")
	}
}

func TestMemorySystemEndToEnd(t *testing.T) {
	s := NewSystem(4, DefaultConfig())
	m, err := s.NewMemorySystem("dimm0", DefaultMemoryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Calibrate(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, DefaultMemoryConfig().Geometry.BurstBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	m.Write(MemAddress{Bank: 0, Row: 1, Col: 2}, payload)
	m.Read(MemAddress{Bank: 0, Row: 1, Col: 2})
	if err := m.Drain(2, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	resps := m.Responses()
	if resps[0].Status != StatusOK || resps[1].Status != StatusOK {
		t.Fatalf("responses: %+v", resps)
	}
	if got := resps[1].Data; got[5] != 5 {
		t.Errorf("read back %v", got[:8])
	}
	m.StopMonitor()
}

func TestMemorySystemColdBootBlocked(t *testing.T) {
	s := NewSystem(5, DefaultConfig())
	m, err := s.NewMemorySystem("dimm0", DefaultMemoryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Calibrate(); err != nil {
		t.Fatal(err)
	}
	// Attacker powers the module in their own machine: the module-side
	// iTDR sees an unknown bus at the next monitoring round and closes the
	// column-access gate.
	cb := NewColdBootSwap(s.Config().Line, s.Stream("coldboot"))
	m.Bus.Module.SetObservedLine(cb.BusSeenByModule())
	m.RunFor(sim.FromSeconds(3 * m.Bus.MeasurementDuration()))

	// With BlockFail semantics the attacker's read is rejected. (The real
	// attacker's controller has no DIVOT gate, so model their host as
	// always-authorized on the CPU side; the module-side gate is what
	// stops them.)
	m.Read(MemAddress{Bank: 0, Row: 0, Col: 0})
	if err := m.Drain(1, 20*sim.Millisecond); err == nil {
		// Stalled forever is also acceptable protection, but with the
		// default config the module gate produces a block response.
		resp := m.Responses()[0]
		if resp.Status != StatusBlockedByModule {
			t.Fatalf("cold-boot read status %v, want blocked by module", resp.Status)
		}
	}
	if m.Bus.Module.Gate.Authorized() {
		t.Error("module gate open on attacker bus")
	}
	m.StopMonitor()
}

func TestMemorySystemTamperAlertDuringTraffic(t *testing.T) {
	s := NewSystem(6, DefaultConfig())
	m, err := s.NewMemorySystem("dimm0", DefaultMemoryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Calibrate(); err != nil {
		t.Fatal(err)
	}
	probe := NewMagneticProbe(0.12)
	probe.Apply(m.Bus.Line)
	// Keep traffic flowing while monitoring catches the probe.
	for i := 0; i < 10; i++ {
		m.Read(MemAddress{Bank: i % 4, Row: i, Col: i})
	}
	m.RunFor(sim.FromSeconds(4 * m.Bus.MeasurementDuration()))
	if err := m.Drain(10, 50*sim.Millisecond); err != nil {
		t.Fatalf("traffic stalled during probing: %v", err)
	}
	var tampered bool
	for _, a := range m.Bus.Alerts {
		if a.Kind == AlertTamper {
			tampered = true
		}
	}
	if !tampered {
		t.Error("magnetic probe went unnoticed during live traffic")
	}
	// Probing alone must not block traffic (detection is concurrent and
	// non-disruptive; reaction policy for probes is an alert).
	for _, r := range m.Responses() {
		if r.Status != StatusOK {
			t.Errorf("request blocked during probe monitoring: %v", r.Status)
		}
	}
	m.StopMonitor()
}
