package divot_test

import (
	"fmt"

	"divot"
)

// Example shows the minimal protect-calibrate-authenticate flow.
func Example() {
	sys := divot.NewSystem(2026, divot.DefaultConfig())
	bus, err := sys.NewLink("memory-bus")
	if err != nil {
		panic(err)
	}
	if err := bus.Calibrate(); err != nil {
		panic(err)
	}
	fmt.Println("genuine accepted:", bus.Authenticate().Accepted)

	// A cold-boot attacker moves the module onto their own machine.
	thief := divot.NewColdBootSwap(sys.Config().Line, sys.Stream("thief"))
	bus.Module.SetObservedLine(thief.BusSeenByModule())
	bus.MonitorOnce()
	fmt.Println("module gate open on attacker bus:", bus.Module.Gate.Authorized())
	// Output:
	// genuine accepted: true
	// module gate open on attacker bus: false
}

// ExampleSystem_NewLink manufactures a protected bus and calibrates it —
// after enrollment both gates open.
func ExampleSystem_NewLink() {
	sys := divot.NewSystem(11, divot.DefaultConfig())
	bus, err := sys.NewLink("pcie-lane0")
	if err != nil {
		panic(err)
	}
	if err := bus.Calibrate(); err != nil {
		panic(err)
	}
	fmt.Println("CPU gate:", bus.CPU.Gate.Authorized())
	fmt.Println("module gate:", bus.Module.Gate.Authorized())
	// Output:
	// CPU gate: true
	// module gate: true
}

// ExampleLink_Authenticate spot-checks a bus before and after a wire tap is
// soldered on: the tap dents the IIP and the check rejects.
func ExampleLink_Authenticate() {
	sys := divot.NewSystem(21, divot.DefaultConfig())
	bus, err := sys.NewLink("dimm0")
	if err != nil {
		panic(err)
	}
	if err := bus.Calibrate(); err != nil {
		panic(err)
	}
	fmt.Println("clean bus accepted:", bus.Authenticate().Accepted)

	divot.NewWireTap(0.1).Apply(bus.Line)
	res := bus.Authenticate()
	fmt.Println("tapped bus accepted:", res.Accepted)
	fmt.Println("tamper localized:", res.Tampered)
	// Output:
	// clean bus accepted: true
	// tapped bus accepted: false
	// tamper localized: true
}

// ExampleSystem_MonitorAll monitors a whole fleet in one call; links fan out
// across Config.Engine.Parallelism workers with bit-identical results.
func ExampleSystem_MonitorAll() {
	cfg := divot.DefaultConfig()
	cfg.Engine.Parallelism = 4 // 0 = one worker per CPU, 1 = sequential
	sys := divot.NewSystem(31, cfg)
	for _, id := range []string{"cmd", "addr", "dq0"} {
		bus, err := sys.NewLink(id)
		if err != nil {
			panic(err)
		}
		if err := bus.Calibrate(); err != nil {
			panic(err)
		}
	}
	rounds, err := sys.MonitorAll()
	if err != nil {
		panic(err)
	}
	for _, la := range rounds {
		fmt.Printf("%s: %d alerts\n", la.ID, len(la.Alerts))
	}
	// Output:
	// addr: 0 alerts
	// cmd: 0 alerts
	// dq0: 0 alerts
}

// ExampleSystem_NewMultiLink protects a bus as a 2-wire bundle: both wires
// must authenticate.
func ExampleSystem_NewMultiLink() {
	sys := divot.NewSystem(7, divot.DefaultConfig())
	bus, err := sys.NewMultiLink("bus-a", 2)
	if err != nil {
		panic(err)
	}
	if err := bus.Calibrate(); err != nil {
		panic(err)
	}
	clean, err := bus.MonitorOnce()
	if err != nil {
		panic(err)
	}
	fmt.Println("clean alerts:", len(clean))

	divot.NewWireTap(0.1).Apply(bus.Wires[1].Line)
	alerts, err := bus.MonitorOnce()
	if err != nil {
		panic(err)
	}
	fmt.Println("alerts after tapping wire 1:", len(alerts) > 0)
	// Output:
	// clean alerts: 0
	// alerts after tapping wire 1: true
}

// ExampleSimilarity scores two fingerprints of the same line.
func ExampleSimilarity() {
	sys := divot.NewSystem(3, divot.DefaultConfig())
	a, err := sys.NewLink("a")
	if err != nil {
		panic(err)
	}
	b, err := sys.NewLink("b")
	if err != nil {
		panic(err)
	}
	if err := a.Calibrate(); err != nil {
		panic(err)
	}
	if err := b.Calibrate(); err != nil {
		panic(err)
	}
	// Links authenticate themselves, not each other.
	fmt.Println("a accepts itself:", a.Authenticate().Accepted)
	fmt.Println("b accepts itself:", b.Authenticate().Accepted)
	// Output:
	// a accepts itself: true
	// b accepts itself: true
}
