// Package divot is a behavioral implementation of DIVOT — "Detecting
// Impedance Variations Of Transmission-lines" (Xu et al., ISCA 2020) — a bus
// authentication and anti-probing architecture that extends the hardware
// trusted computing base beyond the CPU chip.
//
// Every transmission line carries a unique, unclonable Impedance
// Inhomogeneity Pattern (IIP). DIVOT measures it at runtime, concurrently
// with normal data transfers, using an integrated time-domain reflectometer
// (iTDR) built from three ideas: analog-to-probability conversion (a 1-bit
// comparator plus counters instead of an ADC), probability density
// modulation (a Vernier triangle reference that widens the dynamic range),
// and equivalent time sampling (PLL phase stepping for >80 GHz equivalent
// rates). Matching the measured IIP against an enrolled fingerprint
// authenticates both ends of a bus and exposes physical attacks — chip
// replacement, cold-boot module theft, wire taps, and non-contact magnetic
// probes — which all leave a detectable, localizable dent in the IIP.
//
// The package offers three levels of use:
//
//   - System/Link: create protected buses, calibrate them, run monitoring
//     rounds, and mount attack scenarios (the §III protocol).
//   - MemorySystem: the full Fig. 6 example design — a DDR-style memory
//     controller and SDRAM device whose command and column-access paths are
//     gated by two-way DIVOT authentication, on a discrete-event timeline.
//   - The re-exported building blocks (fingerprinting, iTDR configuration,
//     attacks, baseline detectors) for custom experiments.
//
// The physical layer is a first-order reflection simulation of segmented
// transmission lines; see DESIGN.md for the substitutions made for the
// paper's FPGA/PCB prototype and EXPERIMENTS.md for reproduced results.
package divot

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"divot/internal/core"
	"divot/internal/rng"
	"divot/internal/txline"
)

// Config bundles every tunable of a DIVOT deployment. The zero value is not
// usable; start from DefaultConfig.
//
// Engine.Parallelism is the system's single parallelism knob: it bounds the
// worker goroutines of MonitorAll's link fan-out, MultiLink wire fan-out,
// and the ETS-bin fan-out inside each measurement. 0 (the default) uses one
// worker per CPU; 1 runs fully sequentially; every setting produces
// bit-identical results.
type Config struct {
	// Engine is the endpoint configuration: iTDR parameters, fingerprint
	// pipeline, thresholds, enrollment depth.
	Engine core.Config
	// Line is the physical description of the buses the system builds.
	Line txline.Config
}

// DefaultConfig mirrors the paper's prototype: a 25 cm, 50 Ω PCB lane probed
// at 156.25 MHz with 11.16 ps ETS steps.
func DefaultConfig() Config {
	return Config{Engine: core.DefaultConfig(), Line: txline.DefaultConfig()}
}

// System is a fleet of DIVOT-protected links sharing one random universe —
// the manufacturing lottery, instrument noise, and environments of all its
// lines derive from the system seed, so experiments are reproducible.
type System struct {
	cfg    Config
	stream *rng.Stream
	links  map[string]*Link
	multis map[string]*MultiLink
	// sink, when non-nil, receives telemetry from every bus of the system
	// (see SetSink in telemetry.go).
	sink TelemetrySink
}

// NewSystem creates a system rooted at the given seed.
func NewSystem(seed uint64, cfg Config) *System {
	return &System{
		cfg:    cfg,
		stream: rng.New(seed),
		links:  make(map[string]*Link),
		multis: make(map[string]*MultiLink),
	}
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// taken reports whether an id names any bus in the system — single links and
// multi-wire buses share one namespace.
func (s *System) taken(id string) bool {
	_, single := s.links[id]
	_, multi := s.multis[id]
	return single || multi
}

// NewLink manufactures a fresh protected bus. Each id yields an independent
// intrinsic IIP; reusing an id is an error.
func (s *System) NewLink(id string) (*Link, error) {
	if s.taken(id) {
		return nil, fmt.Errorf("divot: link %q already exists", id)
	}
	inner, err := core.NewLink(id, s.cfg.Engine, s.cfg.Line, s.stream.Child("link-"+id))
	if err != nil {
		return nil, err
	}
	if s.sink != nil {
		inner.SetSink(s.sink)
	}
	l := &Link{Link: inner, sys: s}
	s.links[id] = l
	return l, nil
}

// NewMultiLink manufactures a protected bus of n wires whose fused gates
// require every wire to authenticate (§IV-C's multi-wire direction). The bus
// registers under the same id namespace as single links and participates in
// MonitorAll and HealthAll.
func (s *System) NewMultiLink(id string, n int) (*MultiLink, error) {
	if s.taken(id) {
		return nil, fmt.Errorf("divot: link %q already exists", id)
	}
	m, err := core.NewMultiLink(id, s.cfg.Engine, s.cfg.Line, n, s.stream.Child("multilink-"+id))
	if err != nil {
		return nil, err
	}
	if s.sink != nil {
		m.SetSink(s.sink)
	}
	s.multis[id] = m
	return m, nil
}

// Link returns the single link registered under id, if any.
func (s *System) Link(id string) (*Link, bool) {
	l, ok := s.links[id]
	return l, ok
}

// MultiLink returns the multi-wire bus registered under id, if any.
func (s *System) MultiLink(id string) (*MultiLink, bool) {
	m, ok := s.multis[id]
	return m, ok
}

// Stream derives a labelled random stream from the system seed, for
// experiment code that needs auxiliary randomness (attack parameters,
// traffic).
func (s *System) Stream(label string) *rng.Stream { return s.stream.Child(label) }

// SkipReason says why MonitorAll ran no round on a bus. It is a string-typed
// enum so the JSON form stays the familiar human-readable string while Go
// code can switch on the constants below.
type SkipReason string

const (
	// SkipNone: the bus was not skipped.
	SkipNone SkipReason = ""
	// SkipNotCalibrated: the bus has no enrollment to monitor against.
	SkipNotCalibrated SkipReason = "not calibrated"
	// SkipCancelled: the MonitorAllCtx context was done before this bus's
	// round started.
	SkipCancelled SkipReason = "cancelled"
)

// String returns the reason's wire form.
func (r SkipReason) String() string { return string(r) }

// LinkAlerts pairs a bus id with the alerts one monitoring round raised on
// it (empty when the bus stayed clean). A bus the round could not monitor is
// returned with Skipped set and the Reason stated instead of being silently
// dropped.
type LinkAlerts struct {
	ID     string
	Alerts []core.Alert
	// Skipped reports that no monitoring round ran on this bus; Reason says
	// why.
	Skipped bool
	Reason  SkipReason
}

// MonitorAll runs one monitoring round on every bus of the system — single
// links fan out across the engine's Parallelism workers
// (Config.Engine.Parallelism; 0 = one worker per CPU), multi-wire buses run
// their fused round with the same internal fan-out. Buses own disjoint
// instruments and random streams, so the outcome is bit-identical to
// monitoring each in id order — the knob trades wall-clock only. Results
// come back sorted by bus id; uncalibrated buses are reported as Skipped.
// Protocol errors (lost enrollment) are joined into the returned error, with
// the healthy buses' rounds unaffected.
func (s *System) MonitorAll() ([]LinkAlerts, error) {
	return s.MonitorAllCtx(context.Background())
}

// MonitorAllCtx is MonitorAll with cooperative cancellation: once ctx is
// done, buses whose round has not started are reported as Skipped with
// SkipCancelled (in-flight rounds complete — an interrupted round would
// desynchronize an endpoint's robustness state), and ctx's error is joined
// into the returned error.
func (s *System) MonitorAllCtx(ctx context.Context) ([]LinkAlerts, error) {
	singleIDs := make([]string, 0, len(s.links))
	for id := range s.links {
		if s.links[id].Calibrated() {
			singleIDs = append(singleIDs, id)
		}
	}
	sort.Strings(singleIDs)
	links := make([]*core.Link, len(singleIDs))
	for i, id := range singleIDs {
		links[i] = s.links[id].Link
	}
	alerts, ran, err := core.MonitorAllCtx(ctx, links, s.cfg.Engine.Parallelism)
	errs := []error{err}

	byID := make(map[string]LinkAlerts, len(s.links)+len(s.multis))
	for i, id := range singleIDs {
		if !ran[i] {
			byID[id] = LinkAlerts{ID: id, Skipped: true, Reason: SkipCancelled}
			continue
		}
		byID[id] = LinkAlerts{ID: id, Alerts: alerts[i]}
	}
	for id, l := range s.links {
		if !l.Calibrated() {
			byID[id] = LinkAlerts{ID: id, Skipped: true, Reason: SkipNotCalibrated}
		}
	}
	// Multi-wire buses run in sorted id order so the telemetry stream is the
	// same on every run, not subject to map iteration order.
	multiIDs := make([]string, 0, len(s.multis))
	for id := range s.multis {
		multiIDs = append(multiIDs, id)
	}
	sort.Strings(multiIDs)
	for _, id := range multiIDs {
		m := s.multis[id]
		if !m.Calibrated() {
			byID[id] = LinkAlerts{ID: id, Skipped: true, Reason: SkipNotCalibrated}
			continue
		}
		if ctx.Err() != nil {
			byID[id] = LinkAlerts{ID: id, Skipped: true, Reason: SkipCancelled}
			continue
		}
		a, err := m.MonitorOnce()
		errs = append(errs, err)
		byID[id] = LinkAlerts{ID: id, Alerts: a}
	}

	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]LinkAlerts, len(ids))
	for i, id := range ids {
		out[i] = byID[id]
	}
	return out, errors.Join(errs...)
}

// HealthAll snapshots every calibrated bus's condition, sorted by id. A
// multi-wire bus contributes one entry per wire under its "id/wN" wire ids.
// The result is never nil — a fleet with nothing calibrated yields an empty
// slice, so JSON consumers see [] rather than null.
func (s *System) HealthAll() []core.LinkHealth {
	out := make([]core.LinkHealth, 0, len(s.links)+len(s.multis))
	for _, l := range s.links {
		if l.Calibrated() {
			out = append(out, l.Health())
		}
	}
	for _, m := range s.multis {
		if m.Calibrated() {
			out = append(out, m.Health()...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Link is one DIVOT-protected bus. It embeds the core engine link, so the
// full §III protocol (Calibrate, MonitorOnce, MonitorN, gates, alerts) is
// available directly, plus convenience helpers below.
type Link struct {
	*core.Link
	sys *System
}

// Authenticate runs a single measurement round and reports whether the
// CPU-side view of the bus is clean, without touching gates or alert state —
// a read-only spot check (core.Link.SpotCheck). A swapped same-model module
// may keep the bus-wide similarity high while showing a localized error peak
// at the load (Fig. 9b/c), so both an authentication mismatch and a tamper
// signature count as rejection. An uncalibrated or enrollment-less link is
// simply not accepted.
func (l *Link) Authenticate() AuthResult {
	alerts, err := l.SpotCheck()
	if err != nil {
		return AuthResult{Accepted: false}
	}
	res := AuthResult{Accepted: true, Score: 1}
	for _, a := range alerts {
		if a.Side != core.SideCPU {
			continue
		}
		res.Accepted = false
		switch a.Kind {
		case core.AlertAuthFailure:
			res.Score = a.Score
		case core.AlertTamper:
			res.Tampered = true
			res.TamperPosition = a.Position
		}
	}
	return res
}

// AuthResult is a spot-check outcome.
type AuthResult struct {
	// Accepted is true only when the measurement matched the enrollment
	// with no tamper signature.
	Accepted bool
	// Score is the similarity (1 when no auth mismatch occurred).
	Score float64
	// Tampered indicates a localized IIP change at TamperPosition meters.
	Tampered       bool
	TamperPosition float64
}
