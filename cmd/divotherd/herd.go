package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"divot/client"
	"divot/internal/attest"
	"divot/internal/ring"
	"divot/internal/telemetry"
)

// daemonAddr names one divotd instance under the herd's supervision.
type daemonAddr struct {
	Name string
	Addr string
}

// herdConfig is the aggregator's runtime configuration (flags in main).
type herdConfig struct {
	Listen        string
	FederationID  string
	Daemons       []daemonAddr
	ProbeInterval time.Duration
	MaxInFlight   int
	Replicas      int
	// Timeout is the per-attempt timeout of every upstream call.
	Timeout time.Duration
	// Retry overrides the upstream retry policy when non-zero.
	Retry client.RetryPolicy
}

// shard is one supervised divotd instance and the herd's view of it. All
// mutable fields are guarded by Herd.mu; the client is immutable and called
// outside the lock.
type shard struct {
	name string
	addr string
	c    *client.Client

	up bool
	// buses is the instance's fleet as last discovered (empty while the
	// instance has never been reachable).
	buses map[string]bool
	// fleetOK mirrors the instance's own /healthz verdict.
	fleetOK bool
	// lastErr is the most recent probe or fan-out failure ("" while up).
	lastErr string
}

// Herd supervises a pack of divotd instances: it discovers each daemon's
// fleet, assigns every bus to a daemon on a consistent-hash ring, fans
// attestation requests out across the shards with a bounded in-flight
// budget, merges the verdicts back into request order, and re-balances
// assignments the moment a daemon dies or rejoins. A shard failure is never
// papered over — the affected buses come back in the response's
// partial-error envelope, so the herd cannot fabricate an OK it did not
// measure.
type Herd struct {
	cfg   herdConfig
	multi *client.Multi
	// ring holds every configured daemon permanently; liveness and bus
	// ownership are applied as a Pick predicate at assignment time. That
	// makes re-balance a pure function of the (membership, liveness) pair:
	// a dead daemon's buses land exactly where a ring built without it
	// would put them, and its rejoin restores the original assignment.
	ring *ring.Ring
	reg  *telemetry.Registry

	mu     sync.RWMutex
	shards map[string]*shard
	// buses is the sorted union of every shard's discovered fleet — the
	// herd's fleet order for whole-fleet attests.
	buses []string
	// owners maps a bus to the sorted names of the shards serving it.
	owners map[string][]string

	started time.Time

	shardBuses *telemetry.GaugeVec
	daemonUp   *telemetry.GaugeVec
	fanoutDur  *telemetry.HistogramVec
	attests    *telemetry.CounterVec
	rebalances *telemetry.Counter
}

// NewHerd builds the aggregator and runs the initial discovery: every
// configured daemon is probed for liveness, federation membership, and its
// bus set. Unreachable daemons start in the down state (the prober revives
// them); at least one daemon must be reachable. A reachable daemon whose
// federation id contradicts the herd's is a configuration error and refuses
// startup.
func NewHerd(ctx context.Context, cfg herdConfig) (*Herd, error) {
	if len(cfg.Daemons) == 0 {
		return nil, fmt.Errorf("no daemons given (use -daemons url[,url...])")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	h := &Herd{
		cfg:     cfg,
		multi:   client.NewMulti(cfg.MaxInFlight),
		ring:    ring.New(cfg.Replicas),
		reg:     telemetry.NewRegistry(),
		shards:  make(map[string]*shard, len(cfg.Daemons)),
		owners:  make(map[string][]string),
		started: time.Now(),
	}
	h.shardBuses = h.reg.Gauge("divotherd_shard_buses",
		"Buses currently assigned to a daemon by the consistent-hash ring.", "daemon")
	h.daemonUp = h.reg.Gauge("divotherd_daemon_up",
		"1 while the daemon answers health probes, 0 while it is considered dead.", "daemon")
	h.fanoutDur = h.reg.Histogram("divotherd_fanout_seconds",
		"Wall-clock duration of one fanned-out upstream call.",
		telemetry.DurationBuckets, "daemon", "op")
	h.attests = h.reg.Counter("divotherd_attest_total",
		"Federated attestation requests by outcome (complete/partial).", "outcome")
	h.rebalances = h.reg.Counter("divotherd_rebalance_total",
		"Assignment re-balances (a daemon died, rejoined, or changed its fleet).").With()

	seen := make(map[string]bool, len(cfg.Daemons))
	for _, d := range cfg.Daemons {
		if seen[d.Name] {
			return nil, fmt.Errorf("duplicate daemon name %q", d.Name)
		}
		seen[d.Name] = true
		opts := []client.Option{client.WithUserAgent("divotherd/1")}
		if cfg.Timeout > 0 {
			opts = append(opts, client.WithTimeout(cfg.Timeout))
		}
		if cfg.Retry.MaxAttempts > 0 {
			opts = append(opts, client.WithRetryPolicy(cfg.Retry))
		}
		c, err := client.New(d.Addr, opts...)
		if err != nil {
			return nil, fmt.Errorf("daemon %s: %w", d.Name, err)
		}
		h.shards[d.Name] = &shard{name: d.Name, addr: d.Addr, c: c, buses: map[string]bool{}}
		h.multi.Set(d.Name, c)
		h.ring.Add(d.Name)
	}

	if err := h.probeOnce(ctx); err != nil {
		return nil, err
	}
	h.mu.RLock()
	up := 0
	for _, s := range h.shards {
		if s.up {
			up++
		}
	}
	h.mu.RUnlock()
	if up == 0 {
		return nil, fmt.Errorf("none of the %d daemons is reachable", len(cfg.Daemons))
	}
	return h, nil
}

// probeOnce runs one liveness sweep: every daemon's /healthz is probed
// concurrently; a daemon coming up (re)discovers its bus set, a daemon going
// down is removed from assignment. Probe failures are per-daemon state, not
// errors — the only error is a federation-id contradiction, and only during
// the initial discovery (NewHerd); later contradictions keep the daemon
// down.
func (h *Herd) probeOnce(ctx context.Context) error {
	outcomes := h.multi.Health(ctx)
	var firstErr error
	changed := false
	for name, o := range outcomes {
		timer := time.Now()
		switch {
		case o.Err != nil:
			if h.setDown(name, o.Err.Error()) {
				changed = true
			}
		case h.fedMismatch(o.View.FederationID):
			err := fmt.Errorf("daemon %s belongs to federation %q, this herd is %q",
				name, o.View.FederationID, h.cfg.FederationID)
			if firstErr == nil {
				firstErr = err
			}
			if h.setDown(name, err.Error()) {
				changed = true
			}
		default:
			wasUp := h.isUp(name)
			if !wasUp {
				// Revival: the bus set may have changed while it was away.
				links, err := h.shards[name].c.Links(ctx)
				if err != nil {
					h.setDown(name, err.Error())
					continue
				}
				h.setUp(name, links, o.View.FleetOK)
				changed = true
			} else {
				h.setFleetOK(name, o.View.FleetOK)
			}
		}
		h.fanoutDur.With(name, "probe").Observe(time.Since(timer).Seconds())
	}
	if changed {
		h.rebalanced()
	}
	if h.anyUp() {
		return nil // a live majority beats a misconfigured straggler
	}
	return firstErr
}

// fedMismatch reports whether a daemon's federation id contradicts the
// herd's (empty on either side matches anything).
func (h *Herd) fedMismatch(daemonFed string) bool {
	return daemonFed != "" && h.cfg.FederationID != "" && daemonFed != h.cfg.FederationID
}

func (h *Herd) isUp(name string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := h.shards[name]
	return s != nil && s.up
}

func (h *Herd) anyUp() bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, s := range h.shards {
		if s.up {
			return true
		}
	}
	return false
}

// setDown marks a daemon dead, reporting whether that is a transition.
func (h *Herd) setDown(name, why string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.shards[name]
	if s == nil {
		return false
	}
	trans := s.up
	s.up = false
	s.fleetOK = false
	s.lastErr = why
	h.daemonUp.With(name).Set(0)
	return trans
}

// setUp installs a revived daemon's bus set and recomputes the owner index.
func (h *Herd) setUp(name string, links []client.LinkSummary, fleetOK bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.shards[name]
	if s == nil {
		return
	}
	s.up = true
	s.fleetOK = fleetOK
	s.lastErr = ""
	s.buses = make(map[string]bool, len(links))
	for _, l := range links {
		s.buses[l.ID] = true
	}
	h.daemonUp.With(name).Set(1)
	h.reindexLocked()
}

func (h *Herd) setFleetOK(name string, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.shards[name]; s != nil {
		s.fleetOK = ok
	}
}

// reindexLocked rebuilds the bus union and owner index. Caller holds h.mu.
func (h *Herd) reindexLocked() {
	h.owners = make(map[string][]string)
	for name, s := range h.shards {
		for b := range s.buses {
			h.owners[b] = append(h.owners[b], name)
		}
	}
	h.buses = make([]string, 0, len(h.owners))
	for b, names := range h.owners {
		sort.Strings(names)
		h.buses = append(h.buses, b)
	}
	sort.Strings(h.buses)
}

// rebalanced recounts per-shard assignments after a liveness or fleet
// change and updates the divotherd_shard_buses gauges.
func (h *Herd) rebalanced() {
	h.rebalances.Inc()
	h.mu.RLock()
	counts := make(map[string]int, len(h.shards))
	for _, b := range h.buses {
		if name, ok := h.assignLocked(b); ok {
			counts[name]++
		}
	}
	names := make([]string, 0, len(h.shards))
	for name := range h.shards {
		names = append(names, name)
	}
	h.mu.RUnlock()
	for _, name := range names {
		h.shardBuses.With(name).Set(float64(counts[name]))
	}
}

// assignLocked picks the daemon responsible for a bus: the first live owner
// clockwise of the bus's ring position. Caller holds h.mu (read suffices).
func (h *Herd) assignLocked(bus string) (string, bool) {
	return h.ring.Pick(bus, func(name string) bool {
		s := h.shards[name]
		return s != nil && s.up && s.buses[bus]
	})
}

// Assign resolves a bus's current daemon (for tests and the HTTP layer).
func (h *Herd) Assign(bus string) (string, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.assignLocked(bus)
}

// planFor groups targets by assigned daemon, preserving request order inside
// each group, and returns the buses no live daemon serves.
func (h *Herd) planFor(targets []string) (plan map[string][]string, unassigned []string) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	plan = make(map[string][]string)
	for _, b := range targets {
		if name, ok := h.assignLocked(b); ok {
			plan[name] = append(plan[name], b)
		} else {
			unassigned = append(unassigned, b)
		}
	}
	return plan, unassigned
}

// Attest runs a federated batch attestation: targets are resolved against
// the fleet (every known bus when ids is empty), grouped by assigned daemon,
// fanned out concurrently under the in-flight budget, and merged back into
// request order with per-verdict shard attribution. A failing shard is
// marked down (re-balancing its buses for subsequent requests) and its buses
// are reported in the partial-error envelope of this response — never as
// fabricated verdicts.
func (h *Herd) Attest(ctx context.Context, ids []string) (attest.FederatedAttestResponse, *attest.Error) {
	var targets []string
	if len(ids) == 0 {
		h.mu.RLock()
		targets = append([]string(nil), h.buses...)
		h.mu.RUnlock()
	} else {
		h.mu.RLock()
		for _, id := range ids {
			if _, known := h.owners[id]; !known {
				h.mu.RUnlock()
				return attest.FederatedAttestResponse{}, &attest.Error{
					Code:    attest.CodeUnknownLink,
					Message: fmt.Sprintf("unknown bus %q", id),
				}
			}
		}
		h.mu.RUnlock()
		targets = ids
	}

	plan, unassigned := h.planFor(targets)
	start := time.Now()
	outcomes := h.multi.Attest(ctx, plan)
	for name := range plan {
		h.fanoutDur.With(name, "attest").Observe(time.Since(start).Seconds())
	}

	byBus := make(map[string]attest.AuthReport, len(targets))
	failed := make(map[string]error)
	rebalance := false
	for name, o := range outcomes {
		if o.Err != nil {
			failed[name] = o.Err
			// An answer too large to read still came from a live daemon.
			if !errors.Is(o.Err, client.ErrResponseTooLarge) && h.setDown(name, o.Err.Error()) {
				rebalance = true
			}
			continue
		}
		for _, rep := range o.Resp.Results {
			rep.Daemon = name
			byBus[rep.ID] = rep
		}
	}
	if rebalance {
		h.rebalanced()
	}

	resp := attest.FederatedAttestResponse{
		Results:     make([]attest.AuthReport, 0, len(targets)),
		AllAccepted: true,
		Shards:      h.shardStatuses(),
	}
	for _, b := range targets {
		rep, ok := byBus[b]
		if !ok {
			continue // covered by the error envelope below
		}
		if !rep.Accepted {
			resp.AllAccepted = false
		}
		resp.Results = append(resp.Results, rep)
	}
	names := make([]string, 0, len(failed))
	for name := range failed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		resp.Errors = append(resp.Errors, attest.ShardError{
			Daemon:  name,
			Code:    errCode(failed[name]),
			Message: failed[name].Error(),
			Links:   plan[name],
		})
	}
	if len(unassigned) > 0 {
		resp.Errors = append(resp.Errors, attest.ShardError{
			Code:    attest.CodeUnavailable,
			Message: "no live daemon serves these buses",
			Links:   unassigned,
		})
	}
	resp.Complete = len(resp.Results) == len(targets)
	if !resp.Complete {
		resp.AllAccepted = false
		h.attests.With("partial").Inc()
	} else {
		h.attests.With("complete").Inc()
	}
	return resp, nil
}

// History proxies one bus's durable score history from its assigned daemon.
// The herd holds no history of its own — the samples live in the daemon's
// WAL — so this is a pure passthrough with the usual federation semantics:
// unknown buses are named as such, a bus whose every owner is down is
// unavailable, and a shard failing mid-call is marked down for re-balance.
func (h *Herd) History(ctx context.Context, id string) (attest.HistoryResponse, *attest.Error) {
	h.mu.RLock()
	_, known := h.owners[id]
	h.mu.RUnlock()
	if !known {
		return attest.HistoryResponse{}, &attest.Error{
			Code:    attest.CodeUnknownLink,
			Message: fmt.Sprintf("unknown bus %q", id),
		}
	}
	name, ok := h.Assign(id)
	if !ok {
		return attest.HistoryResponse{}, &attest.Error{
			Code:    attest.CodeUnavailable,
			Message: fmt.Sprintf("no live daemon serves bus %q", id),
		}
	}
	h.mu.RLock()
	c := h.shards[name].c
	h.mu.RUnlock()
	start := time.Now()
	samples, err := c.History(ctx, id)
	h.fanoutDur.With(name, "history").Observe(time.Since(start).Seconds())
	if err != nil {
		// A structured 4xx is the daemon answering fine (e.g. it dropped the
		// bus from its spec); only transport faults and 5xx mark it down.
		var aerr *client.APIError
		if !errors.As(err, &aerr) || aerr.Status >= 500 {
			if h.setDown(name, err.Error()) {
				h.rebalanced()
			}
		}
		return attest.HistoryResponse{}, &attest.Error{
			Code:    errCode(err),
			Message: fmt.Sprintf("daemon %s: %v", name, err),
		}
	}
	if samples == nil {
		samples = []attest.HistorySample{}
	}
	return attest.HistoryResponse{Link: id, Samples: samples}, nil
}

// errCode maps a fan-out failure to the wire error code that best describes
// it: structured daemon answers keep their code, everything else (transport
// faults, timeouts, dead daemons) is "unavailable".
func errCode(err error) string {
	var aerr *client.APIError
	if errors.As(err, &aerr) {
		return aerr.Code
	}
	return attest.CodeUnavailable
}

// shardStatuses snapshots every daemon's standing, sorted by name, with the
// current per-daemon assignment counts.
func (h *Herd) shardStatuses() []attest.ShardStatus {
	h.mu.RLock()
	defer h.mu.RUnlock()
	counts := make(map[string]int, len(h.shards))
	for _, b := range h.buses {
		if name, ok := h.assignLocked(b); ok {
			counts[name]++
		}
	}
	out := make([]attest.ShardStatus, 0, len(h.shards))
	for _, s := range h.shards {
		out = append(out, attest.ShardStatus{
			Daemon: s.name, Addr: s.addr, Up: s.up, Buses: counts[s.name],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Daemon < out[j].Daemon })
	return out
}

// HerdHealth builds the federated /v1/health rollup: one probe plus one
// fleet-health fetch per daemon, each bus reported once by its assigned
// daemon.
func (h *Herd) HerdHealth(ctx context.Context) attest.HerdHealthResponse {
	// probeOnce refreshes liveness; a federation contradiction surfaces per
	// daemon in the rollup below, so its error needs no separate channel.
	_ = h.probeOnce(ctx)
	fleet := h.multi.FleetHealth(ctx)

	h.mu.RLock()
	defer h.mu.RUnlock()
	resp := attest.HerdHealthResponse{
		FederationID: h.cfg.FederationID,
		Daemons:      make([]attest.DaemonHealth, 0, len(h.shards)),
		Links:        []attest.LinkHealthView{},
		Complete:     true,
	}
	names := make([]string, 0, len(h.shards))
	for name := range h.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	views := make(map[string]attest.LinkHealthView)
	for _, name := range names {
		s := h.shards[name]
		dh := attest.DaemonHealth{
			Daemon: name, Addr: s.addr, Up: s.up,
			Buses: len(s.buses), FleetOK: s.fleetOK, Error: s.lastErr,
		}
		fo := fleet[name]
		switch {
		case !s.up:
			resp.Complete = false
		case fo.Err != nil:
			resp.Complete = false
			dh.Error = fo.Err.Error()
		default:
			for _, lv := range fo.Links {
				if owner, ok := h.assignLocked(lv.ID); ok && owner == name {
					views[lv.ID] = lv
				}
			}
		}
		resp.Daemons = append(resp.Daemons, dh)
	}
	for _, b := range h.buses {
		if lv, ok := views[b]; ok {
			resp.Links = append(resp.Links, lv)
		} else {
			resp.Complete = false
		}
	}
	return resp
}

// HealthSummary is the herd's own /healthz: fleet size is the bus union,
// fleet_ok demands every daemon up and every daemon's own fleet ok.
func (h *Herd) HealthSummary() attest.HealthView {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ok := true
	for _, s := range h.shards {
		if !s.up || !s.fleetOK {
			ok = false
		}
	}
	return attest.HealthView{
		Status:       "ok",
		Buses:        len(h.buses),
		FleetOK:      ok,
		UptimeS:      time.Since(h.started).Seconds(),
		FederationID: h.cfg.FederationID,
	}
}

// probeLoop re-probes the pack until ctx ends, reviving daemons that come
// back and retiring ones that die between requests.
func (h *Herd) probeLoop(ctx context.Context) {
	t := time.NewTicker(h.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			h.probeOnce(ctx) //nolint:errcheck // per-daemon state, not fatal
		}
	}
}
