// Package attest is the wire schema of the remote attestation API — the one
// definition of the v1 JSON protocol spoken between the divotd daemon and
// remote verifiers (the divot/client SDK, divotctl, curl).
//
// Every JSON response is wrapped in a versioned envelope:
//
//	{"v": 1, "data": {...}}                              success
//	{"v": 1, "error": {"code": "...", "message": "..."}} failure
//
// Error codes map 1:1 to HTTP status codes (StatusFor); clients should
// branch on the code, not the transport status. The DTO structs below are
// the payloads under "data". They are deliberately flat, value-typed, and
// made only of basic types so daemon and client cannot drift apart — the
// daemon converts engine types into them at the boundary (EventFromTelemetry,
// LinkHealthViews) and the client re-exports them by alias.
//
// Streaming: GET /v1/stream carries Events in internal/wire's binary frames,
// many links over one connection. Sequence numbers are per-link, start at 1,
// and are strictly monotonic for the daemon's lifetime; a client resumes
// after a disconnect by naming each link's last seen seq. Events older than
// the daemon's per-link retention ring cannot be replayed — a resume past the
// ring's tail draws a gap frame, and the SDK surfaces that discontinuity as a
// typed error (client.ResumeGapError) instead of delivering across the hole.
package attest

import (
	"divot/internal/core"
	"divot/internal/telemetry"
)

// Version is the wire protocol version carried in every envelope.
const Version = 1

// HealthView is the fleet liveness summary served at GET /healthz.
type HealthView struct {
	// Status is "ok" while the daemon serves.
	Status string `json:"status"`
	// Buses is the fleet size.
	Buses int `json:"buses"`
	// FleetOK is true while every bus still authenticates ("degraded" —
	// benign dead-bin masking — still passes; only "failed" does not).
	FleetOK bool `json:"fleet_ok"`
	// UptimeS is seconds since the daemon started serving.
	UptimeS float64 `json:"uptime_s"`
	// FederationID labels the federation this daemon (or aggregator)
	// belongs to; empty when not federated.
	FederationID string `json:"federation_id,omitempty"`
}

// LinkSummary is the GET /v1/links representation of one bus.
type LinkSummary struct {
	ID         string  `json:"id"`
	Rounds     uint64  `json:"rounds"`
	Health     string  `json:"health"`
	Reaction   string  `json:"reaction"`
	CPUGate    bool    `json:"cpu_gate_open"`
	ModuleGate bool    `json:"module_gate_open"`
	CPUScore   float64 `json:"cpu_score"`
	Alerts     int     `json:"alerts"`
}

// LinksResponse is the GET /v1/links payload.
type LinksResponse struct {
	Links []LinkSummary `json:"links"`
}

// ReadyView is the GET /readyz payload: startup progress. Unlike every other
// route, /readyz answers 200 from the moment the daemon binds its socket —
// before the fleet is calibrated or warm-restored — so orchestrators and
// scripts can watch Calibrated/WarmLoaded climb toward Total instead of
// polling blindly. Every other route answers 503 (code "unavailable", with a
// Retry-After header) until Ready flips true.
type ReadyView struct {
	// Ready is true once every bus is calibrated or restored and the fleet
	// schedulers are running.
	Ready bool `json:"ready"`
	// Calibrated counts buses brought up so far, warm or cold.
	Calibrated int `json:"calibrated"`
	// WarmLoaded counts the subset restored from enrollment snapshots
	// (zero calibration measurements).
	WarmLoaded int `json:"warm_loaded,omitempty"`
	// Total is the fleet size.
	Total int `json:"total"`
}

// HistorySample condenses one monitoring round into its durable outcome, as
// retained in the daemon's per-bus score history (and, with a state_dir, in
// the history WAL) and served at GET /v1/links/{id}/history.
type HistorySample struct {
	// Round is the bus's monitoring round number.
	Round uint64 `json:"round"`
	// Score is the CPU-side similarity the round measured.
	Score float64 `json:"score"`
	// Health is the bus condition after the round (ok/suspect/degraded/failed).
	Health string `json:"health"`
	// Reaction is the reactor's escalation state after the round.
	Reaction string `json:"reaction"`
	// Verdict summarizes the round's alerts: "ok", "auth-failure", "tamper",
	// or "auth-failure+tamper".
	Verdict string `json:"verdict"`
}

// HistoryResponse is the GET /v1/links/{id}/history payload: the retained
// score history of one bus, oldest first. After a warm restart the samples
// recovered from the history WAL appear here, so a verifier sees one
// continuous record across daemon generations.
type HistoryResponse struct {
	Link    string          `json:"link"`
	Samples []HistorySample `json:"samples"`
}

// Event is one bus-affecting protocol event, as retained in the daemon's
// per-link history and streamed over GET /v1/stream.
type Event struct {
	// Seq is the per-link sequence number (1-based, strictly monotonic);
	// the stream resume protocol keys on it.
	Seq    uint64  `json:"seq"`
	Kind   string  `json:"kind"`
	Link   string  `json:"link,omitempty"`
	Side   string  `json:"side,omitempty"`
	Round  uint64  `json:"round"`
	Score  float64 `json:"score,omitempty"`
	From   string  `json:"from,omitempty"`
	To     string  `json:"to,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// EventsResponse is the GET /v1/links/{id}/alerts payload: the retained
// event history of one bus, oldest first.
type EventsResponse struct {
	Link   string  `json:"link"`
	Events []Event `json:"events"`
}

// EventFromTelemetry converts an engine telemetry event into its wire form.
// The caller owns the Seq field (the engine stamps sink-local sequence
// numbers that are not the per-link feed sequence).
func EventFromTelemetry(ev telemetry.Event) Event {
	return Event{
		Seq: ev.Seq, Kind: ev.Kind.String(), Link: ev.Link, Side: ev.Side,
		Round: ev.Round, Score: ev.Score, From: ev.From, To: ev.To,
		Detail: ev.Detail,
	}
}

// AttestRequest is the POST /v1/attest body. An empty Links list (or an
// empty body) attests every bus of the fleet.
type AttestRequest struct {
	Links []string `json:"links,omitempty"`
}

// AuthReport is one bus's attestation verdict: the outcome of a read-only
// spot-check measurement against the enrolled fingerprint, plus the bus's
// monitored health at that moment.
type AuthReport struct {
	ID string `json:"id"`
	// Accepted is true only when the measurement matched the enrollment
	// with no tamper signature.
	Accepted bool `json:"accepted"`
	// Score is the CPU-side similarity (1 when no auth mismatch occurred).
	Score float64 `json:"score"`
	// Tampered flags a localized IIP change at TamperPosition meters.
	Tampered       bool    `json:"tampered"`
	TamperPosition float64 `json:"tamper_position"`
	// Health is the bus's monitored condition (ok/suspect/degraded/failed).
	Health string `json:"health"`
	// Cached is true when the verdict was served from the daemon's
	// last-round attestation cache (within its max_staleness_ms bound)
	// instead of a fresh spot-check measurement.
	Cached bool `json:"cached,omitempty"`
	// Daemon is the shard attribution in a federated response: the name of
	// the divotd instance that produced this verdict. Empty on answers from
	// a single daemon.
	Daemon string `json:"daemon,omitempty"`
}

// AttestResponse is the POST /v1/attest payload, results in request order
// (fleet order when the request named no buses).
type AttestResponse struct {
	Results []AuthReport `json:"results"`
	// AllAccepted is true when every attested bus passed.
	AllAccepted bool `json:"all_accepted"`
}

// EndpointHealthView is one endpoint's condition in GET /v1/health.
type EndpointHealthView struct {
	State          string  `json:"state"`
	MaskedBins     int     `json:"masked_bins"`
	MaskedFraction float64 `json:"masked_fraction,omitempty"`
	SuspectRounds  int     `json:"suspect_rounds,omitempty"`
	Failures       int     `json:"failures,omitempty"`
	Reenrollments  int     `json:"reenrollments,omitempty"`
	LastScore      float64 `json:"last_score"`
}

// LinkHealthView is one bus's condition in GET /v1/health.
type LinkHealthView struct {
	ID     string             `json:"id"`
	State  string             `json:"state"`
	CPU    EndpointHealthView `json:"cpu"`
	Module EndpointHealthView `json:"module"`
}

// FleetHealthResponse is the GET /v1/health payload.
type FleetHealthResponse struct {
	// FederationID labels the federation the daemon belongs to; empty when
	// not federated.
	FederationID string           `json:"federation_id,omitempty"`
	Links        []LinkHealthView `json:"links"`
}

// ShardStatus is one divotd instance's standing inside a divotherd
// federation, as reported in federated responses and GET /v1/daemons.
type ShardStatus struct {
	// Daemon is the aggregator-local name of the instance.
	Daemon string `json:"daemon"`
	// Addr is the instance's base URL.
	Addr string `json:"addr"`
	// Up reports the aggregator's current liveness verdict.
	Up bool `json:"up"`
	// Buses is how many buses the instance serves (0 while it is down and
	// its bus set is unknown).
	Buses int `json:"buses"`
}

// ShardError is one entry of the partial-failure envelope: a set of buses
// whose verdicts are missing from a federated response, and why. Daemon is
// empty when no live daemon serves the buses at all.
type ShardError struct {
	Daemon string `json:"daemon,omitempty"`
	// Code is the wire error code that best describes the failure
	// (unavailable for transport faults and dead daemons).
	Code    string `json:"code"`
	Message string `json:"message"`
	// Links are the affected bus ids, in request order.
	Links []string `json:"links"`
}

// FederatedAttestResponse is the POST /v1/attest payload served by a
// divotherd aggregator. It is a strict superset of AttestResponse — results
// are merged across shards back into request order, each verdict carrying
// its shard attribution — so single-daemon clients can decode it unchanged.
// A shard failure never fabricates a verdict: the affected buses are listed
// in Errors and Complete is false.
type FederatedAttestResponse struct {
	Results []AuthReport `json:"results"`
	// AllAccepted is true only when every requested bus was attested and
	// passed — a partial answer is never "all accepted".
	AllAccepted bool `json:"all_accepted"`
	// Complete is true when every requested bus produced a verdict.
	Complete bool `json:"complete"`
	// Shards summarizes the daemons the request fanned out to.
	Shards []ShardStatus `json:"shards,omitempty"`
	// Errors is the partial-failure envelope, one entry per failed shard.
	Errors []ShardError `json:"errors,omitempty"`
}

// DaemonHealth is one daemon's entry in a federated GET /v1/health rollup.
type DaemonHealth struct {
	Daemon string `json:"daemon"`
	Addr   string `json:"addr"`
	Up     bool   `json:"up"`
	// Buses is the daemon's fleet size.
	Buses int `json:"buses"`
	// FleetOK mirrors the daemon's own /healthz verdict (false while down).
	FleetOK bool `json:"fleet_ok"`
	// Error carries the probe failure while the daemon is down.
	Error string `json:"error,omitempty"`
}

// HerdHealthResponse is the GET /v1/health payload served by a divotherd
// aggregator: per-daemon liveness plus the merged per-bus health of every
// reachable shard, each bus reported once by its assigned daemon.
type HerdHealthResponse struct {
	FederationID string           `json:"federation_id,omitempty"`
	Daemons      []DaemonHealth   `json:"daemons"`
	Links        []LinkHealthView `json:"links"`
	// Complete is true when every daemon answered its health probe.
	Complete bool `json:"complete"`
}

// DaemonsResponse is the GET /v1/daemons payload of a divotherd aggregator.
type DaemonsResponse struct {
	FederationID string        `json:"federation_id,omitempty"`
	Daemons      []ShardStatus `json:"daemons"`
}

// LinkHealthViews converts engine health snapshots into their wire form. A
// nil input stays nil — which JSON-encodes as null, so callers feeding a
// response must hand in a non-nil (possibly empty) slice; System.HealthAll
// guarantees that.
func LinkHealthViews(in []core.LinkHealth) []LinkHealthView {
	if in == nil {
		return nil
	}
	out := make([]LinkHealthView, len(in))
	for i, h := range in {
		out[i] = LinkHealthView{
			ID:     h.ID,
			State:  h.State().String(),
			CPU:    endpointHealthView(h.CPU),
			Module: endpointHealthView(h.Module),
		}
	}
	return out
}

func endpointHealthView(h core.EndpointHealth) EndpointHealthView {
	return EndpointHealthView{
		State:          h.State.String(),
		MaskedBins:     h.MaskedBins,
		MaskedFraction: h.MaskedFraction,
		SuspectRounds:  h.SuspectRounds,
		Failures:       h.Failures,
		Reenrollments:  h.Reenrollments,
		LastScore:      h.LastScore,
	}
}
