package daemon

import (
	"net/http"
	"time"

	"divot"
	"divot/internal/attest"
)

// view snapshots a bus under its lock.
func (d *Daemon) view(ls *linkState) attest.LinkSummary {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	h := ls.link.Health()
	return attest.LinkSummary{
		ID:         ls.id,
		Rounds:     ls.link.Rounds(),
		Health:     h.State().String(),
		Reaction:   ls.reactor.State().String(),
		CPUGate:    ls.link.CPU.Gate.Authorized(),
		ModuleGate: ls.link.Module.Gate.Authorized(),
		CPUScore:   h.CPU.LastScore,
		Alerts:     len(ls.link.Alerts),
	}
}

// Handler returns the daemon's HTTP API. It is exposed (rather than buried in
// Run) so tests can drive the API through httptest without binding a socket.
// Every JSON response travels in the attest v1 envelope; the wire schema
// lives in internal/attest, shared with the divot/client SDK.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /v1/health", d.handleFleetHealth)
	mux.HandleFunc("GET /v1/links", d.handleLinks)
	mux.HandleFunc("GET /v1/links/{id}/alerts", d.handleAlerts)
	mux.HandleFunc("GET /v1/links/{id}/history", d.handleHistory)
	mux.HandleFunc("GET /v1/stream", d.handleStream)
	mux.HandleFunc("POST /v1/links/{id}/authenticate", d.handleAuthenticate)
	mux.HandleFunc("POST /v1/attest", d.handleAttest)
	return d.gateReady(mux)
}

// gateReady rejects requests while the fleet is still warming up (restore or
// calibration in progress). Only /readyz — the progress report itself — and
// /metrics pass through; everything else answers 503 with a Retry-After
// header so well-behaved clients (the SDK honors it) back off instead of
// hammering a booting daemon.
func (d *Daemon) gateReady(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !d.ready.Load() {
			switch r.URL.Path {
			case "/readyz", "/metrics":
			default:
				w.Header().Set("Retry-After", "1")
				attest.WriteError(w, attest.CodeUnavailable,
					"daemon warming up: %d/%d buses ready",
					d.calibratedN.Load(), len(d.links))
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// lookup resolves the {id} path segment, answering 404 itself on a miss.
func (d *Daemon) lookup(w http.ResponseWriter, r *http.Request) (*linkState, bool) {
	id := r.PathValue("id")
	ls, ok := d.byID[id]
	if !ok {
		attest.WriteError(w, attest.CodeUnknownLink, "unknown bus %q", id)
	}
	return ls, ok
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// The daemon is healthy when every scheduler can still take a bus lock —
	// which the per-link views below already prove by snapshotting. fleet_ok
	// means every bus still authenticates: "degraded" (benign dead-bin
	// masking at reduced resolution) still passes; only "failed" does not.
	fleetOK := true
	for _, ls := range d.links {
		if d.view(ls).Health == divot.HealthFailed.String() {
			fleetOK = false
		}
	}
	attest.WriteData(w, http.StatusOK, attest.HealthView{
		Status:       "ok",
		Buses:        len(d.links),
		FleetOK:      fleetOK,
		UptimeS:      time.Since(d.started).Seconds(),
		FederationID: d.spec.FederationID,
	})
}

// handleReadyz reports startup progress. It answers 200 from the moment the
// socket binds — readiness is in the payload, not the status code — so
// orchestration (and daemon_smoke.sh) polls one URL whether the fleet is
// restoring in milliseconds or calibrating for a minute.
func (d *Daemon) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	attest.WriteData(w, http.StatusOK, attest.ReadyView{
		Ready:      d.ready.Load(),
		Calibrated: int(d.calibratedN.Load()),
		WarmLoaded: int(d.warmN.Load()),
		Total:      len(d.links),
	})
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	d.reg.WritePrometheus(w) //nolint:errcheck // client gone mid-scrape
}

// handleFleetHealth serves the full per-endpoint condition of every
// calibrated bus. With the attestation cache enabled, buses whose cached
// view is fresh are reported from it and only the stale ones are locked and
// snapshotted; with the cache disabled (max_staleness_ms 0) the whole fleet
// is locked and snapshotted between rounds, the original semantics.
// System.HealthAll guarantees a non-nil slice, so an all-uncalibrated fleet
// encodes "links": [] (regression-tested — it used to render null).
func (d *Daemon) handleFleetHealth(w http.ResponseWriter, _ *http.Request) {
	if d.maxStale > 0 {
		views := make([]attest.LinkHealthView, 0, len(d.links))
		for _, ls := range d.sortedLinks() {
			_, hv, ok := ls.cached(d.maxStale)
			if !ok {
				ls.mu.Lock()
				hv = healthView(ls)
				ls.mu.Unlock()
			}
			views = append(views, hv)
		}
		attest.WriteData(w, http.StatusOK, attest.FleetHealthResponse{
			FederationID: d.spec.FederationID, Links: views,
		})
		return
	}
	for _, ls := range d.links {
		ls.mu.Lock() // snapshot between rounds, not mid-round
	}
	views := attest.LinkHealthViews(d.sys.HealthAll())
	for _, ls := range d.links {
		ls.mu.Unlock()
	}
	attest.WriteData(w, http.StatusOK, attest.FleetHealthResponse{
		FederationID: d.spec.FederationID, Links: views,
	})
}

func (d *Daemon) handleLinks(w http.ResponseWriter, _ *http.Request) {
	views := make([]attest.LinkSummary, 0, len(d.links))
	for _, ls := range d.sortedLinks() {
		views = append(views, d.view(ls))
	}
	attest.WriteData(w, http.StatusOK, attest.LinksResponse{Links: views})
}

func (d *Daemon) handleAlerts(w http.ResponseWriter, r *http.Request) {
	ls, ok := d.lookup(w, r)
	if !ok {
		return
	}
	events := ls.snapshotAlerts()
	attest.WriteData(w, http.StatusOK, attest.EventsResponse{Link: ls.id, Events: events})
}

func (d *Daemon) handleHistory(w http.ResponseWriter, r *http.Request) {
	ls, ok := d.lookup(w, r)
	if !ok {
		return
	}
	attest.WriteData(w, http.StatusOK, attest.HistoryResponse{
		Link: ls.id, Samples: ls.snapshotHistory(),
	})
}

func (d *Daemon) handleAuthenticate(w http.ResponseWriter, r *http.Request) {
	ls, ok := d.lookup(w, r)
	if !ok {
		return
	}
	attest.WriteData(w, http.StatusOK, d.attestOne(ls))
}

// handleAttest serves batch remote attestation: one read-only spot check per
// requested bus (every bus when the request names none), serialized with
// each bus's scheduler. The results come back in request order — fleet id
// order for the whole-fleet form — so retries of the same request are
// byte-comparable.
func (d *Daemon) handleAttest(w http.ResponseWriter, r *http.Request) {
	req, err := attest.ReadAttestRequest(r.Body)
	if err != nil {
		attest.WriteError(w, attest.CodeBadRequest, "parsing attest request: %v", err)
		return
	}
	var targets []*linkState
	if len(req.Links) == 0 {
		targets = d.sortedLinks()
	} else {
		targets = make([]*linkState, 0, len(req.Links))
		for _, id := range req.Links {
			ls, ok := d.byID[id]
			if !ok {
				attest.WriteError(w, attest.CodeUnknownLink, "unknown bus %q", id)
				return
			}
			targets = append(targets, ls)
		}
	}
	resp := attest.AttestResponse{
		Results:     make([]attest.AuthReport, 0, len(targets)),
		AllAccepted: true,
	}
	for _, ls := range targets {
		rep := d.attestOne(ls)
		if !rep.Accepted {
			resp.AllAccepted = false
		}
		resp.Results = append(resp.Results, rep)
	}
	attest.WriteData(w, http.StatusOK, resp)
}

// attestOne answers one bus's attestation. When the bus's cached last-round
// view is younger than the spec's max_staleness_ms bound it is served
// directly — no bus lock, no measurement; otherwise (and always when the
// cache is disabled) a read-only spot check runs, serialized with the
// scheduler (the engine is not safe for concurrent rounds on one link), and
// its result becomes the new cached view.
func (d *Daemon) attestOne(ls *linkState) attest.AuthReport {
	if rep, _, ok := ls.cached(d.maxStale); ok {
		d.cacheHits.With(ls.id).Inc()
		rep.Cached = true
		return rep
	}
	d.cacheMiss.With(ls.id).Inc()
	ls.mu.Lock()
	res := ls.link.Authenticate()
	rep := attest.AuthReport{
		ID:             ls.id,
		Accepted:       res.Accepted,
		Score:          res.Score,
		Tampered:       res.Tampered,
		TamperPosition: res.TamperPosition,
		Health:         ls.link.Health().State().String(),
	}
	hv := healthView(ls)
	ls.mu.Unlock()
	if d.maxStale > 0 {
		ls.refreshCache(rep, hv)
	}
	return rep
}
