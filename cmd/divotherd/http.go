package main

import (
	"net/http"

	"divot/internal/attest"
)

// Handler returns the aggregator's HTTP API. It speaks the same v1 envelope
// as divotd, and its POST /v1/attest answer is a strict superset of the
// daemon's — existing clients (divotctl, the SDK's Attest) work unchanged
// against a herd; federation-aware callers decode the extra shard fields.
func (h *Herd) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", h.handleHealthz)
	mux.HandleFunc("GET /metrics", h.handleMetrics)
	mux.HandleFunc("GET /v1/health", h.handleHerdHealth)
	mux.HandleFunc("GET /v1/daemons", h.handleDaemons)
	mux.HandleFunc("POST /v1/attest", h.handleAttest)
	mux.HandleFunc("GET /v1/stream", h.handleStream)
	mux.HandleFunc("GET /v1/links/{id}/history", h.handleHistory)
	return mux
}

func (h *Herd) handleHistory(w http.ResponseWriter, r *http.Request) {
	resp, werr := h.History(r.Context(), r.PathValue("id"))
	if werr != nil {
		attest.WriteError(w, werr.Code, "%s", werr.Message)
		return
	}
	attest.WriteData(w, http.StatusOK, resp)
}

func (h *Herd) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	attest.WriteData(w, http.StatusOK, h.HealthSummary())
}

func (h *Herd) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	h.reg.WritePrometheus(w) //nolint:errcheck // client gone mid-scrape
}

func (h *Herd) handleHerdHealth(w http.ResponseWriter, r *http.Request) {
	attest.WriteData(w, http.StatusOK, h.HerdHealth(r.Context()))
}

func (h *Herd) handleDaemons(w http.ResponseWriter, _ *http.Request) {
	h.mu.RLock()
	fed := h.cfg.FederationID
	h.mu.RUnlock()
	attest.WriteData(w, http.StatusOK, attest.DaemonsResponse{
		FederationID: fed,
		Daemons:      h.shardStatuses(),
	})
}

func (h *Herd) handleAttest(w http.ResponseWriter, r *http.Request) {
	req, err := attest.ReadAttestRequest(r.Body)
	if err != nil {
		attest.WriteError(w, attest.CodeBadRequest, "parsing attest request: %v", err)
		return
	}
	resp, werr := h.Attest(r.Context(), req.Links)
	if werr != nil {
		attest.WriteError(w, werr.Code, "%s", werr.Message)
		return
	}
	attest.WriteData(w, http.StatusOK, resp)
}
