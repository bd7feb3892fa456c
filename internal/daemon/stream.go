package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"divot/internal/attest"
)

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

// handleEvents serves one bus's live event feed as server-sent events. The
// frame format and the per-link sequence numbers are documented in
// internal/attest; ?after=N resumes past events the client has already seen.
// Replay comes from the retention ring, live delivery from a bounded
// per-subscriber queue on the bus's telemetry bus — a subscriber that cannot
// keep up loses events rather than stalling the fleet, and re-syncs by
// reconnecting with its last seen sequence number.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	ls, ok := d.lookup(w, r)
	if !ok {
		return
	}
	after := uint64(0)
	if raw := r.URL.Query().Get("after"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			attest.WriteError(w, attest.CodeBadRequest, "bad after=%q: %v", raw, err)
			return
		}
		after = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		attest.WriteError(w, attest.CodeInternal, "response writer cannot stream")
		return
	}

	d.streamSubs.Add(1)
	defer d.streamSubs.Add(-1)

	// Subscribe before snapshotting the ring: every event is then either in
	// the snapshot or on the queue (possibly both — deduplicated by seq).
	sub := ls.events.Subscribe(streamQueueCap)
	defer sub.Close()
	replay := ls.snapshotAlerts()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	last := after
	for _, ev := range replay {
		if ev.Seq <= last {
			continue
		}
		writeSSE(w, ev)
		last = ev.Seq
	}
	fl.Flush()

	heartbeat := time.NewTicker(d.heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-d.stop:
			// Daemon shutting down; the client reconnects elsewhere (or
			// later) with ?after=last.
			fmt.Fprintf(w, ": shutdown\n\n")
			fl.Flush()
			return
		case <-heartbeat.C:
			fmt.Fprintf(w, ": hb\n\n")
			fl.Flush()
		case tev, open := <-sub.Events():
			if !open {
				return
			}
			if tev.Seq <= last {
				continue
			}
			wire := attest.EventFromTelemetry(tev)
			writeSSE(w, wire)
			last = wire.Seq
			fl.Flush()
		}
	}
}

// writeSSE renders one event frame. The data line is single-line by
// construction: encoding/json escapes newlines inside strings.
func writeSSE(w http.ResponseWriter, ev attest.Event) {
	raw, err := json.Marshal(ev)
	if err != nil {
		return // can't happen for a flat struct of basic types
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, raw)
}
