package daemon

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"divot"
	"divot/internal/attest"
)

// newTestDaemon builds a calibrated daemon without running schedulers, so
// tests drive rounds synchronously via monitorOnce.
func newTestDaemon(t *testing.T, specBody string) *Daemon {
	t.Helper()
	spec, err := LoadSpec(writeSpec(t, specBody))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// postAttest POSTs a body to /v1/attest and returns status and raw body.
func postAttest(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/attest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestAttestEndpoint(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 9, "listen": "127.0.0.1:0",
		"buses": [{"id": "dimm1"}, {"id": "dimm0"}]
	}`)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Empty body → whole fleet, results in id order, all accepted.
	status, raw := postAttest(t, srv.URL, "")
	if status != http.StatusOK {
		t.Fatalf("whole-fleet attest status = %d: %s", status, raw)
	}
	var resp attest.AttestResponse
	if err := attest.ParseBody(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.AllAccepted || len(resp.Results) != 2 {
		t.Fatalf("clean fleet attest = %+v", resp)
	}
	if resp.Results[0].ID != "dimm0" || resp.Results[1].ID != "dimm1" {
		t.Errorf("whole-fleet results not in id order: %+v", resp.Results)
	}
	for _, rep := range resp.Results {
		if !rep.Accepted || rep.Score < 0.9 || rep.Health != "ok" {
			t.Errorf("clean bus report: %+v", rep)
		}
	}

	// Named subset, request order preserved.
	status, raw = postAttest(t, srv.URL, `{"links": ["dimm1"]}`)
	if status != http.StatusOK {
		t.Fatalf("subset attest status = %d: %s", status, raw)
	}
	if err := attest.ParseBody(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != "dimm1" {
		t.Errorf("subset attest = %+v", resp)
	}

	// Unknown bus → 404 unknown_link envelope.
	status, raw = postAttest(t, srv.URL, `{"links": ["ghost"]}`)
	if status != http.StatusNotFound {
		t.Errorf("unknown bus status = %d", status)
	}
	if err := attest.ParseBody(raw, nil); err == nil ||
		!strings.Contains(err.Error(), attest.CodeUnknownLink) {
		t.Errorf("unknown bus error = %v", err)
	}

	// Malformed body → 400 bad_request envelope.
	status, raw = postAttest(t, srv.URL, `{"links": 7}`)
	if status != http.StatusBadRequest {
		t.Errorf("bad body status = %d", status)
	}
	if err := attest.ParseBody(raw, nil); err == nil ||
		!strings.Contains(err.Error(), attest.CodeBadRequest) {
		t.Errorf("bad body error = %v", err)
	}
}

// TestAttestDetectsInterposer drives a scripted interposer through monitoring
// rounds and requires the batch attest endpoint to reject the attacked bus
// while accepting the clean one.
func TestAttestDetectsInterposer(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 21, "listen": "127.0.0.1:0",
		"buses": [
			{"id": "clean0"},
			{"id": "victim", "attack": {"kind": "interposer", "after_rounds": 0, "position": 0.1}}
		]
	}`)
	for i := 0; i < 4; i++ { // mount the attack and let it be confirmed
		d.monitorOnce(d.byID["victim"])
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	status, raw := postAttest(t, srv.URL, "")
	if status != http.StatusOK {
		t.Fatalf("attest status = %d: %s", status, raw)
	}
	var resp attest.AttestResponse
	if err := attest.ParseBody(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.AllAccepted {
		t.Error("fleet with interposed bus reported all_accepted")
	}
	byID := map[string]attest.AuthReport{}
	for _, rep := range resp.Results {
		byID[rep.ID] = rep
	}
	if rep := byID["victim"]; rep.Accepted {
		t.Errorf("interposed bus accepted: %+v", rep)
	}
	if rep := byID["clean0"]; !rep.Accepted {
		t.Errorf("clean bus rejected: %+v", rep)
	}
}

func TestFleetHealthEndpoint(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 5, "listen": "127.0.0.1:0",
		"buses": [{"id": "a"}, {"id": "b"}]
	}`)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var hr attest.FleetHealthResponse
	getData(t, srv.URL+"/v1/health", &hr)
	if len(hr.Links) != 2 {
		t.Fatalf("fleet health links = %+v", hr.Links)
	}
	for _, h := range hr.Links {
		if h.State != "ok" || h.CPU.State != "ok" || h.Module.State != "ok" {
			t.Errorf("calibrated bus health: %+v", h)
		}
	}
}

// TestFleetHealthEmptyEncodesEmptyList is the daemon-level regression for
// System.HealthAll returning nil: a fleet with nothing calibrated must
// encode "links": [], never null.
func TestFleetHealthEmptyEncodesEmptyList(t *testing.T) {
	sys := divot.NewSystem(1, divot.DefaultConfig())
	if _, err := sys.NewLink("raw"); err != nil { // registered, never calibrated
		t.Fatal(err)
	}
	d := &Daemon{sys: sys, heartbeat: defaultHeartbeat, stop: make(chan struct{})}
	d.ready.Store(true) // hand-built daemon: skip the warmup gate
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/health", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if bytes.Contains(rec.Body.Bytes(), []byte(`"links": null`)) {
		t.Fatalf("uncalibrated fleet encoded null: %s", rec.Body.String())
	}
	var hr attest.FleetHealthResponse
	if err := attest.ParseBody(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Links == nil || len(hr.Links) != 0 {
		t.Errorf("links = %#v, want empty non-nil", hr.Links)
	}
}
