package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"divot/internal/attest"
)

// stubDaemon answers POST /v1/attest and GET /v1/links like a divotd (or a
// divotherd) whose verdicts come from judge: a bus judge rejects is rejected
// and has raised an alert. reorder swaps the first two results of every
// answer.
func stubDaemon(t *testing.T, ids []string, judge func(id string) bool, reorder bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/attest", func(w http.ResponseWriter, r *http.Request) {
		var req attest.AttestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !strings.Contains(err.Error(), "EOF") {
			attest.WriteError(w, attest.CodeBadRequest, "%v", err)
			return
		}
		targets := req.Links
		if len(targets) == 0 {
			targets = ids
		}
		resp := attest.FederatedAttestResponse{Complete: true, AllAccepted: true}
		for _, id := range targets {
			ok := judge(id)
			resp.AllAccepted = resp.AllAccepted && ok
			resp.Results = append(resp.Results, attest.AuthReport{ID: id, Accepted: ok, Score: 1, Health: "ok", Daemon: "d0"})
		}
		if reorder && len(resp.Results) > 1 {
			resp.Results[0], resp.Results[1] = resp.Results[1], resp.Results[0]
		}
		attest.WriteData(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/links", func(w http.ResponseWriter, _ *http.Request) {
		resp := attest.LinksResponse{}
		for _, id := range ids {
			alerts := 0
			if !judge(id) {
				alerts = 1
			}
			resp.Links = append(resp.Links, attest.LinkSummary{ID: id, Alerts: alerts})
		}
		attest.WriteData(w, http.StatusOK, resp)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// checkAgainst drives a short burst of the workload's real load against a
// stub and returns the checker's verdict.
func checkAgainst(t *testing.T, name string, judge func(ck *checker, id string) bool, reorder bool) (verdict, bool, windowStats) {
	t.Helper()
	w := workloads[name]
	ck := newChecker(w.fleetSpecs(7, testListen(w.daemons), nil))
	srv := stubDaemon(t, ck.ids, func(id string) bool { return judge(ck, id) }, reorder)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	api, err := newAPIClient(srv.URL, hc)
	if err != nil {
		t.Fatal(err)
	}
	op := attestOp(api, ck)
	if w.fleetAttest {
		op = fleetAttestOp(api, ck)
	}
	ctx := context.Background()
	sched := w.requestSchedule(7, 20, ck.ids)
	ws := summarizeWindow(runOpenLoop(ctx, sched, 5000, w.senders, op, func(int) *tracer { return nil }))
	if err := ck.collectAlerts(ctx, hc, &fleet{daemons: []*proc{{name: "stub", url: srv.URL}}}); err != nil {
		t.Fatal(err)
	}
	v, ok := ck.finish()
	return v, ok, ws
}

func rejectsAttacked(ck *checker, id string) bool { _, attacked := ck.attacks[id]; return !attacked }
func acceptsAll(*checker, string) bool            { return true }

func TestCheckerPassesAnHonestStub(t *testing.T) {
	for _, name := range []string{"attest-measure", "herd-cached"} {
		v, ok, ws := checkAgainst(t, name, rejectsAttacked, false)
		if !ok || ws.failed != 0 {
			t.Errorf("%s: honest stub failed the checks: %s (%d requests failed)", name, v, ws.failed)
		}
	}
}

func TestCheckerFailsAStubThatAcceptsEveryBus(t *testing.T) {
	v, ok, _ := checkAgainst(t, "attest-measure", acceptsAll, false)
	if ok {
		t.Fatalf("a daemon accepting every bus passed: %s", v)
	}
	if v.MissedAttackBuses != 8 || !strings.Contains(strings.Join(v.Violations, ";"), "never rejected and never alerted") {
		t.Errorf("want all 8 interposer/wiretap buses reported missed, got %s", v)
	}
}

func TestCheckerFailsOutOfOrderResults(t *testing.T) {
	v, ok, _ := checkAgainst(t, "herd-cached", rejectsAttacked, true)
	if ok {
		t.Fatalf("out-of-order fleet answers passed: %s", v)
	}
	if !strings.Contains(strings.Join(v.Violations, ";"), "fleet attest result 0 is bus001, want bus000") {
		t.Errorf("violation does not name the misplaced result: %s", v)
	}
}

func TestCheckerCapsFalseAlarms(t *testing.T) {
	v, ok, _ := checkAgainst(t, "attest-measure", func(*checker, string) bool { return false }, false)
	if ok || v.FalseAlarmBuses != v.CleanBuses {
		t.Fatalf("a daemon rejecting every bus passed or was miscounted: %s", v)
	}
}
