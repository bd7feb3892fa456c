package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"divot/internal/attest"
	"divot/internal/wire"
)

// stubDaemon serves a fixed fleet: clean0 accepted, victim interposed and
// rejected. Fixed numbers keep the --json output byte-stable for the golden
// comparison.
func stubDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	attestResp := attest.AttestResponse{
		Results: []attest.AuthReport{
			{ID: "clean0", Accepted: true, Score: 0.9987, Health: "ok"},
			{ID: "victim", Accepted: false, Score: 0.41, Tampered: true, TamperPosition: 0.35, Health: "failed"},
		},
		AllAccepted: false,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/attest", func(w http.ResponseWriter, r *http.Request) {
		attest.WriteData(w, http.StatusOK, attestResp)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		attest.WriteData(w, http.StatusOK, attest.HealthView{Status: "ok", Buses: 2, FleetOK: false, UptimeS: 12})
	})
	mux.HandleFunc("GET /v1/links", func(w http.ResponseWriter, r *http.Request) {
		attest.WriteData(w, http.StatusOK, attest.LinksResponse{Links: []attest.LinkSummary{
			{ID: "clean0", Rounds: 40, Health: "ok", Reaction: "alert_and_block", CPUGate: true, ModuleGate: true, CPUScore: 0.9987},
			{ID: "victim", Rounds: 40, Health: "failed", Reaction: "alert_and_block", Alerts: 12, CPUScore: 0.41},
		}})
	})
	mux.HandleFunc("GET /v1/links/{id}/history", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") != "victim" {
			attest.WriteError(w, attest.CodeUnknownLink, "unknown bus")
			return
		}
		attest.WriteData(w, http.StatusOK, attest.HistoryResponse{Link: "victim", Samples: []attest.HistorySample{
			{Round: 2, Score: 0.9981, Health: "ok", Reaction: "normal", Verdict: "ok"},
			{Round: 3, Score: 0.41, Health: "failed", Reaction: "alert_and_block", Verdict: "auth-failure"},
		}})
	})
	// The binary multiplexed stream divotctl watch subscribes to.
	mux.HandleFunc("GET /v1/stream", func(w http.ResponseWriter, r *http.Request) {
		sub, err := wire.ParseSubscribeRequest(r)
		if err != nil {
			attest.WriteError(w, attest.CodeBadRequest, "%v", err)
			return
		}
		events := map[string][]attest.Event{
			"clean0": {{Seq: 1, Kind: "health", Link: "clean0", Side: "cpu", Round: 40}},
			"victim": {
				{Seq: 5, Kind: "alert", Link: "victim", Side: "cpu", Round: 3, Score: 0.41},
				{Seq: 6, Kind: "gate", Link: "victim", Side: "cpu", Round: 3, From: "open", To: "closed"},
			},
		}
		links := sub.Links
		if len(links) == 0 {
			links = []string{"clean0", "victim"}
		}
		for _, id := range links {
			if _, ok := events[id]; !ok {
				attest.WriteError(w, attest.CodeUnknownLink, "unknown bus %q", id)
				return
			}
		}
		w.Header().Set("Content-Type", wire.ContentType)
		w.WriteHeader(http.StatusOK)
		hello, _ := json.Marshal(wire.Hello{Links: links})
		buf := wire.AppendFrame(nil, wire.FrameHello, hello)
		kindOK := func(kind string) bool {
			if len(sub.Kinds) == 0 {
				return true
			}
			for _, k := range sub.Kinds {
				if k == kind {
					return true
				}
			}
			return false
		}
		for _, id := range links {
			for _, ev := range events[id] {
				if ev.Seq > sub.After[id] && kindOK(ev.Kind) {
					buf = wire.AppendEventFrame(buf, ev)
				}
			}
		}
		w.Write(buf) //nolint:errcheck // test server
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func runCtl(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestAttestJSONGolden pins the machine-readable attest output byte-for-byte
// — the contract scripts parse — and the rejected-fleet exit code.
func TestAttestJSONGolden(t *testing.T) {
	srv := stubDaemon(t)
	code, out, errOut := runCtl(t, "-addr", srv.URL, "-json", "attest")
	if code != exitRejected {
		t.Errorf("exit = %d, want %d (victim rejected); stderr: %s", code, exitRejected, errOut)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "attest_json.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("--json attest output drifted from golden.\ngot:\n%s\nwant:\n%s", out, golden)
	}
}

func TestAttestTextVerdicts(t *testing.T) {
	srv := stubDaemon(t)
	code, out, _ := runCtl(t, "-addr", srv.URL, "attest", "clean0", "victim")
	if code != exitRejected {
		t.Errorf("exit = %d, want %d", code, exitRejected)
	}
	if !strings.Contains(out, "clean0") || !strings.Contains(out, "ACCEPTED") {
		t.Errorf("text output missing accepted verdict:\n%s", out)
	}
	if !strings.Contains(out, "victim") || !strings.Contains(out, "REJECTED") ||
		!strings.Contains(out, "tamper_at=0.350") {
		t.Errorf("text output missing rejected verdict with tamper position:\n%s", out)
	}
}

func TestHealthExitCodes(t *testing.T) {
	srv := stubDaemon(t)
	code, out, _ := runCtl(t, "-addr", srv.URL, "health")
	if code != exitRejected {
		t.Errorf("fleet_ok=false health exit = %d, want %d", code, exitRejected)
	}
	if !strings.Contains(out, "fleet_ok=false") {
		t.Errorf("health output: %s", out)
	}
}

func TestLinksText(t *testing.T) {
	srv := stubDaemon(t)
	code, out, _ := runCtl(t, "-addr", srv.URL, "links")
	if code != exitOK {
		t.Errorf("links exit = %d", code)
	}
	if !strings.Contains(out, "victim") || !strings.Contains(out, "health=failed") {
		t.Errorf("links output: %s", out)
	}
}

// TestHistoryText renders a bus's persisted score history, one round per
// line, and refuses unknown buses with the transport exit code.
func TestHistoryText(t *testing.T) {
	srv := stubDaemon(t)
	code, out, errOut := runCtl(t, "-addr", srv.URL, "history", "victim")
	if code != exitOK {
		t.Fatalf("history exit = %d, stderr: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("history printed %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "round=2") || !strings.Contains(lines[0], "verdict=ok") {
		t.Errorf("history line 0: %s", lines[0])
	}
	if !strings.Contains(lines[1], "score=0.4100") || !strings.Contains(lines[1], "verdict=auth-failure") {
		t.Errorf("history line 1: %s", lines[1])
	}
	if code, _, _ := runCtl(t, "-addr", srv.URL, "history", "ghost"); code != exitTransport {
		t.Errorf("unknown bus history exit = %d, want %d", code, exitTransport)
	}
	if code, _, _ := runCtl(t, "-addr", srv.URL, "history"); code != exitUsage {
		t.Errorf("bare history exit = %d, want %d", code, exitUsage)
	}
}

// TestWatchMaxEvents streams two events from the stub and stops at -max 2
// with exit 0 — the smoke script's interposer capture path.
func TestWatchMaxEvents(t *testing.T) {
	srv := stubDaemon(t)
	code, out, errOut := runCtl(t, "-addr", srv.URL, "-max", "2", "watch", "victim")
	if code != exitOK {
		t.Fatalf("watch exit = %d, stderr: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("watch printed %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "[5] alert") || !strings.Contains(lines[1], "open->closed") {
		t.Errorf("watch lines:\n%s", out)
	}
}

// TestWatchMultiLinks subscribes several buses over one connection: the
// victim's two events and clean0's health event all arrive, each attributed
// to its bus.
func TestWatchMultiLinks(t *testing.T) {
	srv := stubDaemon(t)
	code, out, errOut := runCtl(t, "-addr", srv.URL, "-max", "3", "watch", "victim", "clean0")
	if code != exitOK {
		t.Fatalf("multi watch exit = %d, stderr: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("multi watch printed %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "victim") || !strings.Contains(out, "clean0") {
		t.Errorf("multi watch output missing a bus:\n%s", out)
	}
}

// TestWatchAllFlag streams the whole fleet without naming it.
func TestWatchAllFlag(t *testing.T) {
	srv := stubDaemon(t)
	code, out, errOut := runCtl(t, "-addr", srv.URL, "-all", "-max", "3", "watch")
	if code != exitOK {
		t.Fatalf("-all watch exit = %d, stderr: %s", code, errOut)
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 3 {
		t.Fatalf("-all watch printed %d lines, want 3:\n%s", len(lines), out)
	}
}

// TestWatchKindsFilter narrows the feed server-side.
func TestWatchKindsFilter(t *testing.T) {
	srv := stubDaemon(t)
	code, out, errOut := runCtl(t, "-addr", srv.URL, "-kinds", "gate", "-max", "1", "watch", "victim")
	if code != exitOK {
		t.Fatalf("kinds watch exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "[6] gate") || strings.Contains(out, "alert") {
		t.Errorf("kinds filter output:\n%s", out)
	}
}

// TestWatchJSONGolden pins the machine-readable watch output byte-for-byte —
// scripts parse this.
func TestWatchJSONGolden(t *testing.T) {
	srv := stubDaemon(t)
	code, out, errOut := runCtl(t, "-addr", srv.URL, "-json", "-max", "2", "watch", "victim")
	if code != exitOK {
		t.Fatalf("json watch exit = %d, stderr: %s", code, errOut)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "watch_json.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("--json watch output drifted from golden.\ngot:\n%s\nwant:\n%s", out, golden)
	}
}

func TestUsageErrors(t *testing.T) {
	srv := stubDaemon(t)
	for _, args := range [][]string{
		{},
		{"-addr", srv.URL, "frobnicate"},
		{"-addr", srv.URL, "alerts"},
		{"-addr", srv.URL, "watch"},
		{"-addr", srv.URL, "-all", "watch", "victim"},
		{"-addr", srv.URL, "-after", "2", "watch", "victim", "clean0"},
		{"-addr", "ftp://nope", "health"},
	} {
		if code, _, _ := runCtl(t, args...); code != exitUsage {
			t.Errorf("args %v exit = %d, want %d", args, code, exitUsage)
		}
	}
}

// TestTransportErrorExitCode: an unreachable daemon is exit 3, distinct from
// a rejection.
func TestTransportErrorExitCode(t *testing.T) {
	code, _, errOut := runCtl(t, "-addr", "http://127.0.0.1:1", "-retries", "1", "-timeout", "1s", "health")
	if code != exitTransport {
		t.Errorf("unreachable daemon exit = %d, want %d; stderr: %s", code, exitTransport, errOut)
	}
	if errOut == "" {
		t.Error("transport failure printed nothing to stderr")
	}
}

func TestUnknownBusIsTransportFailure(t *testing.T) {
	srv := stubDaemon(t)
	code, _, errOut := runCtl(t, "-addr", srv.URL, "watch", "ghost")
	if code != exitTransport {
		t.Errorf("unknown bus exit = %d, want %d", code, exitTransport)
	}
	if !strings.Contains(errOut, attest.CodeUnknownLink) {
		t.Errorf("stderr does not surface the error code: %s", errOut)
	}
}
