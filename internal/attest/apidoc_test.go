package attest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// apiDocPath is the canonical wire-protocol reference this test enforces.
const apiDocPath = "../../docs/API.md"

// goldenExamples are the doc's example payloads, keyed by the
// `<!-- api-golden: name -->` tag preceding each ```json block in API.md.
// The doc block must match json.MarshalIndent of the value here exactly —
// or, for an envelopeExample, the body the shipped envelope writer sends —
// so the reference cannot drift from the schema structs or the encoder
// without this test failing on either side.
func goldenExamples() map[string]any {
	healthView := HealthView{
		Status: "ok", Buses: 4, FleetOK: true, UptimeS: 932.5, FederationID: "prod-east",
	}
	return map[string]any{
		"envelope-success": envelopeExample{data: healthView},
		"envelope-error": envelopeExample{err: &Error{
			Code: CodeUnknownLink, Message: `unknown bus "dimm9"`,
		}},
		"healthz": healthView,
		"links": LinksResponse{Links: []LinkSummary{{
			ID: "dimm0", Rounds: 4182, Health: "ok", Reaction: "normal",
			CPUGate: true, ModuleGate: true, CPUScore: 0.9996, Alerts: 0,
		}}},
		"alerts": EventsResponse{Link: "dimm1", Events: []Event{{
			Seq: 17, Kind: "auth_mismatch", Link: "dimm1", Side: "cpu",
			Round: 2204, Score: 0.41,
		}, {
			Seq: 18, Kind: "reaction", Link: "dimm1", Round: 2204,
			From: "normal", To: "quarantine", Detail: "score 0.41 under threshold",
		}}},
		"readyz": ReadyView{
			Ready: false, Calibrated: 12, WarmLoaded: 3, Total: 1000,
		},
		"history": HistoryResponse{Link: "dimm1", Samples: []HistorySample{{
			Round: 2203, Score: 0.9996, Health: "ok", Reaction: "normal", Verdict: "ok",
		}, {
			Round: 2204, Score: 0.41, Health: "suspect", Reaction: "quarantine", Verdict: "auth-failure",
		}}},
		"authenticate": AuthReport{
			ID: "dimm0", Accepted: true, Score: 0.9996, Tampered: false,
			TamperPosition: 0, Health: "ok", Cached: true,
		},
		"attest-request": AttestRequest{Links: []string{"dimm0", "dimm1"}},
		"attest": AttestResponse{Results: []AuthReport{{
			ID: "dimm0", Accepted: true, Score: 0.9996, Health: "ok", Cached: true,
		}, {
			ID: "dimm1", Accepted: false, Score: 0.41, Tampered: true,
			TamperPosition: 0.0023, Health: "suspect",
		}}, AllAccepted: false},
		"fleet-health": FleetHealthResponse{
			FederationID: "prod-east",
			Links: []LinkHealthView{{
				ID: "dimm0", State: "ok",
				CPU:    EndpointHealthView{State: "ok", MaskedBins: 0, LastScore: 0.9996},
				Module: EndpointHealthView{State: "ok", MaskedBins: 2, MaskedFraction: 0.0058, LastScore: 0.9991},
			}},
		},
		"federated-attest": FederatedAttestResponse{
			Results: []AuthReport{{
				ID: "dimm0", Accepted: true, Score: 0.9996, Health: "ok",
				Cached: true, Daemon: "d0",
			}},
			AllAccepted: false,
			Complete:    false,
			Shards: []ShardStatus{
				{Daemon: "d0", Addr: "http://10.0.0.1:9720", Up: true, Buses: 1},
				{Daemon: "d1", Addr: "http://10.0.0.2:9720", Up: false, Buses: 0},
			},
			Errors: []ShardError{{
				Daemon: "d1", Code: CodeUnavailable,
				Message: `divotd: Post "http://10.0.0.2:9720/v1/attest": connection refused`,
				Links:   []string{"dimm1"},
			}},
		},
		"herd-health": HerdHealthResponse{
			FederationID: "prod-east",
			Daemons: []DaemonHealth{
				{Daemon: "d0", Addr: "http://10.0.0.1:9720", Up: true, Buses: 2, FleetOK: true},
				{Daemon: "d1", Addr: "http://10.0.0.2:9720", Up: false, Buses: 2,
					Error: `divotd: Get "http://10.0.0.2:9720/healthz": connection refused`},
			},
			Links: []LinkHealthView{{
				ID: "dimm0", State: "ok",
				CPU:    EndpointHealthView{State: "ok", LastScore: 0.9996},
				Module: EndpointHealthView{State: "ok", LastScore: 0.9991},
			}},
			Complete: false,
		},
		"daemons": DaemonsResponse{
			FederationID: "prod-east",
			Daemons: []ShardStatus{
				{Daemon: "d0", Addr: "http://10.0.0.1:9720", Up: true, Buses: 2},
				{Daemon: "d1", Addr: "http://10.0.0.2:9720", Up: true, Buses: 2},
			},
		},
	}
}

// envelopeExample is a doc example API.md shows as a whole response body.
// It is rendered by the shipped writer — WriteError of err when set,
// otherwise WriteData of data — not by json.MarshalIndent.
type envelopeExample struct {
	data any
	err  *Error
}

func (ex envelopeExample) write(w http.ResponseWriter) {
	if ex.err != nil {
		WriteError(w, ex.err.Code, "%s", ex.err.Message)
		return
	}
	WriteData(w, http.StatusOK, ex.data)
}

// goldenTag matches the marker comment that names the example a ```json
// block demonstrates.
var goldenTag = regexp.MustCompile(`<!--\s*api-golden:\s*([a-z0-9-]+)\s*-->`)

// extractGoldenBlocks returns tag -> JSON block body from the doc.
func extractGoldenBlocks(t *testing.T, doc string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		m := goldenTag.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		name := m[1]
		// The tagged block is the next ```json fence.
		j := i + 1
		for j < len(lines) && !strings.HasPrefix(lines[j], "```json") {
			j++
		}
		if j == len(lines) {
			t.Fatalf("API.md: tag %q has no ```json block after it", name)
		}
		var body []string
		for j++; j < len(lines) && !strings.HasPrefix(lines[j], "```"); j++ {
			body = append(body, lines[j])
		}
		if _, dup := out[name]; dup {
			t.Fatalf("API.md: tag %q appears twice", name)
		}
		out[name] = strings.Join(body, "\n")
	}
	return out
}

// TestAPIDocGolden pins every tagged example in docs/API.md to the schema
// structs: each block must byte-match json.MarshalIndent of the Go value in
// goldenExamples, or the body WriteData/WriteError sends for an envelope.
// A schema change that touches the wire format fails here until the
// reference is updated, and vice versa.
func TestAPIDocGolden(t *testing.T) {
	raw, err := os.ReadFile(apiDocPath)
	if err != nil {
		t.Fatalf("reading %s: %v", apiDocPath, err)
	}
	blocks := extractGoldenBlocks(t, string(raw))
	examples := goldenExamples()

	for name := range blocks {
		if _, ok := examples[name]; !ok {
			t.Errorf("API.md tags example %q, but the test knows no such value", name)
		}
	}
	for name, v := range examples {
		block, ok := blocks[name]
		if !ok {
			t.Errorf("API.md is missing a block tagged <!-- api-golden: %s -->", name)
			continue
		}
		var want []byte
		if ex, ok := v.(envelopeExample); ok {
			want = bytes.TrimSuffix(render(ex.write).Body.Bytes(), []byte("\n"))
		} else if want, err = json.MarshalIndent(v, "", "  "); err != nil {
			t.Fatalf("marshalling example %q: %v", name, err)
		}
		if got := strings.TrimSpace(block); got != string(want) {
			t.Errorf("API.md example %q drifted from the schema.\n--- doc:\n%s\n--- schema:\n%s",
				name, got, want)
		}
	}
}

// TestAPIDocCoversEndpoints asserts the reference documents every route both
// servers expose.
func TestAPIDocCoversEndpoints(t *testing.T) {
	raw, err := os.ReadFile(apiDocPath)
	if err != nil {
		t.Fatalf("reading %s: %v", apiDocPath, err)
	}
	doc := string(raw)
	endpoints := []string{
		// divotd
		"GET /healthz",
		"GET /readyz",
		"GET /v1/links/{id}/history",
		"GET /metrics",
		"GET /v1/health",
		"GET /v1/links",
		"GET /v1/links/{id}/alerts",
		"GET /v1/stream",
		"POST /v1/links/{id}/authenticate",
		"POST /v1/attest",
		// divotherd
		"GET /v1/daemons",
	}
	for _, ep := range endpoints {
		if !strings.Contains(doc, ep) {
			t.Errorf("API.md does not document %q", ep)
		}
	}
	// The resume cursor form and the cache marker must be covered.
	for _, needle := range []string{
		"?after=", `"cached": true`,
		// The binary stream: content type, the shell-client handshake form,
		// and the degradation metrics must all be covered.
		"application/x-divot-stream", "link:seq", "divot_stream_dropped_total",
	} {
		if !strings.Contains(doc, needle) {
			t.Errorf("API.md does not mention %q", needle)
		}
	}
}

// TestAPIDocCoversErrorCodes asserts every wire error code is documented
// together with its HTTP status.
func TestAPIDocCoversErrorCodes(t *testing.T) {
	raw, err := os.ReadFile(apiDocPath)
	if err != nil {
		t.Fatalf("reading %s: %v", apiDocPath, err)
	}
	doc := string(raw)
	for _, code := range []string{
		CodeBadRequest, CodeUnknownLink, CodeNotCalibrated, CodeUnavailable, CodeInternal,
	} {
		status := StatusFor(code)
		found := false
		for _, line := range strings.Split(doc, "\n") {
			if strings.Contains(line, "`"+code+"`") && strings.Contains(line, fmt.Sprint(status)) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("API.md does not document error code %q with status %d on one line", code, status)
		}
	}
}
