package attest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// The retired envelope codec, kept verbatim as the oracle the one-pass codec
// must reproduce: json.Marshal of the payload, then json.Encoder with
// SetIndent over an envelope holding it as json.RawMessage, and a ParseBody
// that unmarshals the envelope and then, separately, its data.

type legacyEnvelope struct {
	V     int             `json:"v"`
	Data  json.RawMessage `json:"data,omitempty"`
	Error *Error          `json:"error,omitempty"`
}

func legacyWriteData(w http.ResponseWriter, status int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		legacyWriteError(w, CodeInternal, "encoding response: %v", err)
		return
	}
	legacyWriteEnvelope(w, status, legacyEnvelope{V: Version, Data: raw})
}

func legacyWriteError(w http.ResponseWriter, code, format string, args ...any) {
	legacyWriteEnvelope(w, StatusFor(code), legacyEnvelope{
		V:     Version,
		Error: &Error{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

func legacyWriteEnvelope(w http.ResponseWriter, status int, env legacyEnvelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(env) //nolint:errcheck // client gone mid-response
}

func legacyParseBody(body []byte, out any) error {
	var env legacyEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("attest: response is not an envelope: %w", err)
	}
	if env.V > Version {
		return fmt.Errorf("attest: server speaks protocol v%d, this client v%d", env.V, Version)
	}
	if env.Error != nil {
		return env.Error
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(env.Data, out); err != nil {
		return fmt.Errorf("attest: decoding response data: %w", err)
	}
	return nil
}

// errorClass buckets a ParseBody error the way callers tell them apart.
func errorClass(err error) string {
	var werr *Error
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &werr):
		return "error envelope " + werr.Code + ": " + werr.Message
	case strings.HasPrefix(err.Error(), "attest: response is not an envelope: "):
		return "not an envelope"
	case strings.HasPrefix(err.Error(), "attest: server speaks protocol"):
		return err.Error() // the version error names both versions
	case strings.HasPrefix(err.Error(), "attest: decoding response data: "):
		return "decoding response data"
	}
	return "unclassified: " + err.Error()
}

// render runs one envelope writer against a recorder.
func render(write func(http.ResponseWriter)) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	write(rec)
	return rec
}

// federatedAnswer is a whole-fleet answer of n cached verdicts split across
// two daemons, the body herd-cached moves on every request.
func federatedAnswer(n int) FederatedAttestResponse {
	resp := FederatedAttestResponse{AllAccepted: true, Complete: true}
	for i := 0; i < n; i++ {
		resp.Results = append(resp.Results, AuthReport{
			ID: fmt.Sprintf("dimm%06d", i), Accepted: true,
			Score: 0.99 + float64(i%97)/10000, Health: "ok", Cached: true,
			Daemon: fmt.Sprintf("d%d", i*2/n),
		})
	}
	resp.Shards = []ShardStatus{
		{Daemon: "d0", Addr: "http://127.0.0.1:9720", Up: true, Buses: n / 2},
		{Daemon: "d1", Addr: "http://127.0.0.1:9721", Up: true, Buses: n - n/2},
	}
	return resp
}

// oraclePayloads are the success payloads whose response bytes must not
// move: every API.md example, the herd's whole-fleet answer, strings that
// need escaping, empty containers, nil and unencodable values.
func oraclePayloads() map[string]any {
	out := map[string]any{
		"federated-256": federatedAnswer(256),
		"escapes": map[string]string{
			"quote": `say "hi"`, "backslash": `C:\bus\0`, "html": "<a href='x'>&amp;</a>",
			"control": "tab\there\nnewline\x00nul\x1fus\x7fdel", "separators": "line\u2028para\u2029end",
			"unicode": "µ-bus ✓ 𝛼", "invalid-utf8": "bad\xffbyte", "punct": `{[,:]}"`,
		},
		"empty-slice":      []int{},
		"nil-slice":        []string(nil),
		"empty-map":        map[string]any{},
		"nested-empty":     map[string]any{"a": []any{}, "b": map[string]any{}, "c": []any{[]any{}, map[string]any{}}},
		"empty-results":    AttestResponse{Results: []AuthReport{}},
		"nil":              nil,
		"nil-pointer":      (*HealthView)(nil),
		"scalar-number":    -1.5e-7,
		"scalar-string":    "just a string",
		"scalar-bool":      true,
		"raw-spacey":       json.RawMessage(` { "a" : [ 1 , 2 ] , "b" : "<" } `),
		"unencodable-nan":  map[string]float64{"score": math.NaN()},
		"unencodable-chan": make(chan int),
		"deep":             deepValue(40),
	}
	for name, v := range goldenExamples() {
		if ex, ok := v.(envelopeExample); ok {
			if ex.err != nil {
				continue // an error envelope: TestWriteErrorMatchesLegacyEncoder
			}
			v = ex.data
		}
		out["golden-"+name] = v
	}
	return out
}

// deepValue nests n arrays and objects, past the 32 levels appendNewline
// writes from its constant.
func deepValue(n int) any {
	var v any = "leaf"
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			v = []any{v, i}
		} else {
			v = map[string]any{"k": v}
		}
	}
	return v
}

// TestWriteDataMatchesLegacyEncoder pins the response bytes: the one-pass
// encoder must write exactly what json.Encoder with SetIndent wrote over the
// RawMessage envelope, for the same status, plus a Content-Length.
func TestWriteDataMatchesLegacyEncoder(t *testing.T) {
	for name, v := range oraclePayloads() {
		got := render(func(w http.ResponseWriter) { WriteData(w, http.StatusOK, v) })
		want := render(func(w http.ResponseWriter) { legacyWriteData(w, http.StatusOK, v) })
		checkSameResponse(t, name, got, want)
	}
}

// TestWriteErrorMatchesLegacyEncoder does the same for error envelopes,
// including messages that need escaping.
func TestWriteErrorMatchesLegacyEncoder(t *testing.T) {
	cases := map[string][2]string{
		"unknown-link": {CodeUnknownLink, `unknown bus "dimm9"`},
		"bad-request":  {CodeBadRequest, "parsing attest request: invalid character 'g' after top-level value"},
		"escapes":      {CodeInternal, "<tag> & \"quote\" \\ \u2028 \x01 \xff"},
		"empty":        {CodeUnavailable, ""},
		"unknown-code": {"something-new", "future code"},
	}
	for name, v := range goldenExamples() {
		if ex, ok := v.(envelopeExample); ok && ex.err != nil {
			cases["golden-"+name] = [2]string{ex.err.Code, ex.err.Message}
		}
	}
	for name, c := range cases {
		got := render(func(w http.ResponseWriter) { WriteError(w, c[0], "%s", c[1]) })
		want := render(func(w http.ResponseWriter) { legacyWriteError(w, c[0], "%s", c[1]) })
		checkSameResponse(t, name, got, want)
	}
}

func checkSameResponse(t *testing.T, name string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Errorf("%s: status %d, legacy %d", name, got.Code, want.Code)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s: body drifted from the legacy encoder\n--- got:\n%s\n--- legacy:\n%s",
			name, got.Body.Bytes(), want.Body.Bytes())
	}
	if ct := got.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", name, ct)
	}
	if cl, n := got.Header().Get("Content-Length"), got.Body.Len(); cl != fmt.Sprint(n) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", name, cl, n)
	}
}

// TestAppendIndentMatchesJSONIndent checks the indent loop alone against
// json.Indent on Marshal's output for every oracle payload.
func TestAppendIndentMatchesJSONIndent(t *testing.T) {
	for name, v := range oraclePayloads() {
		compact, err := json.Marshal(v)
		if err != nil {
			continue
		}
		var want bytes.Buffer
		if err := json.Indent(&want, compact, "", "  "); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := appendIndent(nil, compact); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: appendIndent\n%s\njson.Indent\n%s", name, got, want.Bytes())
		}
	}
}

// parseTargets builds fresh decode destinations; each call of ParseBody
// and of the oracle gets its own, so the results can be compared.
var parseTargets = map[string]func() any{
	"nil":       func() any { return nil },
	"federated": func() any { return new(FederatedAttestResponse) },
	"health":    func() any { return new(HealthView) },
	"any":       func() any { return new(any) },
	"map":       func() any { return new(map[string]any) },
	"slice":     func() any { return new([]int) },
	"pointer":   func() any { return new(*HealthView) },
	"number":    func() any { return new(float64) },
	"prefilled": func() any { m := map[string]any{"stale": true}; return &m },
	"value":     func() any { return HealthView{} }, // not a pointer
}

// checkParseAgrees decodes body with ParseBody and with the oracle into
// fresh targets of every kind and reports any difference in error class or,
// on success, in the decoded value. What a failed decode leaves in its
// target is unspecified (the oracle, too, leaves a payload half decoded).
func checkParseAgrees(t *testing.T, name string, body []byte) {
	t.Helper()
	for kind, mk := range parseTargets {
		got, want := mk(), mk()
		gerr, werr := ParseBody(body, got), legacyParseBody(body, want)
		if gc, wc := errorClass(gerr), errorClass(werr); gc != wc {
			t.Errorf("%s into %s: error class %q (%v), legacy %q (%v)\nbody: %q",
				name, kind, gc, gerr, wc, werr, body)
			continue
		}
		if gerr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s into %s: decoded %#v, legacy %#v\nbody: %q", name, kind, got, want, body)
		}
	}
}

// TestParseBodyMatchesLegacyDecoder pins the decode side: the same result
// and the same error class as the two-pass decoder, across success, error
// envelopes, future versions, non-envelopes, bad members, data type
// mismatches and the bodies no server writes (missing, null or repeated
// data).
func TestParseBodyMatchesLegacyDecoder(t *testing.T) {
	bodies := map[string]string{
		"success":            `{"v":1,"data":{"status":"ok","buses":4,"fleet_ok":true}}`,
		"success-scalar":     `{"v":1,"data":3.5}`,
		"success-array":      `{"v":1,"data":[1,2,3]}`,
		"error-envelope":     `{"v":1,"error":{"code":"unknown_link","message":"unknown bus \"x\""}}`,
		"error-and-data":     `{"v":1,"data":{"status":5},"error":{"code":"internal","message":"m"}}`,
		"future-v":           `{"v":2,"data":{"status":"ok"}}`,
		"future-v-bad-data":  `{"v":9,"data":"not an object"}`,
		"future-v-error":     `{"v":2,"error":{"code":"internal","message":"m"}}`,
		"data-before-v":      `{"data":{"buses":"four"},"v":7}`,
		"not-json":           `<html>502 Bad Gateway</html>`,
		"truncated":          `{"v":1,"data":{"status":"o`,
		"trailing-garbage":   `{"v":1,"data":{}}garbage`,
		"array-body":         `[1,2]`,
		"null-body":          `null`,
		"empty-body":         ``,
		"v-string":           `{"v":"x","data":{"status":"ok"}}`,
		"v-float":            `{"v":1.5,"data":{}}`,
		"v-string-late":      `{"data":{"buses":"four"},"v":"x"}`,
		"error-not-object":   `{"v":1,"error":"boom"}`,
		"data-mismatch":      `{"v":1,"data":{"buses":"four","status":"ok"}}`,
		"data-wrong-kind":    `{"v":1,"data":"a string"}`,
		"no-data":            `{"v":1}`,
		"null-data":          `{"v":1,"data":null}`,
		"repeated-data":      `{"v":1,"data":{"status":"a","buses":1},"data":{"status":"b"}}`,
		"repeated-then-null": `{"v":1,"data":{"status":"a"},"data":null}`,
		"repeated-mismatch":  `{"v":1,"data":"x","data":{"status":"b"}}`,
		"case-folded-keys":   `{"V":1,"DATA":{"status":"ok"}}`,
		"escaped-key":        `{"v":1,"d\u0061ta":{"status":"ok"},"d\u0061ta":[1]}`,
		"whitespace":         " \n{ \"v\" : 1 ,\t\"data\" : { \"status\" : \"ok\" } }\r\n",
		"nested-data-key":    `{"v":1,"x":{"data":1},"data":{"status":"ok"}}`,
	}
	for name, body := range bodies {
		checkParseAgrees(t, name, []byte(body))
	}
	// Every body the encoder writes round-trips identically too.
	for name, v := range oraclePayloads() {
		rec := render(func(w http.ResponseWriter) { WriteData(w, http.StatusOK, v) })
		checkParseAgrees(t, "written-"+name, rec.Body.Bytes())
	}
}

// FuzzEnvelope holds the codec to its oracle on arbitrary bytes: ParseBody
// must agree with the two-pass decoder on result and error class for every
// kind of target, and any payload that decodes must re-encode to the same
// bytes under both encoders.
func FuzzEnvelope(f *testing.F) {
	for _, body := range []string{
		`{"v":1,"data":{"status":"ok","buses":4}}`,
		`{"v":1,"error":{"code":"unknown_link","message":"x"}}`,
		`{"v":2,"data":[]}`, `{"v":"x"}`, `{"v":1}`, `{"v":1,"data":null}`,
		`{"v":1,"data":{"a":1},"data":{"b":2}}`, `{"DaTa":"\u2028<>&"}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(body))
	}
	rec := render(func(w http.ResponseWriter) { WriteData(w, http.StatusOK, federatedAnswer(4)) })
	f.Add(rec.Body.Bytes())
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParseAgrees(t, "fuzz", body)
		var generic any
		if ParseBody(body, &generic) == nil {
			reencodeAgrees(t, generic)
		}
		var fed FederatedAttestResponse
		if ParseBody(body, &fed) == nil {
			reencodeAgrees(t, fed)
		}
	})
}

func reencodeAgrees(t *testing.T, v any) {
	t.Helper()
	got := render(func(w http.ResponseWriter) { WriteData(w, http.StatusOK, v) })
	want := render(func(w http.ResponseWriter) { legacyWriteData(w, http.StatusOK, v) })
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("re-encoding %#v: got %d %q, legacy %d %q",
			v, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
	}
}
