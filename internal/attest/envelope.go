package attest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
)

// Error codes. Every error response carries exactly one; StatusFor maps each
// to its HTTP status. Clients branch on the code — the status is transport
// decoration.
const (
	// CodeBadRequest (400): the request was malformed (unparseable body,
	// bad query parameter).
	CodeBadRequest = "bad_request"
	// CodeUnknownLink (404): the named bus is not part of the fleet.
	CodeUnknownLink = "unknown_link"
	// CodeNotCalibrated (409): the bus exists but has no enrollment to
	// attest against.
	CodeNotCalibrated = "not_calibrated"
	// CodeUnavailable (503): the daemon is shutting down; retry elsewhere.
	CodeUnavailable = "unavailable"
	// CodeInternal (500): the daemon failed; the message is diagnostic only.
	CodeInternal = "internal"
)

// StatusFor returns the HTTP status an error code travels under. Unknown
// codes (a newer server talking to an older client's vocabulary) map to 500.
func StatusFor(code string) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeUnknownLink:
		return http.StatusNotFound
	case CodeNotCalibrated:
		return http.StatusConflict
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// Error is the wire error payload. It implements error so clients can
// surface it directly.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Envelope is the versioned wrapper around every JSON response. Exactly one
// of Data and Error is set. Data is the payload: the value WriteData
// marshals, and for ParseBody the pointer the payload decodes into.
type Envelope struct {
	V     int    `json:"v"`
	Data  any    `json:"data,omitempty"`
	Error *Error `json:"error,omitempty"`
}

// MaxBody is the largest request or response body either end reads (16 MiB).
// A body past it is rejected outright, never truncated and then misparsed.
const MaxBody = 16 << 20

// ReadAttestRequest reads a POST /v1/attest body; divotd and divotherd both
// parse it here, so they accept and refuse the same bodies. An empty body is
// the whole-fleet request. Anything else must be exactly one JSON value
// decoding into AttestRequest — trailing data is an error — and a body past
// MaxBody is refused rather than truncated.
func ReadAttestRequest(r io.Reader) (AttestRequest, error) {
	var req AttestRequest
	raw, err := io.ReadAll(io.LimitReader(r, MaxBody+1))
	if err != nil {
		return req, fmt.Errorf("reading body: %w", err)
	}
	if len(raw) > MaxBody {
		return req, fmt.Errorf("body exceeds the %d MiB cap", MaxBody>>20)
	}
	if len(raw) > 0 {
		err = json.Unmarshal(raw, &req)
	}
	return req, err
}

// WriteData renders a success envelope. Encoding failures of v itself are a
// programming error and reported as a 500 error envelope.
func WriteData(w http.ResponseWriter, status int, v any) {
	if v == nil {
		// omitempty would drop a nil payload; the wire carries "data": null.
		v = json.RawMessage("null")
	}
	writeEnvelope(w, status, Envelope{V: Version, Data: v})
}

// WriteError renders an error envelope under the code's documented status.
func WriteError(w http.ResponseWriter, code, format string, args ...any) {
	writeEnvelope(w, StatusFor(code), Envelope{
		V:     Version,
		Error: &Error{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// writeEnvelope marshals env once, indents Marshal's compact output in one
// pass (the bytes json.Encoder with SetIndent("", "  ") writes, trailing
// newline included) and sends it with its Content-Length.
func writeEnvelope(w http.ResponseWriter, status int, env Envelope) {
	compact, err := json.Marshal(env)
	if err != nil {
		// Only a payload can fail to marshal; an error envelope cannot.
		WriteError(w, CodeInternal, "encoding response: %v", err)
		return
	}
	body := append(appendIndent(make([]byte, 0, len(compact)*2), compact), '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client gone mid-response
}

// appendIndent appends src, the compact JSON json.Marshal returns, in the
// layout json.Indent(dst, src, "", "  ") produces: one member or element
// per line, two spaces per level, "key": value, and empty objects and
// arrays kept as {} and [].
func appendIndent(dst, src []byte) []byte {
	depth := 0
	opened := false // the last byte was '{' or '[' and its newline is pending
	for i := 0; i < len(src); {
		c := src[i]
		if opened {
			opened = false
			if c == '}' || c == ']' {
				dst = append(dst, c)
				i++
				continue
			}
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '{', '[':
			dst = append(dst, c)
			opened = true
			i++
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
			i++
		case ',':
			dst = appendNewline(append(dst, ','), depth)
			i++
		case ':':
			dst = append(dst, ':', ' ')
			i++
		case '"':
			end := stringEnd(src, i)
			dst = append(dst, src[i:end]...)
			i = end
		default: // a number or literal runs to the next delimiter
			end := i + 1
			for end < len(src) && !isDelim(src[end]) {
				end++
			}
			dst = append(dst, src[i:end]...)
			i = end
		}
	}
	return dst
}

const indentSpaces = "                                                                " // 32 levels

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for n := 2 * depth; n > 0; n -= len(indentSpaces) {
		dst = append(dst, indentSpaces[:min(n, len(indentSpaces))]...)
	}
	return dst
}

func isDelim(c byte) bool {
	return c == ',' || c == '}' || c == ']' || c == ':'
}

// stringEnd returns the index just past the JSON string that opens at
// b[i] == '"', or len(b) when it never closes.
func stringEnd(b []byte, i int) int {
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '"':
			return j + 1
		case '\\':
			j++ // the escaped byte cannot close the string
		}
	}
	return len(b)
}

// ParseBody unwraps an envelope: an error envelope comes back as *Error, a
// success envelope is unmarshalled into out (out may be nil to discard).
// Future protocol versions are rejected rather than misread. Failures rank
// as: a body that is not an envelope (bad JSON, a bad v or error member),
// then a future v, then the error envelope, then a payload that does not
// fit out. After a failure out may hold part of the payload.
//
// A body with exactly one non-null data member decodes in a single
// json.Unmarshal straight into out. Any other body — no data, a null one,
// or data repeated, where encoding/json keeps only the last — and a
// non-pointer out decode their last data member on its own, so the result
// is the same either way.
func ParseBody(body []byte, out any) error {
	if out == nil {
		return parseHeader(body)
	}
	data, n := lastMember(body, "data")
	if n == 1 && string(data) != "null" && isPointer(out) {
		env := Envelope{Data: out}
		err := json.Unmarshal(body, &env)
		if err == nil {
			return env.check()
		}
		// Rank the failure: the header decides first, as if data were
		// decoded after it.
		if herr := parseHeader(body); herr != nil {
			return herr
		}
		return fmt.Errorf("attest: decoding response data: %w", err)
	}
	if err := parseHeader(body); err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("attest: decoding response data: %w", err)
	}
	return nil
}

// parseHeader decodes the envelope with data skipped and returns its
// verdict: not an envelope, a future version, the error envelope, or nil.
func parseHeader(body []byte) error {
	env := Envelope{Data: new(skipJSON)}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("attest: response is not an envelope: %w", err)
	}
	return env.check()
}

func (env *Envelope) check() error {
	if env.V > Version {
		return fmt.Errorf("attest: server speaks protocol v%d, this client v%d", env.V, Version)
	}
	if env.Error != nil {
		return env.Error
	}
	return nil
}

// skipJSON accepts and discards any JSON value.
type skipJSON struct{}

func (*skipJSON) UnmarshalJSON([]byte) error { return nil }

func isPointer(v any) bool {
	rv := reflect.ValueOf(v)
	return rv.Kind() == reflect.Pointer && !rv.IsNil()
}

// lastMember scans the top-level object of body for members whose name
// encoding/json would match to the struct field name (case-insensitively,
// after unescaping) and returns the last one's value and how many there
// are. It does not validate: on malformed input the answer is meaningless
// but bounded, and the caller's json.Unmarshal reports the syntax error.
func lastMember(body []byte, name string) (val []byte, n int) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, 0
	}
	for i = skipSpace(body, i+1); i < len(body) && body[i] == '"'; {
		keyEnd := stringEnd(body, i)
		key := body[i:keyEnd]
		i = skipSpace(body, keyEnd)
		if i == len(body) || body[i] != ':' {
			break
		}
		start := skipSpace(body, i+1)
		end := valueEnd(body, start)
		if keyMatches(key, name) {
			val, n = body[start:end], n+1
		}
		i = skipSpace(body, end)
		if i == len(body) || body[i] != ',' {
			break
		}
		i = skipSpace(body, i+1)
	}
	return val, n
}

// keyMatches reports whether the quoted JSON string key names field name
// the way encoding/json matches object keys to struct fields.
func keyMatches(key []byte, name string) bool {
	if len(key) < 2 {
		return false
	}
	if bytes.IndexByte(key, '\\') < 0 {
		return bytes.EqualFold(key[1:len(key)-1], []byte(name))
	}
	var s string
	return json.Unmarshal(key, &s) == nil && strings.EqualFold(s, name)
}

// structural marks the bytes valueEnd stops at inside a container.
var structural = [256]bool{'"': true, '{': true, '}': true, '[': true, ']': true}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// valueEnd returns the index just past the JSON value starting at b[i].
func valueEnd(b []byte, i int) int {
	if i == len(b) {
		return i
	}
	switch b[i] {
	case '"':
		return stringEnd(b, i)
	case '{', '[':
		depth := 0
		for j := i; j < len(b); j++ {
			switch c := b[j]; {
			case !structural[c]:
			case c == '"':
				j = stringEnd(b, j) - 1
			case c == '{' || c == '[':
				depth++
			default:
				if depth--; depth == 0 {
					return j + 1
				}
			}
		}
		return len(b)
	}
	j := i + 1
	for j < len(b) && !isDelim(b[j]) && b[j] != ' ' && b[j] != '\t' && b[j] != '\n' && b[j] != '\r' {
		j++
	}
	return j
}
