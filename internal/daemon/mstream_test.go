package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"divot/internal/attest"
	"divot/internal/telemetry"
	"divot/internal/wire"
)

// multiClient reads binary stream frames off an open /v1/stream connection.
type multiClient struct {
	resp *http.Response
	rd   *wire.Reader
}

// openMulti connects to /v1/stream. qs is the raw query string ("" for the
// whole fleet); body, when non-empty, is sent as the JSON subscribe body.
func openMulti(t *testing.T, base, qs, body string) *multiClient {
	t.Helper()
	url := base + "/v1/stream"
	if qs != "" {
		url += "?" + qs
	}
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest("GET", url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("stream status = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("stream Content-Type = %q, want %q", ct, wire.ContentType)
	}
	return &multiClient{resp: resp, rd: wire.NewReader(resp.Body)}
}

// hello expects the opening Hello frame and returns its resolved link list.
func (c *multiClient) hello(t *testing.T) []string {
	t.Helper()
	typ, payload, err := c.rd.Next()
	if err != nil || typ != wire.FrameHello {
		t.Fatalf("first frame = %v (%v), want hello", typ, err)
	}
	var h wire.Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		t.Fatalf("bad hello payload: %v", err)
	}
	return h.Links
}

// next returns the next event frame, skipping heartbeats. ok is false at
// stream end (EOF or Shutdown frame). Gap frames are fatal here — tests that
// expect one read frames directly.
func (c *multiClient) next(t *testing.T) (attest.Event, bool) {
	t.Helper()
	for {
		typ, payload, err := c.rd.Next()
		if err != nil {
			return attest.Event{}, false
		}
		switch typ {
		case wire.FrameHeartbeat:
		case wire.FrameShutdown:
			return attest.Event{}, false
		case wire.FrameEvent:
			ev, err := wire.DecodeEvent(payload)
			if err != nil {
				t.Fatalf("bad event frame: %v", err)
			}
			return ev, true
		default:
			t.Fatalf("unexpected frame %v on event stream", typ)
		}
	}
}

func (c *multiClient) close() { c.resp.Body.Close() }

// TestStreamMultiplexedReplayFilterAndLive covers the binary stream at the
// daemon: whole-fleet Hello, multi-link ring replay with per-link sequence
// spaces, per-link resume cursors, kind filtering, live delivery, and
// handshake error envelopes.
func TestStreamMultiplexedReplayFilterAndLive(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 33, "listen": "127.0.0.1:0",
		"buses": [
			{"id": "clean0"},
			{"id": "victim", "attack": {"kind": "interposer", "after_rounds": 0, "position": 0.12}}
		]
	}`)
	d.heartbeat = 20 * time.Millisecond
	ls := d.byID["victim"]
	for i := 0; i < 4; i++ {
		d.monitorOnce(ls)
	}
	retained := ls.snapshotAlerts()
	if len(retained) < 3 {
		t.Fatalf("expected several retained events, got %+v", retained)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Whole fleet (no links named): Hello lists every bus in id order, and
	// replay delivers victim's full ring in order.
	c := openMulti(t, srv.URL, "", "")
	links := c.hello(t)
	if len(links) != 2 || links[0] != "clean0" || links[1] != "victim" {
		t.Fatalf("hello links = %v", links)
	}
	for i := range retained {
		ev, ok := c.next(t)
		if !ok {
			t.Fatalf("stream ended after %d of %d replayed events", i, len(retained))
		}
		if ev.Link != "victim" || ev.Seq != retained[i].Seq || ev.Kind != retained[i].Kind {
			t.Fatalf("replay[%d] = %+v, want %+v", i, ev, retained[i])
		}
	}

	// Live delivery: another round's events arrive on the open stream with
	// seqs continuing the replayed space.
	last := retained[len(retained)-1].Seq
	done := make(chan struct{})
	go func() { d.monitorOnce(ls); close(done) }()
	liveEv, ok := c.next(t)
	if !ok || liveEv.Seq <= last || liveEv.Link != "victim" {
		t.Fatalf("no live event after replay: %+v ok=%v", liveEv, ok)
	}
	<-done
	c.close()

	// Named subset + per-link resume cursor + kind filter, via the JSON body
	// form: only victim's alert events after the cursor come back.
	retained = ls.snapshotAlerts()
	after := retained[1].Seq
	body, _ := json.Marshal(wire.Subscribe{
		Links: []string{"victim"},
		Kinds: []string{"alert"},
		After: map[string]uint64{"victim": after},
	})
	c = openMulti(t, srv.URL, "", string(body))
	if links := c.hello(t); len(links) != 1 || links[0] != "victim" {
		t.Fatalf("subset hello links = %v", links)
	}
	want := 0
	for _, ev := range retained {
		if ev.Seq > after && ev.Kind == "alert" {
			want++
		}
	}
	if want == 0 {
		t.Fatalf("test needs retained alert events past seq %d: %+v", after, retained)
	}
	for i := 0; i < want; i++ {
		ev, ok := c.next(t)
		if !ok {
			t.Fatalf("filtered stream ended after %d of %d events", i, want)
		}
		if ev.Kind != "alert" || ev.Seq <= after {
			t.Fatalf("filtered replay delivered %+v", ev)
		}
	}
	c.close()

	// The query form selects the same subset.
	c = openMulti(t, srv.URL, "links=victim&kinds=alert&after=victim:"+strconv.FormatUint(after, 10), "")
	if links := c.hello(t); len(links) != 1 || links[0] != "victim" {
		t.Fatalf("query-form hello links = %v", links)
	}
	ev, ok := c.next(t)
	if !ok || ev.Kind != "alert" || ev.Seq <= after {
		t.Fatalf("query-form first event = %+v ok=%v", ev, ok)
	}
	c.close()

	// Handshake errors answer in the JSON envelope, before any frame.
	for _, tc := range []struct {
		qs, code string
		status   int
	}{
		{"links=ghost", attest.CodeUnknownLink, http.StatusNotFound},
		{"kinds=nope", attest.CodeBadRequest, http.StatusBadRequest},
		{"after=victim:x", attest.CodeBadRequest, http.StatusBadRequest},
	} {
		resp, err := http.Get(srv.URL + "/v1/stream?" + tc.qs)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s status = %d, want %d", tc.qs, resp.StatusCode, tc.status)
		}
		if perr := attest.ParseBody(raw, nil); perr == nil ||
			!strings.Contains(perr.Error(), tc.code) {
			t.Errorf("%s error = %v, want %s", tc.qs, perr, tc.code)
		}
	}
}

// TestStreamGapAndShutdownFrames: a resume cursor that fell off the retention
// ring draws an explicit Gap frame (never a silent skip), and daemon shutdown
// ends the stream with a Shutdown frame.
func TestStreamGapAndShutdownFrames(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 5, "listen": "127.0.0.1:0",
		"buses": [{"id": "a"}]
	}`)
	d.heartbeat = 20 * time.Millisecond
	ls := d.byID["a"]
	// Push the ring well past its capacity so early seqs are forgotten.
	for i := 0; i < alertRingCap+40; i++ {
		ls.record(telemetry.Event{Kind: telemetry.EventAlert, Link: "a", Round: uint64(i)})
	}
	ring := ls.snapshotAlerts()
	oldest := ring[0].Seq
	if oldest <= 2 {
		t.Fatalf("ring did not overflow: oldest seq %d", oldest)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	c := openMulti(t, srv.URL, "links=a&after=a:1", "")
	c.hello(t)
	typ, payload, err := c.rd.Next()
	if err != nil || typ != wire.FrameGap {
		t.Fatalf("frame after hello = %v (%v), want gap", typ, err)
	}
	var gap wire.Gap
	if err := json.Unmarshal(payload, &gap); err != nil {
		t.Fatal(err)
	}
	if gap.Link != "a" || gap.Resume != 1 || gap.Oldest != oldest {
		t.Fatalf("gap = %+v, want link a resume 1 oldest %d", gap, oldest)
	}
	// The retained window still streams after the gap notice.
	ev, ok := c.next(t)
	if !ok || ev.Seq != oldest {
		t.Fatalf("first retained event = %+v ok=%v, want seq %d", ev, ok, oldest)
	}

	// Shutdown: closing d.stop must end the stream with a Shutdown frame
	// (multiClient.next reports it as stream end).
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(d.stop)
	}()
	for {
		if _, ok := c.next(t); !ok {
			break
		}
	}
	c.close()

	// An exact-resume cursor (ring tail) is not a gap.
	d2 := newTestDaemon(t, `{"seed": 6, "listen": "127.0.0.1:0", "buses": [{"id": "b"}]}`)
	d2.heartbeat = 20 * time.Millisecond
	ls2 := d2.byID["b"]
	ls2.record(telemetry.Event{Kind: telemetry.EventAlert, Link: "b"})
	ls2.record(telemetry.Event{Kind: telemetry.EventGate, Link: "b"})
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()
	c2 := openMulti(t, srv2.URL, "links=b&after=b:1", "")
	c2.hello(t)
	typ, payload, err = c2.rd.Next()
	if err != nil || typ != wire.FrameEvent {
		t.Fatalf("in-window resume got frame %v (%v), want event", typ, err)
	}
	if ev, err := wire.DecodeEvent(payload); err != nil || ev.Seq != 2 {
		t.Fatalf("in-window resume delivered %+v (%v), want seq 2", ev, err)
	}
	c2.close()
}

// TestStreamMetricsEndToEnd asserts the stream accounting metrics on
// /metrics: the subscriber gauge tracks open streams, and the coalesce/drop
// counter families are exported.
func TestStreamMetricsEndToEnd(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 7, "listen": "127.0.0.1:0",
		"buses": [{"id": "a"}]
	}`)
	d.heartbeat = 20 * time.Millisecond
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	scrape := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(raw)
	}
	waitGauge := func(want string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			m := scrape()
			if strings.Contains(m, "divot_stream_subscribers "+want+"\n") {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("divot_stream_subscribers never reached %s:\n%s", want, m)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	m := scrape()
	for _, fam := range []string{
		"divot_stream_subscribers", "divot_stream_coalesced_total", "divot_stream_dropped_total",
	} {
		if !strings.Contains(m, "# TYPE "+fam+" ") {
			t.Errorf("metric family %s not exported:\n%s", fam, m)
		}
	}
	waitGauge("0")

	first := openMulti(t, srv.URL, "links=a", "")
	first.hello(t)
	waitGauge("1")
	second := openMulti(t, srv.URL, "", "")
	second.hello(t)
	waitGauge("2")
	first.close()
	second.close()
	waitGauge("0")
}
