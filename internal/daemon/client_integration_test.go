package daemon

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"divot/client"
	"divot/internal/wire"
)

// flakyFront is a fault-injecting front for the daemon's handler: every
// second unary request is severed without an answer, and the first event
// stream is cut after two event frames. The SDK behind it must see exactly
// the same fleet state a direct client would.
type flakyFront struct {
	inner http.Handler

	mu          sync.Mutex
	unary       int
	streamsCut  int
	unaryKilled int
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/stream" {
		f.mu.Lock()
		cut := f.streamsCut == 0
		if cut {
			f.streamsCut++
		}
		f.mu.Unlock()
		if cut {
			w = &binaryCuttingWriter{ResponseWriter: w, eventsLeft: 2}
		}
		f.inner.ServeHTTP(w, r)
		return
	}
	f.mu.Lock()
	n := f.unary
	f.unary++
	if n%2 == 0 {
		f.unaryKilled++
	}
	f.mu.Unlock()
	if n%2 == 0 {
		panic(http.ErrAbortHandler) // connection severed before any answer
	}
	f.inner.ServeHTTP(w, r)
}

// binaryCuttingWriter lets eventsLeft event frames through (hello, heartbeat
// and control frames pass freely), then severs the connection before the next
// event-bearing write.
type binaryCuttingWriter struct {
	http.ResponseWriter
	eventsLeft int
}

func (c *binaryCuttingWriter) Write(p []byte) (int, error) {
	for buf := p; len(buf) > 0; {
		typ, _, n, err := wire.DecodeFrame(buf)
		if err != nil {
			break // partial frame in this write; let it pass
		}
		if typ == wire.FrameEvent {
			if c.eventsLeft == 0 {
				panic(http.ErrAbortHandler)
			}
			c.eventsLeft--
		}
		buf = buf[n:]
	}
	return c.ResponseWriter.Write(p)
}

func (c *binaryCuttingWriter) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// TestClientSurvivesFlakyTransport is the end-to-end acceptance test for the
// remote attestation path: a real daemon with a scripted interposer on one
// bus, fronted by a proxy that drops every second unary request and cuts the
// first event stream mid-flight. The SDK must (a) answer unary calls
// correctly through retries, (b) deliver the bus's event feed exactly once
// and in order across the forced resume, and (c) report the interposer
// verdict — attack detection must survive an unreliable network.
func TestClientSurvivesFlakyTransport(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 33, "listen": "127.0.0.1:0",
		"buses": [
			{"id": "clean0"},
			{"id": "victim", "attack": {"kind": "interposer", "after_rounds": 0, "position": 0.1}}
		]
	}`)
	for i := 0; i < 4; i++ { // mount the attack and let it be confirmed
		d.monitorOnce(d.byID["victim"])
		d.monitorOnce(d.byID["clean0"])
	}
	front := &flakyFront{inner: d.Handler()}
	srv := httptest.NewServer(front)
	defer srv.Close()

	c, err := client.New(srv.URL,
		client.WithTimeout(5*time.Second),
		client.WithRetryPolicy(client.RetryPolicy{
			MaxAttempts: 5,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
			Jitter:      0.5,
			Budget:      5 * time.Second,
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Unary through drops: every first try dies on the wire.
	links, err := c.Links(ctx)
	if err != nil {
		t.Fatalf("Links through flaky front: %v", err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %+v, want 2 buses", links)
	}

	// The event feed: replayed from the ring, cut after two frames by the
	// front, resumed by the watch. Exactly-once, in order.
	w, err := c.Watch(ctx, "victim", client.WatchOptions{})
	if err != nil {
		t.Fatalf("Watch through flaky front: %v", err)
	}
	defer w.Close()
	retained := d.byID["victim"].snapshotAlerts()
	if len(retained) < 3 {
		t.Fatalf("test premise broken: victim retained only %d events", len(retained))
	}
	var got []client.Event
	deadline := time.After(20 * time.Second)
	for len(got) < len(retained) {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("stream ended early after %d/%d events: %v", len(got), len(retained), w.Err())
			}
			got = append(got, ev)
		case <-deadline:
			t.Fatalf("timed out at %d/%d events", len(got), len(retained))
		}
	}
	sawAlert := false
	for i, ev := range got {
		if ev.Seq != retained[i].Seq || ev.Kind != retained[i].Kind {
			t.Errorf("event %d = seq %d kind %s, want seq %d kind %s (dupes or gaps across resume)",
				i, ev.Seq, ev.Kind, retained[i].Seq, retained[i].Kind)
		}
		if ev.Kind == "alert" {
			sawAlert = true
		}
	}
	if !sawAlert {
		t.Error("no alert event arrived over the remote feed")
	}
	front.mu.Lock()
	if front.streamsCut != 1 {
		t.Errorf("fault injection never cut the stream (streamsCut=%d)", front.streamsCut)
	}
	front.mu.Unlock()

	// The verdict: batch attest through the same flaky front.
	res, err := c.Attest(ctx)
	if err != nil {
		t.Fatalf("Attest through flaky front: %v", err)
	}
	if res.AllAccepted {
		t.Error("fleet with interposed bus reported all_accepted over the remote client")
	}
	byID := map[string]client.AuthReport{}
	for _, rep := range res.Results {
		byID[rep.ID] = rep
	}
	if rep := byID["victim"]; rep.Accepted {
		t.Errorf("interposed bus accepted remotely: %+v", rep)
	}
	if rep := byID["clean0"]; !rep.Accepted {
		t.Errorf("clean bus rejected remotely: %+v", rep)
	}

	front.mu.Lock()
	killed := front.unaryKilled
	front.mu.Unlock()
	if killed == 0 {
		t.Error("fault injection never killed a unary request")
	}
}
