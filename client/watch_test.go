package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"divot/internal/attest"
	"divot/internal/wire"
)

func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
}

func collectN(t *testing.T, w *Watch, n int) []Event {
	t.Helper()
	out := make([]Event, 0, n)
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("stream closed after %d events, want %d (err: %v)", len(out), n, w.Err())
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out after %d events, want %d", len(out), n)
		}
	}
	return out
}

// heartbeat is an idle keep-alive frame; scripts interleave it to prove the
// watch never surfaces it.
var heartbeat = wire.AppendFrame(nil, wire.FrameHeartbeat, nil)

// resumeCursors returns the resume cursor each served connection carried
// for link id (0 when its resume map did not name the link).
func (bs *binaryScript) resumeCursors(id string) []uint64 {
	subs := bs.seenSubs()
	out := make([]uint64, len(subs))
	for i, sub := range subs {
		out[i] = sub.After[id]
	}
	return out
}

// TestWatchResumesAcrossDisconnects is the streaming acceptance test: the
// server drops the connection twice mid-stream; the watch must redial with
// its resume cursor set to the last delivered sequence number and the
// consumer must see every event exactly once, in order, heartbeats
// invisible.
func TestWatchResumesAcrossDisconnects(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		switch conn {
		case 0:
			f := append(append([]byte(nil), heartbeat...), eventFrames(
				Event{Seq: 1, Kind: "round", Link: "dimm0"},
				Event{Seq: 2, Kind: "alert", Link: "dimm0"})...)
			f = append(f, heartbeat...)
			return append(f, eventFrames(Event{Seq: 3, Kind: "gate", Link: "dimm0"})...), false
		case 1:
			// Overlap: the server's replay window may resend seq 3; the
			// watch must deduplicate it.
			return eventFrames(Event{Seq: 3, Kind: "gate", Link: "dimm0"}, Event{Seq: 4, Kind: "health", Link: "dimm0"}), false
		default:
			return eventFrames(Event{Seq: 5, Kind: "round", Link: "dimm0"}), true
		}
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := c.Watch(ctx, "dimm0", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := collectN(t, w, 5)
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d (dupes or gaps)", i, ev.Seq, i+1)
		}
	}
	if w.LastSeq() != 5 {
		t.Errorf("LastSeq = %d, want 5", w.LastSeq())
	}
	// Connect 0 starts fresh, connect 1 resumes past the first drop (seq 3
	// delivered), connect 2 past the second (seq 4 delivered).
	if got, want := bs.resumeCursors("dimm0"), []uint64{0, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("server saw resume cursors %v, want %v (resume from last seen seq)", got, want)
	}
	// Cancellation closes the channel and reports the context error.
	cancel()
	for range w.Events() {
	}
	if !errors.Is(w.Err(), context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", w.Err())
	}
}

// TestWatchAfterOptionSkipsReplay: WatchOptions.After travels to the server
// on the first connection and pre-seeds the dedupe floor.
func TestWatchAfterOptionSkipsReplay(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		return eventFrames(Event{Seq: 7, Kind: "round", Link: "d"}, Event{Seq: 8, Kind: "alert", Link: "d"}), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := c.Watch(ctx, "d", WatchOptions{After: 7})
	if err != nil {
		t.Fatal(err)
	}
	got := collectN(t, w, 1)
	if got[0].Seq != 8 {
		t.Errorf("first delivered seq = %d, want 8 (7 is below the After floor)", got[0].Seq)
	}
	if got, want := bs.resumeCursors("d"), []uint64{7}; !reflect.DeepEqual(got, want) {
		t.Errorf("server saw resume cursors %v, want %v", got, want)
	}
}

// TestWatchUnknownLinkFailsFast: a 4xx on connect is the caller's mistake —
// Watch returns the structured error synchronously, no retries.
func TestWatchUnknownLinkFailsFast(t *testing.T) {
	conns := 0
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns++
		mu.Unlock()
		attest.WriteError(w, attest.CodeUnknownLink, "unknown bus %q", "ghost")
	}))
	t.Cleanup(srv.Close)
	c, err := New(srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Watch(context.Background(), "ghost", WatchOptions{})
	var aerr *APIError
	if !errors.As(err, &aerr) || aerr.Code != CodeUnknownLink {
		t.Fatalf("Watch err = %v, want *APIError with %s", err, CodeUnknownLink)
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 1 {
		t.Errorf("server saw %d connects, want 1 (4xx is terminal)", conns)
	}
}

// TestWatchConnectRetriesThrough5xx: a daemon mid-restart answers 503; the
// initial connect retries through it under the policy.
func TestWatchConnectRetriesThrough5xx(t *testing.T) {
	refused := 0
	var mu sync.Mutex
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		return eventFrames(Event{Seq: 1, Kind: "round", Link: "d"}), true
	})
	inner := bs.srv.Config.Handler
	bs.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		refuse := refused < 2
		if refuse {
			refused++
		}
		mu.Unlock()
		if refuse {
			attest.WriteError(w, attest.CodeUnavailable, "restarting")
			return
		}
		inner.ServeHTTP(w, r)
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := c.Watch(ctx, "d", WatchOptions{})
	if err != nil {
		t.Fatalf("Watch through 503 burst: %v", err)
	}
	if got := collectN(t, w, 1); got[0].Seq != 1 {
		t.Errorf("delivered seq = %d, want 1", got[0].Seq)
	}
}

// TestWatchGivesUpWhenReconnectExhausts: after a disconnect, a server that
// stays down ends the watch with the transport error once the retry policy
// is exhausted — the channel closes instead of spinning forever.
func TestWatchGivesUpWhenReconnectExhausts(t *testing.T) {
	down := false
	var mu sync.Mutex
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		return eventFrames(Event{Seq: 1, Kind: "round", Link: "d"}), false
	})
	inner := bs.srv.Config.Handler
	bs.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		d := down
		down = true // first connection streams, everything after is down
		mu.Unlock()
		if d {
			attest.WriteError(w, attest.CodeUnavailable, "gone")
			return
		}
		inner.ServeHTTP(w, r)
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), "d", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := collectN(t, w, 1); got[0].Seq != 1 {
		t.Errorf("delivered seq = %d, want 1", got[0].Seq)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-w.Events():
			if !ok {
				var aerr *APIError
				if !errors.As(w.Err(), &aerr) || aerr.Code != CodeUnavailable {
					t.Fatalf("Err() = %v, want *APIError %s", w.Err(), CodeUnavailable)
				}
				return
			}
		case <-deadline:
			t.Fatal("watch never gave up on a dead server")
		}
	}
}

// awaitGap drains w until it ends and requires a *ResumeGapError naming
// link d with the given bounds, delivering nothing on the way.
func awaitGap(t *testing.T, w *Watch, resume, oldest uint64) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-w.Events():
			if ok {
				t.Fatalf("delivered event seq %d across a resume gap", ev.Seq)
			}
			var gap *ResumeGapError
			if !errors.As(w.Err(), &gap) {
				t.Fatalf("Err() = %v, want *ResumeGapError", w.Err())
			}
			if gap.Link != "d" || gap.Resume != resume || gap.Oldest != oldest {
				t.Errorf("gap = %+v, want {Link:d Resume:%d Oldest:%d}", gap, resume, oldest)
			}
			return
		case <-deadline:
			t.Fatal("watch never ended on a resume gap")
		}
	}
}

// TestWatchResumeGapFailsTyped: a Watch opened with After=R claims the
// server still holds event R+1. When the retention ring has evicted it — the
// first replayed event is beyond R+1 — the watch must end with a
// *ResumeGapError carrying the hole's bounds, delivering nothing, rather
// than silently skipping ahead. The script sends no Gap frame, so the
// client's own first-event continuity check is what must catch it.
func TestWatchResumeGapFailsTyped(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		// The ring's oldest survivor is seq 9; events 6..8 are gone.
		return eventFrames(Event{Seq: 9, Kind: "round", Link: "d"}, Event{Seq: 10, Kind: "alert", Link: "d"}), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), "d", WatchOptions{After: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	awaitGap(t, w, 5, 9)
}

// TestWatchResumeGapAfterReconnect: the same continuity check guards the
// watch's own reconnects — events delivered before the disconnect arrive
// normally, then the gapped resume ends the feed instead of bridging the
// hole.
func TestWatchResumeGapAfterReconnect(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		if conn == 0 {
			return eventFrames(Event{Seq: 1, Kind: "round", Link: "d"}, Event{Seq: 2, Kind: "alert", Link: "d"}), false
		}
		// By the time the watch redials resuming past 2, the ring starts at 10.
		return eventFrames(Event{Seq: 10, Kind: "round", Link: "d"}), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), "d", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got := collectN(t, w, 2)
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("pre-disconnect seqs = [%d %d], want [1 2]", got[0].Seq, got[1].Seq)
	}
	awaitGap(t, w, 2, 10)
	if got, want := bs.resumeCursors("d"), []uint64{0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("server saw resume cursors %v, want %v", got, want)
	}
}

// TestWatchAfterZeroClaimsNothing: an After-less watch starts wherever the
// ring starts — a high first sequence number is not a gap.
func TestWatchAfterZeroClaimsNothing(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		return eventFrames(Event{Seq: 50, Kind: "round", Link: "d"}), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := c.Watch(ctx, "d", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := collectN(t, w, 1); got[0].Seq != 50 {
		t.Errorf("delivered seq = %d, want 50", got[0].Seq)
	}
}

// TestWatchCloseEndsFeed: Close tears the stream down without an external
// context.
func TestWatchCloseEndsFeed(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		return eventFrames(Event{Seq: 1, Kind: "round", Link: "d"}), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), "d", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	collectN(t, w, 1)
	w.Close()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-w.Events():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("Events() never closed after Close")
		}
	}
}
