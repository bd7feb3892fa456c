package daemon

// The daemon encodes every event twice: as a binary frame on GET /v1/stream
// and as JSON in the retention ring served by GET /v1/links/{id}/alerts.
// These tests run the real SDK against the real daemon and require each
// link's stream deliveries — replay, live events and a forced mid-stream
// reconnect — to equal that link's JSON ring field for field, so the two
// encoders cannot drift and the exactly-once contract holds end to end.

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	client "divot/client"
	"divot/internal/telemetry"
)

// drainMulti reads events off mw until every link in want has yielded its
// expected count, failing on a stalled feed or an early close.
func drainMulti(t *testing.T, mw *client.MultiWatch, want map[string]int) map[string][]client.Event {
	t.Helper()
	got := map[string][]client.Event{}
	need := 0
	for _, n := range want {
		need += n
	}
	deadline := time.After(15 * time.Second)
	for need > 0 {
		select {
		case ev, ok := <-mw.Events():
			if !ok {
				t.Fatalf("feed closed early (err=%v), still needed %d events; got %v", mw.Err(), need, got)
			}
			got[ev.Link] = append(got[ev.Link], ev)
			need--
		case <-deadline:
			t.Fatalf("feed stalled, still needed %d events; got %v", need, got)
		}
	}
	return got
}

// equivKinds cycles every recorded event through three kinds with distinct
// optional fields, so a kind filter has something to drop and every field of
// the frame codec is exercised.
var equivKinds = []telemetry.EventKind{telemetry.EventAlert, telemetry.EventGate, telemetry.EventHealth}

// recordEquiv records round i's event on ls.
func recordEquiv(ls *linkState, i int) {
	ev := telemetry.Event{Kind: equivKinds[i%len(equivKinds)], Link: ls.id, Side: "cpu", Round: uint64(i)}
	switch ev.Kind {
	case telemetry.EventAlert:
		ev.Score, ev.To, ev.Detail = 0.25+float64(i)/64, "auth-failure", "round score below threshold"
	case telemetry.EventGate:
		ev.From, ev.To = "open", "closed"
	default:
		ev.Side, ev.From, ev.To = "module", "ok", "degraded"
	}
	ls.record(ev)
}

func TestStreamFeedMatchesAlertRing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kinds []string
	}{
		{"unfiltered", nil},
		{"kinds", []string{"alert", "health"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDaemon(t, `{
				"seed": 31, "listen": "127.0.0.1:0",
				"buses": [{"id": "a"}, {"id": "b"}]
			}`)
			links := []*linkState{d.byID["a"], d.byID["b"]}
			// per is how many of n recorded rounds a link's subscription sees.
			per := func(n int) int {
				if tc.kinds == nil {
					return n
				}
				return n - n/len(equivKinds) // every third round is a dropped gate
			}

			// Retained history before anyone subscribes: the replay window.
			round := 0
			recordRounds := func(n int) {
				for i := 0; i < n; i++ {
					round++
					for _, ls := range links {
						recordEquiv(ls, round)
					}
				}
			}
			recordRounds(6)

			srv := httptest.NewServer(d.Handler())
			defer srv.Close()
			retry := client.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
			c, err := client.New(srv.URL, client.WithRetryPolicy(retry))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			mw, err := c.WatchMulti(ctx, client.WatchOptions{
				Links: []string{"a", "b"}, Kinds: tc.kinds, Buffer: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer mw.Close()

			// Phase 1: replay plus a burst of live events.
			recordRounds(3)
			got := drainMulti(t, mw, map[string]int{"a": per(9), "b": per(9)})

			// Phase 2: tear every TCP connection down mid-stream. The watch
			// must reconnect with its cursors and pick up exactly where it
			// left off — no duplicates, no silent skip — including events
			// recorded while it was down.
			srv.CloseClientConnections()
			recordRounds(3)
			for link, evs := range drainMulti(t, mw, map[string]int{"a": per(12) - per(9), "b": per(12) - per(9)}) {
				got[link] = append(got[link], evs...)
			}

			keep := map[string]bool{}
			for _, k := range tc.kinds {
				keep[k] = true
			}
			for _, ls := range links {
				ring, err := c.Alerts(ctx, ls.id)
				if err != nil {
					t.Fatal(err)
				}
				want := ring[:0:0]
				for _, ev := range ring {
					if tc.kinds == nil || keep[ev.Kind] {
						want = append(want, ev)
					}
				}
				if !reflect.DeepEqual(got[ls.id], want) {
					t.Fatalf("link %s: stream and JSON ring differ:\n stream: %v\n   ring: %v", ls.id, got[ls.id], want)
				}
				if ls.events.Published() != 12 {
					t.Fatalf("link %s published %d events, want 12", ls.id, ls.events.Published())
				}
			}
		})
	}
}
