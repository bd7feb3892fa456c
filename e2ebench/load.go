package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"divot/client"
	"divot/internal/wire"
)

// spanCtx carries a request's trace identity into the layer it calls.
type spanCtx struct {
	tr     *tracer
	id     int64
	parent int
}

// opFunc issues one request. It returns the failure (non-2xx, transport
// error, timeout, incomplete herd answer) or a check to run on the answer
// once the request's latency has been taken.
type opFunc func(ctx context.Context, bus string, sc spanCtx) (check func(), err error)

// outcome is one scheduled request's fate.
type outcome struct {
	// latency runs from when the request was due to its answer; late from
	// when it was due to when it was sent.
	latency, late time.Duration
	err           error
}

// newHTTPClient returns the load process's HTTP client: at most two
// connections per host, which with at most two sender goroutines (or one
// sender and one stream) is at most two connections in all.
func newHTTPClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = 2
	tr.MaxIdleConnsPerHost = 2
	return &http.Client{Transport: tr}
}

// newAPIClient wraps the SDK with retries off, so a retry cannot hide a
// failure.
func newAPIClient(base string, hc *http.Client) (*client.Client, error) {
	return client.New(base, client.WithHTTPClient(hc),
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}),
		client.WithTimeout(10*time.Second))
}

// attestOp issues single-bus POST /v1/attest requests.
func attestOp(c *client.Client, ck *checker) opFunc {
	return func(ctx context.Context, bus string, sc spanCtx) (func(), error) {
		s := sc.tr.start("client.attest", sc.id, sc.parent)
		resp, err := c.Attest(ctx, bus)
		sc.tr.end(s)
		if err != nil {
			return nil, err
		}
		return func() { ck.single(bus, resp) }, nil
	}
}

// fleetAttestOp issues whole-fleet POST /v1/attest requests to a herd.
func fleetAttestOp(c *client.Client, ck *checker) opFunc {
	return func(ctx context.Context, _ string, sc spanCtx) (func(), error) {
		s := sc.tr.start("client.attest", sc.id, sc.parent)
		resp, err := c.AttestFederated(ctx)
		sc.tr.end(s)
		if err != nil {
			return nil, err
		}
		if !resp.Complete || len(resp.Errors) > 0 {
			return nil, fmt.Errorf("incomplete herd answer: %d results, errors %+v", len(resp.Results), resp.Errors)
		}
		return func() { ck.fleet(resp) }, nil
	}
}

// runOpenLoop sends the schedule at rate requests per second from senders
// goroutines: request i is due i/rate seconds after the window opens and is
// sent then, or as soon as a sender is free. Each request is timed from when
// it was due, so a stall counts against every request it delays. tracerFor
// picks the tracer of request i (nil records nothing).
func runOpenLoop(ctx context.Context, sched []string, rate float64, senders int, op opFunc, tracerFor func(i int) *tracer) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				tr := tracerFor(i)
				root := tr.start("loadgen.request", int64(i), -1)
				sent := time.Now()
				check, err := op(ctx, sched[i], spanCtx{tr, int64(i), root})
				done := time.Now()
				tr.end(root)
				out[i] = outcome{latency: done.Sub(due), late: sent.Sub(due), err: err}
				if check != nil {
					check()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// windowStats condenses a window's outcomes.
type windowStats struct {
	failed int
	// latMS and lateMS are sorted; a failed request's latency is +Inf, so
	// it misses every latency limit.
	latMS, lateMS []float64
}

func summarizeWindow(out []outcome) windowStats {
	var w windowStats
	for _, o := range out {
		w.add(o)
	}
	w.sort()
	return w
}

func (w *windowStats) add(o outcome) {
	lat := ms(o.latency)
	if o.err != nil {
		w.failed++
		lat = math.Inf(1)
	}
	w.latMS = append(w.latMS, lat)
	w.lateMS = append(w.lateMS, ms(o.late))
}

func (w *windowStats) sort() {
	sort.Float64s(w.latMS)
	sort.Float64s(w.lateMS)
}

// watcher is one whole-fleet GET /v1/stream subscription that consumes every
// frame and checks the stream's invariants as they arrive.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}

	// Written by the watch goroutine, read after done closes.
	events int
	err    error // a gap or error frame, or a broken stream
}

// watchStream subscribes to the whole fleet. Every event frame must carry a
// per-link seq above the link's previous one; a gap or error frame is a
// failure. Alerts on the stream are recorded with the checker.
func watchStream(ctx context.Context, hc *http.Client, base string, ck *checker) (*watcher, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribing to %s/v1/stream: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribing to %s/v1/stream: status %d", base, resp.StatusCode)
	}
	w := &watcher{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		w.err = w.consume(ctx, wire.NewReader(resp.Body), ck)
	}()
	return w, nil
}

func (w *watcher) consume(ctx context.Context, rd *wire.Reader, ck *checker) error {
	last := map[string]uint64{}
	for first := true; ; first = false {
		t, payload, err := rd.Next()
		if err != nil {
			if ctx.Err() != nil {
				return nil // closed by stop
			}
			return fmt.Errorf("stream broke: %w", err)
		}
		if first != (t == wire.FrameHello) {
			ck.violate("stream frame %d is %s", w.events, t)
		}
		switch t {
		case wire.FrameHello:
			var h wire.Hello
			if err := json.Unmarshal(payload, &h); err != nil {
				ck.violate("stream hello: %v", err)
			} else if !slices.Equal(h.Links, ck.ids) {
				ck.violate("stream hello names %d links, want the fleet's %d", len(h.Links), len(ck.ids))
			}
		case wire.FrameEvent:
			ev, err := wire.DecodeEvent(payload)
			if err != nil {
				ck.violate("stream event: %v", err)
				continue
			}
			w.events++
			if ev.Seq <= last[ev.Link] {
				ck.violate("stream seq %d on %s after %d", ev.Seq, ev.Link, last[ev.Link])
			}
			last[ev.Link] = ev.Seq
			if ev.Kind == "alert" {
				ck.alert(ev.Link)
			}
		case wire.FrameGap, wire.FrameError, wire.FrameShutdown:
			return fmt.Errorf("stream %s frame: %s", t, payload)
		}
	}
}

// stop closes the subscription and waits for the watch goroutine.
func (w *watcher) stop() error {
	w.cancel()
	<-w.done
	return w.err
}
