package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"divot/client"
)

// herdProbeRequests is how many whole-fleet attestations the traced run of a
// workload without a herd sends through a herd put in front of its daemons.
const herdProbeRequests = 5

// endToEndUnits and perLayerUnits name every reported metric with its unit.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"peak_rss_mb":   "MB",
	"attest_p50_ms": "ms",
	"rounds_per_s":  "1/s",
}

var perLayerUnits = map[string]string{
	"txline.reflect_us":              "us",
	"itdr.measure_us":                "us",
	"itdr.trials_us":                 "us",
	"fingerprint.extract_us":         "us",
	"fingerprint.score_us":           "us",
	"core.spotcheck_ms":              "ms",
	"core.monitor_ms":                "ms",
	"core.calibrate_ms":              "ms",
	"core.measurements_per_round":    "count",
	"core.confirm_retries_per_round": "count",
	"react.observe_us":               "us",
	"telemetry.publish_us":           "us",
	"wire.encode_us":                 "us",
	"store.wal_append_us":            "us",
	"daemon.round_ms":                "ms",
	"daemon.overrun_ratio":           "ratio",
	"daemon.stream_dropped":          "count",
	"daemon.cache_hit_ratio":         "ratio",
	"attest.encode_us":               "us",
	"attest.decode_us":               "us",
	"ring.get_ns":                    "ns",
	"herd.fanout_ms":                 "ms",
	"herd.self_ms":                   "ms",
	"client.attest_ms":               "ms",
	"loadgen.late_p99_ms":            "ms",
	"loadgen.attest_p90_ms":          "ms",
	"loadgen.attest_p99_ms":          "ms",
	"trace.overhead_pct":             "%",
}

// runner drives one stood-up fleet through a run.
type runner struct {
	o    options
	f    *fleet
	hc   *http.Client
	ck   *checker
	logw io.Writer

	api   *client.Client // the load target: the herd or the first daemon
	watch *watcher

	attempted, failed int
	firstErr          error
}

// fail counts a failed operation, keeping the first cause for the log.
func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// prepare opens the stream watcher, fills the herd's cache, and waits until
// the timed window may open.
func (r *runner) prepare(ctx context.Context, readyAt time.Time) error {
	w := r.o.workload
	target := r.f.daemons[0].url
	if w.herd {
		target = r.f.herd.url
	}
	api, err := newAPIClient(target, r.hc)
	if err != nil {
		return err
	}
	r.api = api
	if w.stream {
		r.attempted++
		if r.watch, err = watchStream(ctx, r.hc, r.f.daemons[0].url, r.ck); err != nil {
			return err
		}
	}
	if w.herd {
		r.attempted++
		if _, err := fleetAttestOp(api, r.ck)(ctx, "", spanCtx{parent: -1}); err != nil {
			r.fail(err)
		}
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(time.Until(readyAt.Add(settle))):
	}
	return nil
}

// window runs one timed open-loop window of the given length and counts its
// requests and failures.
func (r *runner) window(ctx context.Context, seconds float64, tracerFor func(i int) *tracer) []outcome {
	w := r.o.workload
	sched := w.requestSchedule(r.o.seed, seconds, r.ck.ids)
	op := attestOp(r.api, r.ck)
	if w.fleetAttest {
		op = fleetAttestOp(r.api, r.ck)
	}
	r.hc.CloseIdleConnections() // the window uses at most two connections
	out := runOpenLoop(ctx, sched, w.rate, w.senders, op, tracerFor)
	r.attempted += len(out)
	for _, o := range out {
		if o.err != nil {
			r.fail(o.err)
		}
	}
	return out
}

// finish closes the stream, gathers the fleet's alert totals and evaluates
// the output checks.
func (r *runner) finish(ctx context.Context) (bool, error) {
	if r.watch != nil {
		if err := r.watch.stop(); err != nil {
			r.fail(err)
		}
	}
	if err := r.ck.collectAlerts(ctx, r.hc, r.f); err != nil {
		return false, err
	}
	v, ok := r.ck.finish()
	fmt.Fprintf(r.logw, "%s seed=%d checks: %s\n", r.o.workload.name, r.o.seed, v)
	if r.firstErr != nil {
		fmt.Fprintf(r.logw, "%s seed=%d first failure: %v\n", r.o.workload.name, r.o.seed, r.firstErr)
	}
	return ok, nil
}

// tail returns a window's latency percentile and whether it has enough
// samples beyond it to be reported.
func tail(ws windowStats, p float64) (float64, bool) {
	v, beyond := percentile(ws.latMS, p)
	return finite(v), beyond >= minTail
}

// finite replaces the +Inf a failed request contributes to a percentile with
// the client timeout, so the result stays encodable.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return ms(10 * time.Second)
	}
	return v
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced(ctx context.Context, setupS []float64) (result, error) {
	before, err := r.f.scrapeAll(ctx, r.hc)
	if err != nil {
		return result{}, err
	}
	t0 := time.Now()
	ws := summarizeWindow(r.window(ctx, float64(r.o.seconds), func(int) *tracer { return nil }))
	after, err := r.f.scrapeAll(ctx, r.hc)
	if err != nil {
		return result{}, err
	}
	elapsed := time.Since(t0).Seconds()
	rss, err := r.f.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	correct, err := r.finish(ctx)
	if err != nil {
		return result{}, err
	}
	p50, enough := tail(ws, 0.5)
	p99, _ := tail(ws, 0.99)
	if !enough {
		fmt.Fprintf(r.logw, "only %d requests: p50 needs %d samples beyond it\n", len(ws.latMS), minTail)
		correct = false
	}
	rounds := delta(before, after, "divot_round_duration_seconds_count", nil) / elapsed
	late99, _ := percentile(ws.lateMS, 0.99)
	fmt.Fprintf(r.logw, "%s seed=%d: setups_s=%.3f requests=%d highest_percentile=p%g attest_p99_ms=%.3f late_p99_ms=%.3f\n",
		r.o.workload.name, r.o.seed, setupS, len(ws.latMS), 100*highestPercentile(len(ws.latMS)), p99, late99)
	values := map[string]float64{
		"setup_s":       median(setupS),
		"peak_rss_mb":   rss,
		"attest_p50_ms": p50,
		"rounds_per_s":  rounds,
	}
	return r.result(correct, values, endToEndUnits), nil
}

func (r *runner) result(correct bool, values map[string]float64, units map[string]string) result {
	res := result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for name, unit := range units {
		res.Metrics[name] = metric{Value: values[name], Unit: unit}
	}
	return res
}

// traced runs one window of twice the length in which every other request
// is traced, so traced and untraced requests see the same conditions; it
// reports the per-layer metrics and writes the spans out.
func (r *runner) traced(ctx context.Context, dir string) (result, error) {
	before, err := r.f.scrapeAll(ctx, r.hc)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	out := r.window(ctx, 2*float64(r.o.seconds), func(i int) *tracer {
		if i%2 == 0 {
			return tr
		}
		return nil
	})
	after, err := r.f.scrapeAll(ctx, r.hc)
	if err != nil {
		return result{}, err
	}
	var plain, traced windowStats
	for i, o := range out {
		if i%2 == 0 {
			traced.add(o)
		} else {
			plain.add(o)
		}
	}
	plain.sort()
	traced.sort()
	values := daemonLayers(before, after)

	fanout, clientMean := 0.0, 0.0
	if r.o.workload.herd {
		fanout = herdFanoutMS(before, after)
		st := tr.summarize()["client.attest"]
		clientMean = st.TotalMS / float64(max(st.Count, 1))
	} else if fanout, clientMean, err = r.herdProbe(ctx, dir, tr); err != nil {
		return result{}, err
	}
	values["herd.fanout_ms"] = fanout
	values["herd.self_ms"] = clientMean - fanout

	correct, err := r.finish(ctx)
	if err != nil {
		return result{}, err
	}
	pu, _ := tail(plain, 0.5)
	pt, _ := tail(traced, 0.5)
	p99, enough := tail(plain, 0.99)
	if !enough {
		fmt.Fprintf(r.logw, "only %d untraced requests: p99 needs %d samples beyond it\n", len(plain.latMS), minTail)
		correct = false
	}
	values["client.attest_ms"] = tr.summarize()["client.attest"].MedianMS
	values["loadgen.late_p99_ms"], _ = percentile(plain.lateMS, 0.99)
	values["loadgen.attest_p90_ms"], _ = tail(plain, 0.9)
	values["loadgen.attest_p99_ms"] = p99
	values["trace.overhead_pct"] = 100 * (pt - pu) / pu

	// The in-process pass runs with the fleet stopped.
	r.f.stop()
	pass, err := runLayerPass(r.f.specs[0], r.ck.ids, filepath.Join(dir, "wal"), tr)
	if err != nil {
		return result{}, err
	}
	for k, v := range pass {
		values[k] = v
	}
	traces := filepath.Join(r.o.work, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return result{}, fmt.Errorf("creating trace dir: %w", err)
	}
	path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.json", r.o.workload.name, r.o.seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(r.logw, "%s seed=%d: spans written to %s\n", r.o.workload.name, r.o.seed, path)
	return r.result(correct, values, perLayerUnits), nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// daemonLayers derives the daemon-side per-layer metrics from two scrapes.
// Spot checks (one per cache miss) take two measurements that are not part
// of any monitoring round, so they are taken out of the per-round count.
func daemonLayers(before, after scrapes) map[string]float64 {
	d := func(name string) float64 { return delta(before, after, name, nil) }
	rounds := d("divot_round_duration_seconds_count")
	hits, misses := d("divot_attest_cache_hits_total"), d("divot_attest_cache_misses_total")
	return map[string]float64{
		"core.measurements_per_round":    ratio(d("divot_measurements_total")-2*misses, rounds),
		"core.confirm_retries_per_round": ratio(d("divot_confirm_retries_total"), rounds),
		"daemon.round_ms":                1000 * ratio(d("divot_round_duration_seconds_sum"), rounds),
		"daemon.overrun_ratio":           ratio(d("divot_scheduler_overruns_total"), rounds),
		"daemon.stream_dropped":          d("divot_stream_dropped_total"),
		"daemon.cache_hit_ratio":         ratio(hits, hits+misses),
	}
}

// herdFanoutMS is the mean duration of the herd's attest fan-out between two
// scrapes.
func herdFanoutMS(before, after scrapes) float64 {
	op := map[string]string{"op": "attest"}
	return 1000 * ratio(delta(before, after, "divotherd_fanout_seconds_sum", op),
		delta(before, after, "divotherd_fanout_seconds_count", op))
}

// herdProbe puts a divotherd in front of the workload's daemons and sends a
// few whole-fleet attestations through it. It returns the herd's mean
// fan-out and the mean client-observed latency.
func (r *runner) herdProbe(ctx context.Context, dir string, tr *tracer) (fanoutMS, clientMS float64, err error) {
	if err := r.f.startHerd(ctx, r.o.workload, r.o.bin, dir, r.hc); err != nil {
		return 0, 0, fmt.Errorf("starting the probe herd: %w", err)
	}
	api, err := newAPIClient(r.f.herd.url, r.hc)
	if err != nil {
		return 0, 0, err
	}
	before, err := scrapeOne(ctx, r.hc, r.f.herd.url)
	if err != nil {
		return 0, 0, err
	}
	op := fleetAttestOp(api, r.ck)
	var total time.Duration
	ok := 0
	for i := 0; i < herdProbeRequests; i++ {
		root := tr.start("herd.probe", -2-int64(i), -1)
		t0 := time.Now()
		check, err := op(ctx, "", spanCtx{})
		took := time.Since(t0)
		tr.end(root)
		r.attempted++
		if err != nil {
			r.fail(err)
			continue
		}
		check()
		total += took
		ok++
	}
	after, err := scrapeOne(ctx, r.hc, r.f.herd.url)
	if err != nil {
		return 0, 0, err
	}
	return herdFanoutMS(scrapes{before}, scrapes{after}), ms(total) / float64(max(ok, 1)), nil
}
