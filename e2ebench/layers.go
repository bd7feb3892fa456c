package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"divot"
	"divot/internal/attest"
	"divot/internal/core"
	"divot/internal/daemon"
	"divot/internal/fingerprint"
	"divot/internal/itdr"
	"divot/internal/pool"
	"divot/internal/react"
	"divot/internal/ring"
	"divot/internal/store"
	"divot/internal/telemetry"
	"divot/internal/txline"
	"divot/internal/wire"
)

// layerPass times calls into each layer's public functions in-process, on
// the workload's own first daemon configuration and seed, with the fleet
// stopped so nothing else competes for the cores. Its spans share the id
// passSpanID.
type layerPass struct {
	tr *tracer
}

const passSpanID = -1

// timeCalls runs reps batches of n calls, records one span per batch, and
// returns the median per-call duration in nanoseconds.
func (lp *layerPass) timeCalls(name string, reps, n int, fn func()) float64 {
	parent := lp.tr.start("pass."+name, passSpanID, -1)
	per := make([]float64, reps)
	for r := range per {
		s := lp.tr.start(name, passSpanID, parent)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(n)
		lp.tr.end(s)
	}
	lp.tr.end(parent)
	return median(per)
}

// discardWriter is an http.ResponseWriter that keeps the body in a reused
// buffer, so encoding is timed without network or allocation growth.
type discardWriter struct {
	h   http.Header
	buf bytes.Buffer
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// runLayerPass returns the in-process per-layer metrics, keyed by metric
// name, in each metric's unit.
func runLayerPass(spec daemon.Spec, ids []string, walDir string, tr *tracer) (map[string]float64, error) {
	lp := &layerPass{tr: tr}
	out := map[string]float64{}
	us := func(ns float64) float64 { return ns / 1e3 }
	msec := func(ns float64) float64 { return ns / 1e6 }

	// The daemon's engine configuration and calibration schedule.
	cfg := divot.DefaultConfig()
	cfg.Engine.Parallelism = spec.Parallelism
	if spec.AuthThreshold > 0 {
		cfg.Engine.AuthThreshold = spec.AuthThreshold
	}
	calib := spec.CalibParallelism
	if calib == 0 {
		calib = spec.Parallelism
	}
	_, within := pool.Split(calib, len(spec.Buses))
	sys := divot.NewSystem(spec.Seed, cfg)

	// core: calibrate a few of the fleet's buses, then spot-check and
	// monitor the first (a clean-path round of the fleet's configuration).
	const calibrated = 5
	links := make([]*divot.Link, 0, calibrated)
	for _, b := range spec.Buses[:calibrated] {
		l, err := sys.NewLink(b.ID)
		if err != nil {
			return nil, fmt.Errorf("building link %s: %w", b.ID, err)
		}
		links = append(links, l)
	}
	var calErr error
	next := 0
	out["core.calibrate_ms"] = msec(lp.timeCalls("core.calibrate", calibrated, 1, func() {
		if err := links[next].CalibrateWith(within); err != nil && calErr == nil {
			calErr = err
		}
		next++
	}))
	if calErr != nil {
		return nil, fmt.Errorf("calibrating: %w", calErr)
	}
	l := links[0]
	var opErr error
	out["core.spotcheck_ms"] = msec(lp.timeCalls("core.spotcheck", 60, 1, func() {
		if _, err := l.SpotCheck(); err != nil && opErr == nil {
			opErr = err
		}
	}))
	out["core.monitor_ms"] = msec(lp.timeCalls("core.monitor", 60, 1, func() {
		if _, err := l.MonitorOnce(); err != nil && opErr == nil {
			opErr = err
		}
	}))
	if opErr != nil {
		return nil, fmt.Errorf("monitoring: %w", opErr)
	}

	// txline and itdr: the synthesis inside one measurement, then the
	// whole measurement through a fresh arena.
	ecfg := cfg.Engine
	var scratch txline.ReflectScratch
	rate, bins := ecfg.ITDR.EquivalentRate(), ecfg.ITDR.Bins()
	reflect := lp.timeCalls("txline.reflect", 60, 4, func() {
		l.Line.ReflectInto(&scratch, ecfg.Probe, 0, 1, rate, bins)
	})
	out["txline.reflect_us"] = us(reflect)
	refl := l.CPU.Instrument()
	arena := itdr.NewArena()
	var meas itdr.Measurement
	measure := lp.timeCalls("itdr.measure", 60, 1, func() {
		meas = refl.MeasureInto(arena, l.Line, l.Env)
	})
	out["itdr.measure_us"] = us(measure)
	out["itdr.trials_us"] = us(measure - reflect)

	// fingerprint: extraction, then scoring against a reference capture.
	pipe := ecfg.Pipeline
	ref := pipe.FromWaveform(refl.Measure(l.Line, l.Env).IIP)
	var ws fingerprint.Workspace
	var f fingerprint.IIP
	out["fingerprint.extract_us"] = us(lp.timeCalls("fingerprint.extract", 60, 10, func() {
		f = pipe.FromWaveformMaskedWith(&ws, meas.IIP, nil)
	}))
	matcher := fingerprint.Matcher{Threshold: ecfg.AuthThreshold}
	detector := fingerprint.TamperDetector{PeakThreshold: 1, Velocity: l.Line.Config().Velocity}
	out["fingerprint.score_us"] = us(lp.timeCalls("fingerprint.score", 60, 10, func() {
		matcher.AuthenticateMasked(f, ref, nil)
		detector.CheckMaskedWith(&ws, f, ref, nil)
	}))

	// react: one clean round's health through the daemon's reaction policy.
	reactor, err := react.NewReactor(react.DefaultPolicy())
	if err != nil {
		return nil, fmt.Errorf("building reactor: %w", err)
	}
	health := l.Health()
	out["react.observe_us"] = us(lp.timeCalls("react.observe", 60, 200, func() {
		reactor.ObserveHealth(nil, health)
	}))

	// telemetry and wire: an alert published to a bus with one stream
	// subscriber queue of the daemon's size, and its stream frame.
	alert := telemetry.Event{Kind: telemetry.EventAlert, Link: l.ID, Side: core.SideCPU.String(),
		Round: 42, Score: 0.61, Detail: "auth-failure"}
	bus := telemetry.NewBus()
	q := telemetry.NewQueue(256)
	sub := bus.SubscribeQueue(q)
	out["telemetry.publish_us"] = us(lp.timeCalls("telemetry.publish", 60, 200, func() {
		bus.Publish(alert)
		q.TryPop()
	}))
	sub.Close()
	q.Close()
	frame := make([]byte, 0, 256)
	wev := attest.EventFromTelemetry(alert)
	wev.Seq = 42
	out["wire.encode_us"] = us(lp.timeCalls("wire.encode", 60, 200, func() {
		frame = wire.AppendEventFrame(frame[:0], wev)
	}))

	// store: history-sized records appended to a WAL with default options
	// (fsync every 64 appends, as the daemon's history log).
	wal, err := store.OpenWAL(walDir, store.WALOptions{})
	if err != nil {
		return nil, fmt.Errorf("opening WAL: %w", err)
	}
	record := []byte(`{"round":42,"score":0.9934,"health":"ok","reaction":"normal","verdict":"ok"}`)
	var walErr error
	out["store.wal_append_us"] = us(lp.timeCalls("store.wal_append", 60, 64, func() {
		if err := wal.Append(record); err != nil && walErr == nil {
			walErr = err
		}
	}))
	if err := wal.Close(); err != nil && walErr == nil {
		walErr = err
	}
	if walErr != nil {
		return nil, fmt.Errorf("appending to WAL: %w", walErr)
	}

	// attest: a 512-result federated answer encoded and decoded as the
	// herd and the client do, whatever this workload's fleet size.
	resp := attest.FederatedAttestResponse{AllAccepted: true, Complete: true}
	for i := 0; i < 512; i++ {
		resp.Results = append(resp.Results, attest.AuthReport{
			ID: fmt.Sprintf("bus%03d", i), Accepted: true, Score: 1, Health: "ok",
			Cached: true, Daemon: fmt.Sprintf("d%d", i/256),
		})
	}
	dw := &discardWriter{h: http.Header{}}
	out["attest.encode_us"] = us(lp.timeCalls("attest.encode", 40, 5, func() {
		dw.buf.Reset()
		attest.WriteData(dw, http.StatusOK, resp)
	}))
	body := append([]byte(nil), dw.buf.Bytes()...)
	var decoded attest.FederatedAttestResponse
	var decErr error
	out["attest.decode_us"] = us(lp.timeCalls("attest.decode", 40, 5, func() {
		decoded = attest.FederatedAttestResponse{}
		if err := attest.ParseBody(body, &decoded); err != nil && decErr == nil {
			decErr = err
		}
	}))
	if decErr != nil || len(decoded.Results) != 512 {
		return nil, fmt.Errorf("decoding the encoded answer: %v (%d results)", decErr, len(decoded.Results))
	}

	// ring: bus-to-daemon lookups over the workload's own bus ids on a
	// two-daemon ring.
	rg := ring.New(0)
	rg.Add("d0")
	rg.Add("d1")
	key := 0
	out["ring.get_ns"] = lp.timeCalls("ring.get", 60, len(ids), func() {
		key = (key + 1) % len(ids)
		rg.Get(ids[key])
	})
	return out, nil
}
