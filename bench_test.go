package divot_test

// One benchmark per table/figure of the paper's evaluation, as indexed in
// DESIGN.md, plus micro-benchmarks of the hot paths. Each experiment bench
// regenerates the corresponding artifact in quick mode; run
// cmd/divotbench -mode full for the paper-scale statistics.

import (
	"fmt"
	"net/http"
	"testing"

	"divot"
	"divot/internal/attest"
	"divot/internal/exper"
	"divot/internal/fingerprint"
	"divot/internal/itdr"
	"divot/internal/rng"
	"divot/internal/sim"
	"divot/internal/txline"
)

// benchExperiment runs one registered experiment generator per iteration.
func benchExperiment(b *testing.B, id string) {
	gen, ok := exper.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := gen(uint64(i)+1, exper.Quick)
		if len(r.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkFig2APCTransfer(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig3PDMVernier(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4PDMLinearRange(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5ETS(b *testing.B)             { benchExperiment(b, "fig5") }
func BenchmarkFig6MemoryBus(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7aDistributions(b *testing.B)  { benchExperiment(b, "fig7a") }
func BenchmarkFig7bROC(b *testing.B)            { benchExperiment(b, "fig7b") }
func BenchmarkFig8Temperature(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkVibrationEER(b *testing.B)        { benchExperiment(b, "vib") }
func BenchmarkEMIEER(b *testing.B)              { benchExperiment(b, "emi") }
func BenchmarkFig9LoadMod(b *testing.B)         { benchExperiment(b, "fig9bc") }
func BenchmarkFig9WireTap(b *testing.B)         { benchExperiment(b, "fig9ef") }
func BenchmarkFig9MagProbe(b *testing.B)        { benchExperiment(b, "fig9hi") }
func BenchmarkUtilizationModel(b *testing.B)    { benchExperiment(b, "util") }
func BenchmarkDetectionLatency(b *testing.B)    { benchExperiment(b, "latency") }
func BenchmarkMultiWireAblation(b *testing.B)   { benchExperiment(b, "multiwire") }
func BenchmarkCoprimeAblation(b *testing.B)     { benchExperiment(b, "coprime") }
func BenchmarkTriggerAblation(b *testing.B)     { benchExperiment(b, "trigger") }
func BenchmarkTrialsAblation(b *testing.B)      { benchExperiment(b, "trials") }
func BenchmarkReprAblation(b *testing.B)        { benchExperiment(b, "repr") }
func BenchmarkAlignmentExtension(b *testing.B)  { benchExperiment(b, "align") }
func BenchmarkCloneResistance(b *testing.B)     { benchExperiment(b, "clone") }
func BenchmarkInterposerDetection(b *testing.B) { benchExperiment(b, "mitm") }
func BenchmarkSecondOrderAblation(b *testing.B) { benchExperiment(b, "secorder") }
func BenchmarkPagePolicyAblation(b *testing.B)  { benchExperiment(b, "pagepolicy") }
func BenchmarkOffsetDriftAblation(b *testing.B) { benchExperiment(b, "offsetdrift") }
func BenchmarkJitterAblation(b *testing.B)      { benchExperiment(b, "jitter") }
func BenchmarkSharingAblation(b *testing.B)     { benchExperiment(b, "sharing") }
func BenchmarkCrosstalkAblation(b *testing.B)   { benchExperiment(b, "crosstalk") }
func BenchmarkBaselines(b *testing.B)           { benchExperiment(b, "baselines") }

// --- micro-benchmarks of the measurement and decision hot paths ---

// BenchmarkIIPMeasurement times one full iTDR acquisition (8575 one-bit
// trials, 343-bin reconstruction) — the simulated counterpart of the 50 µs
// hardware measurement. One warm-up measurement runs before the clock so
// the one-time shared-table builds (composite-CDF warm-up, inverse-table
// promotion) don't smear across the steady-state per-capture cost.
func BenchmarkIIPMeasurement(b *testing.B) {
	stream := rng.New(1)
	line := txline.New("L", txline.DefaultConfig(), stream.Child("line"))
	r := itdr.MustNew(itdr.DefaultConfig(), txline.DefaultProbe(), nil, stream.Child("itdr"))
	env := txline.RoomTemperature()
	if m := r.Measure(line, env); m.Trials == 0 {
		b.Fatal("empty warm-up measurement")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := r.Measure(line, env)
		if m.Trials == 0 {
			b.Fatal("empty measurement")
		}
	}
}

// BenchmarkCalibrate times one warm cold-enrollment of a standing link —
// the per-link unit cost a fleet cold start pays: EnrollMeasurements
// arena-path captures per endpoint folded through the streaming average.
// The first Calibrate before the clock absorbs the one-time builds (arena
// sizing, shared warm-up tables) and auto-derives the tamper threshold, so
// the timed iterations measure exactly the repeating enrollment work.
func BenchmarkCalibrate(b *testing.B) {
	sys := divot.NewSystem(1, divot.DefaultConfig())
	l, err := sys.NewLink("bus0")
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Calibrate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Calibrate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReflectionSynthesis times the physics layer alone, on the path
// itdr.MeasureInto takes: ReflectInto on one reused scratch.
func BenchmarkReflectionSynthesis(b *testing.B) {
	line := txline.New("L", txline.DefaultConfig(), rng.New(2))
	probe := txline.DefaultProbe()
	var scratch txline.ReflectScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := line.ReflectInto(&scratch, probe, 0, 1, 89.6e9, 343)
		if w.Len() == 0 {
			b.Fatal("empty waveform")
		}
	}
}

// BenchmarkSimilarity times the Eq. 4 scoring of two fingerprints.
func BenchmarkSimilarity(b *testing.B) {
	stream := rng.New(3)
	line := txline.New("L", txline.DefaultConfig(), stream.Child("line"))
	r := itdr.MustNew(itdr.DefaultConfig(), txline.DefaultProbe(), nil, stream.Child("itdr"))
	pipe := fingerprint.DefaultPipeline()
	env := txline.RoomTemperature()
	x := pipe.FromWaveform(r.Measure(line, env).IIP)
	y := pipe.FromWaveform(r.Measure(line, env).IIP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fingerprint.Similarity(x, y) == 0 {
			b.Fatal("degenerate similarity")
		}
	}
}

// BenchmarkErrorFunction times the Eq. 5 tamper scan.
func BenchmarkErrorFunction(b *testing.B) {
	stream := rng.New(4)
	line := txline.New("L", txline.DefaultConfig(), stream.Child("line"))
	r := itdr.MustNew(itdr.DefaultConfig(), txline.DefaultProbe(), nil, stream.Child("itdr"))
	pipe := fingerprint.DefaultPipeline()
	env := txline.RoomTemperature()
	x := pipe.FromWaveform(r.Measure(line, env).IIP)
	y := pipe.FromWaveform(r.Measure(line, env).IIP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := fingerprint.ErrorFunction(x, y)
		if e.Len() == 0 {
			b.Fatal("empty error function")
		}
	}
}

// BenchmarkMemoryTraffic times the protected memory system under load:
// requests serviced per simulated controller with continuous monitoring.
func BenchmarkMemoryTraffic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := divot.NewSystem(uint64(i)+1, divot.DefaultConfig())
		m, err := sys.NewMemorySystem("dimm0", divot.DefaultMemoryConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Calibrate(); err != nil {
			b.Fatal(err)
		}
		stream := sys.Stream("traffic")
		const reqs = 64
		for j := 0; j < reqs; j++ {
			m.Read(divot.MemAddress{Bank: stream.Intn(8), Row: stream.Intn(64), Col: stream.Intn(128)})
		}
		if err := m.Drain(reqs, 100*sim.Millisecond); err != nil {
			b.Fatal(err)
		}
		m.StopMonitor()
	}
}

// BenchmarkMonitorRound times one full two-endpoint monitoring round of a
// protected link.
func BenchmarkMonitorRound(b *testing.B) {
	sys := divot.NewSystem(7, divot.DefaultConfig())
	l, err := sys.NewLink("bus0")
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Calibrate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alerts, err := l.MonitorOnce(); err != nil {
			b.Fatal(err)
		} else if len(alerts) != 0 {
			b.Fatal("unexpected alert on clean link")
		}
	}
}

// BenchmarkMonitorRoundTelemetry measures the telemetry tax on the
// steady-state monitoring round: the same clean link with no sink attached
// versus a fully subscribed pipeline (metrics sink + event bus with a live
// subscriber). The delta is the per-round cost of instrumentation; the
// budget is <3%.
func BenchmarkMonitorRoundTelemetry(b *testing.B) {
	for _, mode := range []string{"nosink", "sink"} {
		b.Run(mode, func(b *testing.B) {
			sys := divot.NewSystem(7, divot.DefaultConfig())
			if mode == "sink" {
				reg := divot.NewMetricsRegistry()
				bus := divot.NewTelemetryBus()
				sub := bus.Subscribe(4096)
				defer sub.Close()
				go func() {
					for range sub.Events() {
					}
				}()
				sys.SetSink(divot.TelemetryFanout(divot.NewMetricsSink(reg), bus))
			}
			l, err := sys.NewLink("bus0")
			if err != nil {
				b.Fatal(err)
			}
			if err := l.Calibrate(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.MonitorOnce(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonitorAll times one fleet monitoring round (6 calibrated links)
// at different worker counts — the headline operation of the parallel layer.
func BenchmarkMonitorAll(b *testing.B) {
	for _, par := range []int{1, 0} { // sequential vs one worker per CPU
		name := "sequential"
		if par == 0 {
			name = "gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			cfg := divot.DefaultConfig()
			cfg.Engine.Parallelism = par
			sys := divot.NewSystem(9, cfg)
			for i := 0; i < 6; i++ {
				l, err := sys.NewLink(string(rune('a' + i)))
				if err != nil {
					b.Fatal(err)
				}
				if err := l.Calibrate(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rounds, err := sys.MonitorAll(); err != nil {
					b.Fatal(err)
				} else if len(rounds) != 6 {
					b.Fatal("missing links")
				}
			}
		})
	}
}

// BenchmarkEnvelope times the attest envelope codec on the body a herd moves
// per whole-fleet attest: a 256-verdict federated answer from two daemons.
// write is WriteData into a discarding ResponseWriter, parse is ParseBody of
// the written bytes into a fresh response.
func BenchmarkEnvelope(b *testing.B) {
	resp := attest.FederatedAttestResponse{AllAccepted: true, Complete: true, Shards: []attest.ShardStatus{
		{Daemon: "d0", Addr: "http://127.0.0.1:9720", Up: true, Buses: 128},
		{Daemon: "d1", Addr: "http://127.0.0.1:9721", Up: true, Buses: 128},
	}}
	for i := 0; i < 256; i++ {
		resp.Results = append(resp.Results, attest.AuthReport{
			ID: fmt.Sprintf("dimm%06d", i), Accepted: true, Score: 0.99 + float64(i%97)/10000,
			Health: "ok", Cached: true, Daemon: fmt.Sprintf("d%d", i/128),
		})
	}
	w := &bodyWriter{header: make(http.Header)}
	attest.WriteData(w, http.StatusOK, resp)
	body := w.body
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			w.body = w.body[:0]
			attest.WriteData(w, http.StatusOK, resp)
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var out attest.FederatedAttestResponse
			if err := attest.ParseBody(body, &out); err != nil || len(out.Results) != 256 {
				b.Fatalf("parse: %v (%d results)", err, len(out.Results))
			}
		}
	})
}

// bodyWriter is a ResponseWriter that keeps the last body in a reused buffer.
type bodyWriter struct {
	header http.Header
	body   []byte
}

func (w *bodyWriter) Header() http.Header { return w.header }
func (w *bodyWriter) WriteHeader(int)     {}
func (w *bodyWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}
