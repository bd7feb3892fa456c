// Command e2ebench is the repository's end-to-end benchmark. It stands up
// real divotd (and divotherd) processes on fleet specs generated from a
// seed, drives them over HTTP from this one load process, checks every
// answer, and prints one JSON result line. With -trace 1 it runs the load
// with every other request traced and adds an in-process pass that times
// each layer's public functions on the workload's own configuration. See
// README.md.
//
// Run it through run.sh from the repository root, which builds the binaries:
//
//	bash e2ebench/run.sh --workload attest-measure --seed 7 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// settle is how long after the fleet is ready the timed window opens, so
// first rounds, attack mounts and the herd's cache fill are behind it.
const settle = 2 * time.Second

type options struct {
	workload workload
	seed     uint64
	seconds  int
	trace    bool
	bin      string
	work     string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 7, "seed of the fleet specs and the request schedule")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	bin := fs.String("bin", "", "directory holding the divotd and divotherd binaries")
	work := fs.String("work", "", "directory for specs, logs, state and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" || *work == "" {
		fmt.Fprintf(stderr, "e2ebench: need -workload (%s), -seconds >= 1, -trace 0|1, -bin and -work\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	opts := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, work: *work}
	res, err := runWorkload(ctx, opts, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	return 0
}

// runWorkload stands the fleet up (several times when timing set-up), runs
// the timed window, checks the outputs and returns the result.
func runWorkload(ctx context.Context, o options, logw io.Writer) (result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, fmt.Errorf("creating work dir: %w", err)
	}
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return result{}, fmt.Errorf("creating run dir: %w", err)
	}
	defer os.RemoveAll(dir)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	setups := o.workload.setups
	if o.trace {
		setups = 1 // set-up time is an end-to-end metric only
	}
	var setupS []float64
	var f *fleet
	for k := 0; k < setups; k++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", k))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return result{}, fmt.Errorf("creating set-up dir: %w", err)
		}
		fl, took, err := standUp(ctx, o.workload, o.seed, o.bin, sub, hc)
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		setupS = append(setupS, took.Seconds())
		if k < setups-1 {
			fl.stop()
		} else {
			f = fl
		}
	}
	defer f.stop()
	readyAt := time.Now()

	r := &runner{o: o, f: f, hc: hc, ck: newChecker(f.specs), logw: logw}
	if err := r.prepare(ctx, readyAt); err != nil {
		return result{}, err
	}
	if o.trace {
		return r.traced(ctx, dir)
	}
	return r.untraced(ctx, setupS)
}
