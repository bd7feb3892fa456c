package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"divot/internal/attest"
	"divot/internal/daemon"
)

// proc is one spawned daemon or herd process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

// fleet is one stood-up workload: its daemons and, optionally, the herd.
type fleet struct {
	specs   []daemon.Spec
	daemons []*proc
	herd    *proc
}

// procs lists every process of the fleet, herd last.
func (f *fleet) procs() []*proc {
	out := append([]*proc(nil), f.daemons...)
	if f.herd != nil {
		out = append(out, f.herd)
	}
	return out
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserving a port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("releasing reserved port: %w", err)
	}
	return addr, nil
}

// spawn starts a binary with its output going to a log file under dir. The
// child is killed if the benchmark dies first.
func spawn(name, bin, dir string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, fmt.Errorf("creating %s log: %w", name, err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to shut down gracefully and kills it if it has not
// exited within the grace period. It returns once the process has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // it may have just exited
		select {
		case <-p.done:
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill() // already gone is fine
			<-p.done
		}
	}
	p.log.Close()
}

// exited reports an early exit, with the tail of the process log.
func (p *proc) exited() error {
	select {
	case <-p.done:
		raw, _ := os.ReadFile(p.log.Name()) // best effort: diagnostics only
		if len(raw) > 2000 {
			raw = raw[len(raw)-2000:]
		}
		return fmt.Errorf("%s exited early (%v): %s", p.name, p.cmd.ProcessState, raw)
	default:
		return nil
	}
}

// peakRSSKB reads the process's VmHWM from /proc.
func (p *proc) peakRSSKB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading %s status: %w", p.name, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s VmHWM %q: %w", p.name, rest, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// getJSON fetches an envelope-wrapped payload.
func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading %s: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return attest.ParseBody(raw, out)
}

// pollUntil calls probe every 10 ms until it reports done, one of the
// processes exits, or the deadline passes.
func pollUntil(ctx context.Context, deadline time.Duration, ps []*proc, probe func() bool) error {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	for {
		for _, p := range ps {
			if err := p.exited(); err != nil {
				return err
			}
		}
		if probe() {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.New("timed out waiting for the fleet to come up")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// standUp starts the workload's daemons on freshly generated specs, waits
// until every one reports ready on /readyz, then (for herd workloads) starts
// divotherd and waits until it serves every daemon's full fleet. It returns
// the fleet and the set-up time, from the first spawn to readiness.
func standUp(ctx context.Context, w workload, seed uint64, bin, dir string, hc *http.Client) (*fleet, time.Duration, error) {
	listen := make([]string, w.daemons)
	var stateDirs []string
	for d := range listen {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		listen[d] = addr
		if w.stateDir {
			stateDirs = append(stateDirs, filepath.Join(dir, fmt.Sprintf("state%d", d)))
		}
	}
	specs := w.fleetSpecs(seed, listen, stateDirs)
	f := &fleet{specs: specs}
	paths := make([]string, len(specs))
	for d, s := range specs {
		raw, err := encodeSpec(s)
		if err != nil {
			return nil, 0, err
		}
		paths[d] = filepath.Join(dir, fmt.Sprintf("spec%d.json", d))
		if err := os.WriteFile(paths[d], raw, 0o644); err != nil {
			return nil, 0, fmt.Errorf("writing spec: %w", err)
		}
	}

	start := time.Now()
	for d := range specs {
		p, err := spawn(fmt.Sprintf("divotd%d", d), filepath.Join(bin, "divotd"), dir, "-spec", paths[d])
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		p.url = "http://" + listen[d]
		f.daemons = append(f.daemons, p)
	}
	ready := make([]bool, len(f.daemons))
	err := pollUntil(ctx, 120*time.Second, f.daemons, func() bool {
		all := true
		for d, p := range f.daemons {
			if ready[d] {
				continue
			}
			var v attest.ReadyView
			if getJSON(ctx, hc, p.url+"/readyz", &v) == nil && v.Ready {
				ready[d] = true
			} else {
				all = false
			}
		}
		return all
	})
	if err == nil && w.herd {
		err = f.startHerd(ctx, w, bin, dir, hc)
	}
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// startHerd starts divotherd in front of the fleet's daemons and waits until
// it reports every daemon up with its full bus set.
func (f *fleet) startHerd(ctx context.Context, w workload, bin, dir string, hc *http.Client) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	urls := make([]string, len(f.daemons))
	for d, p := range f.daemons {
		urls[d] = p.url
	}
	h, err := spawn("divotherd", filepath.Join(bin, "divotherd"), dir,
		"-listen", addr, "-daemons", strings.Join(urls, ","))
	if err != nil {
		return err
	}
	h.url = "http://" + addr
	f.herd = h
	return pollUntil(ctx, 60*time.Second, f.procs(), func() bool {
		var v attest.DaemonsResponse
		if getJSON(ctx, hc, h.url+"/v1/daemons", &v) != nil || len(v.Daemons) != len(f.daemons) {
			return false
		}
		for _, d := range v.Daemons {
			if !d.Up || d.Buses != w.buses {
				return false
			}
		}
		return true
	})
}

// stop shuts every process down, herd first, and waits for each to exit.
func (f *fleet) stop() {
	if f.herd != nil {
		f.herd.stop()
	}
	for _, p := range f.daemons {
		p.stop()
	}
}

// peakRSSMB sums VmHWM over the fleet's processes.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range f.procs() {
		kb, err := p.peakRSSKB()
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return total / 1024, nil
}

// scrapeAll fetches /metrics from every process of the fleet.
func (f *fleet) scrapeAll(ctx context.Context, hc *http.Client) (scrapes, error) {
	var out scrapes
	for _, p := range f.procs() {
		s, err := scrapeOne(ctx, hc, p.url)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func scrapeOne(ctx context.Context, hc *http.Client, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}
