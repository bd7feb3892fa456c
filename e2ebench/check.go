package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"divot/internal/attest"
	"divot/internal/daemon"
)

// maxViolations bounds how many hard-check messages a run keeps.
const maxViolations = 20

// checker collects the evidence a run's outputs must satisfy. Hard checks are
// protocol invariants a correct program always passes; detection quality
// (false alarms, missed attacks) is counted and held to a ceiling only.
type checker struct {
	// attacks maps each attacked bus to its attack kind.
	attacks map[string]string
	// ids is every bus of the fleet, sorted.
	ids []string

	mu         sync.Mutex
	violations []string
	nviolation int
	rejected   map[string]bool
	alerted    map[string]bool
}

func newChecker(specs []daemon.Spec) *checker {
	c := &checker{
		attacks:  map[string]string{},
		rejected: map[string]bool{},
		alerted:  map[string]bool{},
	}
	for _, s := range specs {
		for _, b := range s.Buses {
			c.ids = append(c.ids, b.ID)
			if b.Attack != nil {
				c.attacks[b.ID] = b.Attack.Kind
			}
		}
	}
	sort.Strings(c.ids)
	return c
}

// violate records a broken hard check.
func (c *checker) violate(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nviolation++
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// single checks a one-bus attestation answer: exactly the asked bus.
func (c *checker) single(bus string, resp attest.AttestResponse) {
	if len(resp.Results) != 1 || resp.Results[0].ID != bus {
		got := make([]string, len(resp.Results))
		for i, r := range resp.Results {
			got[i] = r.ID
		}
		c.violate("attest %s answered %v", bus, got)
		return
	}
	if !resp.Results[0].Accepted {
		c.mu.Lock()
		c.rejected[bus] = true
		c.mu.Unlock()
	}
}

// fleet checks a whole-fleet herd answer: every bus of the fleet, in fleet
// order, each attributed to a daemon.
func (c *checker) fleet(resp attest.FederatedAttestResponse) {
	if len(resp.Results) != len(c.ids) {
		c.violate("fleet attest answered %d buses, want %d", len(resp.Results), len(c.ids))
		return
	}
	var rejected []string
	for i, r := range resp.Results {
		if r.ID != c.ids[i] {
			c.violate("fleet attest result %d is %s, want %s", i, r.ID, c.ids[i])
			return
		}
		if r.Daemon == "" {
			c.violate("fleet attest result %s has no daemon attribution", r.ID)
			return
		}
		if !r.Accepted {
			rejected = append(rejected, r.ID)
		}
	}
	if len(rejected) > 0 {
		c.mu.Lock()
		for _, id := range rejected {
			c.rejected[id] = true
		}
		c.mu.Unlock()
	}
}

// alert records that a bus raised a monitoring alert.
func (c *checker) alert(bus string) {
	c.mu.Lock()
	c.alerted[bus] = true
	c.mu.Unlock()
}

// collectAlerts reads every daemon's per-bus alert totals at the end of a
// run.
func (c *checker) collectAlerts(ctx context.Context, hc *http.Client, f *fleet) error {
	for _, p := range f.daemons {
		var links attest.LinksResponse
		if err := getJSON(ctx, hc, p.url+"/v1/links", &links); err != nil {
			return fmt.Errorf("listing %s links: %w", p.name, err)
		}
		for _, l := range links.Links {
			if l.Alerts > 0 {
				c.alert(l.ID)
			}
		}
	}
	return nil
}

// verdict is a run's detection outcome.
type verdict struct {
	// FalseAlarmBuses are clean buses that were rejected or alerted.
	FalseAlarmBuses int
	// MissedAttackBuses are attacked buses never rejected and never alerted.
	MissedAttackBuses int
	CleanBuses        int
	AttackedBuses     int
	Violations        []string
}

// Ceilings on detection quality: a detector that alerts on every bus, or
// misses most attacks, exceeds them; the few false alarms and missed module
// swaps of the real detector do not.
const (
	maxFalseAlarmFrac = 0.25
	maxMissedFrac     = 0.5
)

// finish evaluates the detection checks and returns the run's verdict;
// ok is false when any hard check failed or a ceiling was exceeded.
func (c *checker) finish() (v verdict, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v.Violations = append([]string(nil), c.violations...)
	flagged := func(id string) bool { return c.rejected[id] || c.alerted[id] }
	for _, id := range c.ids {
		kind, attacked := c.attacks[id]
		switch {
		case !attacked:
			v.CleanBuses++
			if flagged(id) {
				v.FalseAlarmBuses++
			}
		case !flagged(id):
			v.AttackedBuses++
			v.MissedAttackBuses++
			if kind == "interposer" || kind == "wiretap" {
				v.Violations = append(v.Violations, fmt.Sprintf("%s bus %s was never rejected and never alerted", kind, id))
			}
		default:
			v.AttackedBuses++
		}
	}
	if float64(v.FalseAlarmBuses) > maxFalseAlarmFrac*float64(v.CleanBuses) {
		v.Violations = append(v.Violations, fmt.Sprintf("%d of %d clean buses raised false alarms (ceiling %.0f%%)",
			v.FalseAlarmBuses, v.CleanBuses, 100*maxFalseAlarmFrac))
	}
	if float64(v.MissedAttackBuses) > maxMissedFrac*float64(v.AttackedBuses) {
		v.Violations = append(v.Violations, fmt.Sprintf("%d of %d attacked buses were missed (ceiling %.0f%%)",
			v.MissedAttackBuses, v.AttackedBuses, 100*maxMissedFrac))
	}
	if extra := c.nviolation - len(c.violations); extra > 0 {
		v.Violations = append(v.Violations, fmt.Sprintf("... and %d more", extra))
	}
	return v, len(v.Violations) == 0 && c.nviolation == 0
}

func (v verdict) String() string {
	s := fmt.Sprintf("false_alarm_buses=%d/%d missed_attack_buses=%d/%d",
		v.FalseAlarmBuses, v.CleanBuses, v.MissedAttackBuses, v.AttackedBuses)
	if len(v.Violations) > 0 {
		s += " violations: " + strings.Join(v.Violations, "; ")
	}
	return s
}
