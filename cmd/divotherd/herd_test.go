package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"divot"
	"divot/client"
	"divot/internal/attest"
	"divot/internal/daemon"
)

// lightConfig shrinks the instrument so federation tests measure the herd —
// assignment, fan-out, merge — rather than the physics (same trick as the
// daemon's own benchmarks). The tamper threshold is looser than the daemon
// bench's: these tests assert on verdicts, and the light instrument's noise
// floor at 5 trials/bin throws the occasional false positive past 1e-6.
func lightConfig() divot.Config {
	cfg := divot.DefaultConfig()
	cfg.Engine.ITDR.WindowSec = 0.5e-9
	cfg.Engine.ITDR.TrialsPerBin = 5
	cfg.Engine.TamperThreshold = 1e-3
	cfg.Engine.EnrollMeasurements = 2
	cfg.Engine.Parallelism = 1
	return cfg
}

// packServer is one in-process divotd behind a real TCP listener that tests
// can kill and resurrect at the same address — the lifecycle a herd sees when
// a daemon dies and rejoins.
type packServer struct {
	d    *daemon.Daemon
	addr string
	srv  *http.Server
}

// startPackServer calibrates a daemon for the given buses and serves it.
// Identical (seed, buses) pairs produce identical enrollments, so a pack
// built this way models replicated verifiers over a shared measurement
// fabric: any member can attest any bus.
func startPackServer(t testing.TB, buses []string) *packServer {
	t.Helper()
	spec := daemon.Spec{Seed: 7, Listen: "127.0.0.1:0", IntervalMS: 60_000, MaxStalenessMS: 0}
	for _, id := range buses {
		spec.Buses = append(spec.Buses, daemon.BusSpec{ID: id})
	}
	d, err := daemon.NewWithConfig(spec, lightConfig())
	if err != nil {
		t.Fatalf("building pack daemon: %v", err)
	}
	p := &packServer{d: d}
	p.start(t)
	return p
}

// start serves (or re-serves) the daemon. The first call binds an ephemeral
// port; later calls re-bind the same address, modelling a daemon rejoin.
func (p *packServer) start(t testing.TB) {
	t.Helper()
	addr := p.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("pack server listen: %v", err)
	}
	p.addr = ln.Addr().String()
	p.srv = &http.Server{Handler: p.d.Handler()}
	go p.srv.Serve(ln) //nolint:errcheck // closed by stop
	t.Cleanup(p.stop)
}

// stop kills the server: connections refuse immediately, as a crashed daemon
// would.
func (p *packServer) stop() { p.srv.Close() }

func (p *packServer) url() string { return "http://" + p.addr }

// fastRetryPolicy keeps dead-daemon probes quick: one attempt, no backoff.
func fastRetryPolicy() client.RetryPolicy {
	return client.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}
}

// newTestHerd builds n replicated daemons over the buses plus a herd
// supervising them (daemons named d0..dn-1).
func newTestHerd(t testing.TB, n int, buses []string) (*Herd, []*packServer) {
	t.Helper()
	pack := make([]*packServer, n)
	addrs := make([]daemonAddr, n)
	for i := range pack {
		pack[i] = startPackServer(t, buses)
		addrs[i] = daemonAddr{Name: fmt.Sprintf("d%d", i), Addr: pack[i].url()}
	}
	h, err := NewHerd(context.Background(), herdConfig{
		FederationID: "test-fed",
		Daemons:      addrs,
		Timeout:      5 * time.Second,
		Retry:        fastRetryPolicy(),
	})
	if err != nil {
		t.Fatalf("NewHerd: %v", err)
	}
	return h, pack
}

func busNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dimm%02d", i)
	}
	return out
}

// TestHerdAttestFleetWide attests the whole fleet through the aggregator:
// every bus answers exactly once, in fleet order, with shard attribution, and
// the per-shard bus counts account for the whole fleet.
func TestHerdAttestFleetWide(t *testing.T) {
	buses := busNames(12)
	h, _ := newTestHerd(t, 4, buses)

	resp, werr := h.Attest(context.Background(), nil)
	if werr != nil {
		t.Fatalf("Attest: %v", werr)
	}
	if !resp.Complete || !resp.AllAccepted {
		t.Fatalf("fleet attest: complete=%v all_accepted=%v, want true/true (errors: %+v)",
			resp.Complete, resp.AllAccepted, resp.Errors)
	}
	if len(resp.Results) != len(buses) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(buses))
	}
	seenDaemons := map[string]bool{}
	for i, rep := range resp.Results {
		if rep.ID != buses[i] {
			t.Errorf("result %d is %q, want request order %q", i, rep.ID, buses[i])
		}
		if rep.Daemon == "" {
			t.Errorf("bus %s verdict has no shard attribution", rep.ID)
		}
		seenDaemons[rep.Daemon] = true
		if owner, ok := h.Assign(rep.ID); !ok || owner != rep.Daemon {
			t.Errorf("bus %s attributed to %s but assigned to %s", rep.ID, rep.Daemon, owner)
		}
	}
	if len(seenDaemons) < 2 {
		t.Errorf("all 12 buses landed on %d daemon(s); the ring should spread them", len(seenDaemons))
	}
	total := 0
	for _, s := range resp.Shards {
		if !s.Up {
			t.Errorf("shard %s reported down in a healthy pack", s.Daemon)
		}
		total += s.Buses
	}
	if total != len(buses) {
		t.Errorf("shard bus counts sum to %d, want %d", total, len(buses))
	}
}

// TestHerdAttestSubsetAndUnknown covers targeted attests: a named subset
// comes back in request order; an unknown bus is refused with unknown_link
// before any fan-out.
func TestHerdAttestSubsetAndUnknown(t *testing.T) {
	h, _ := newTestHerd(t, 2, busNames(6))

	resp, werr := h.Attest(context.Background(), []string{"dimm03", "dimm01"})
	if werr != nil {
		t.Fatalf("subset attest: %v", werr)
	}
	if len(resp.Results) != 2 || resp.Results[0].ID != "dimm03" || resp.Results[1].ID != "dimm01" {
		t.Fatalf("subset results %+v, want [dimm03 dimm01] in request order", resp.Results)
	}

	_, werr = h.Attest(context.Background(), []string{"dimm01", "bogus"})
	if werr == nil || werr.Code != attest.CodeUnknownLink {
		t.Fatalf("unknown bus error = %+v, want code %s", werr, attest.CodeUnknownLink)
	}
}

// TestHerdDaemonDeath is the federation's core failure drill: kill 1 of 4
// daemons, attest mid-death, and check the herd (a) reports exactly the dead
// daemon's buses as unavailable rather than fabricating verdicts, (b)
// re-balances so a follow-up attest succeeds fleet-wide on the survivors,
// and (c) moves only the dead daemon's buses.
func TestHerdDaemonDeath(t *testing.T) {
	buses := busNames(12)
	h, pack := newTestHerd(t, 4, buses)

	before := map[string]string{}
	for _, b := range buses {
		owner, ok := h.Assign(b)
		if !ok {
			t.Fatalf("bus %s unassigned in a healthy pack", b)
		}
		before[b] = owner
	}
	// Kill the daemon that owns dimm00 (the pack is replicated, so every
	// daemon could serve every bus — ownership is purely the ring's choice).
	victim := before["dimm00"]
	var victimIdx int
	fmt.Sscanf(victim, "d%d", &victimIdx)
	pack[victimIdx].stop()

	resp, werr := h.Attest(context.Background(), nil)
	if werr != nil {
		t.Fatalf("mid-death attest: %v", werr)
	}
	if resp.Complete || resp.AllAccepted {
		t.Fatalf("mid-death attest: complete=%v all_accepted=%v, want false/false",
			resp.Complete, resp.AllAccepted)
	}
	// The error envelope must carry exactly the victim's planned buses, and
	// no verdict may cover them.
	var victimErr *attest.ShardError
	for i := range resp.Errors {
		if resp.Errors[i].Daemon == victim {
			victimErr = &resp.Errors[i]
		}
	}
	if victimErr == nil {
		t.Fatalf("no shard error for dead daemon %s: %+v", victim, resp.Errors)
	}
	if victimErr.Code != attest.CodeUnavailable {
		t.Errorf("dead shard error code %q, want %s", victimErr.Code, attest.CodeUnavailable)
	}
	failed := map[string]bool{}
	for _, b := range victimErr.Links {
		if before[b] != victim {
			t.Errorf("error envelope lists %s, which %s never owned", b, victim)
		}
		failed[b] = true
	}
	for _, rep := range resp.Results {
		if failed[rep.ID] {
			t.Errorf("bus %s got verdict %v from a dead daemon's shard — fabricated OK", rep.ID, rep.Accepted)
		}
		if rep.Daemon == victim {
			t.Errorf("bus %s attributed to the dead daemon %s", rep.ID, victim)
		}
	}
	if len(resp.Results)+len(failed) != len(buses) {
		t.Errorf("results (%d) + failed (%d) != fleet (%d)", len(resp.Results), len(failed), len(buses))
	}

	// Re-balance: the follow-up attest must succeed fleet-wide on the
	// survivors, and only the victim's buses may have moved.
	resp2, werr := h.Attest(context.Background(), nil)
	if werr != nil {
		t.Fatalf("post-death attest: %v", werr)
	}
	if !resp2.Complete || !resp2.AllAccepted {
		t.Fatalf("post-death attest: complete=%v all_accepted=%v, want true/true (errors: %+v)",
			resp2.Complete, resp2.AllAccepted, resp2.Errors)
	}
	for _, rep := range resp2.Results {
		if rep.Daemon == victim {
			t.Errorf("bus %s still attributed to dead daemon %s", rep.ID, victim)
		}
		if before[rep.ID] != victim && rep.Daemon != before[rep.ID] {
			t.Errorf("bus %s moved %s→%s though its daemon never died",
				rep.ID, before[rep.ID], rep.Daemon)
		}
	}
}

// TestHerdRejoin resurrects a killed daemon at the same address: the next
// probe revives it and the original assignment comes back.
func TestHerdRejoin(t *testing.T) {
	buses := busNames(8)
	h, pack := newTestHerd(t, 3, buses)

	before := map[string]string{}
	for _, b := range buses {
		before[b], _ = h.Assign(b)
	}
	victim := before[buses[0]]
	var victimIdx int
	fmt.Sscanf(victim, "d%d", &victimIdx)
	pack[victimIdx].stop()

	if err := h.probeOnce(context.Background()); err != nil {
		t.Fatalf("probe with dead daemon: %v", err)
	}
	if owner, ok := h.Assign(buses[0]); !ok || owner == victim {
		t.Fatalf("bus %s assignment after death = %s/%v, want a survivor", buses[0], owner, ok)
	}

	pack[victimIdx].start(t)
	if err := h.probeOnce(context.Background()); err != nil {
		t.Fatalf("probe after rejoin: %v", err)
	}
	for _, b := range buses {
		owner, ok := h.Assign(b)
		if !ok || owner != before[b] {
			t.Errorf("bus %s assigned to %s/%v after rejoin, want original %s", b, owner, ok, before[b])
		}
	}
}

// TestHerdHealthRollup checks the federated /v1/health: every bus reported
// once by its assigned daemon, per-daemon standing included, and a dead
// daemon turns Complete false without fabricating its links' health.
func TestHerdHealthRollup(t *testing.T) {
	buses := busNames(9)
	h, pack := newTestHerd(t, 3, buses)
	ctx := context.Background()

	hr := h.HerdHealth(ctx)
	if !hr.Complete {
		t.Fatalf("healthy rollup incomplete: %+v", hr)
	}
	if hr.FederationID != "test-fed" {
		t.Errorf("rollup federation_id %q, want test-fed", hr.FederationID)
	}
	if len(hr.Daemons) != 3 {
		t.Fatalf("rollup has %d daemons, want 3", len(hr.Daemons))
	}
	seen := map[string]int{}
	for _, lv := range hr.Links {
		seen[lv.ID]++
	}
	for _, b := range buses {
		if seen[b] != 1 {
			t.Errorf("bus %s reported %d times in rollup, want exactly once", b, seen[b])
		}
	}

	victim, _ := h.Assign(buses[0])
	var victimIdx int
	fmt.Sscanf(victim, "d%d", &victimIdx)
	pack[victimIdx].stop()

	hr = h.HerdHealth(ctx)
	if hr.Complete {
		t.Fatal("rollup claims completeness with a dead daemon")
	}
	for _, dh := range hr.Daemons {
		if dh.Daemon == victim {
			if dh.Up {
				t.Errorf("dead daemon %s reported up", victim)
			}
			if dh.Error == "" {
				t.Errorf("dead daemon %s carries no error detail", victim)
			}
		}
	}
}

// TestHerdFederationMismatch: a reachable daemon claiming a different
// federation refuses startup — silently absorbing someone else's fleet is a
// misconfiguration, not a degraded mode.
func TestHerdFederationMismatch(t *testing.T) {
	p := startPackServer(t, busNames(2))
	// The pack daemon has no federation id of its own; impersonate one by
	// fronting it with a herd claiming a different federation than a second
	// herd probing it. The daemon-side id comes from the spec, so build one
	// directly.
	spec := daemon.Spec{Seed: 7, Listen: "127.0.0.1:0", IntervalMS: 60_000, FederationID: "blue"}
	spec.Buses = []daemon.BusSpec{{ID: "solo"}}
	d, err := daemon.NewWithConfig(spec, lightConfig())
	if err != nil {
		t.Fatal(err)
	}
	fed := &packServer{d: d}
	fed.start(t)

	_, err = NewHerd(context.Background(), herdConfig{
		FederationID: "green",
		Daemons:      []daemonAddr{{Name: "d0", Addr: fed.url()}},
		Timeout:      5 * time.Second,
		Retry:        fastRetryPolicy(),
	})
	if err == nil {
		t.Fatal("herd enrolled a daemon from a foreign federation")
	}

	// The same daemon under a blank herd id (not federated) is accepted.
	h, err := NewHerd(context.Background(), herdConfig{
		Daemons: []daemonAddr{{Name: "d0", Addr: p.url()}},
		Timeout: 5 * time.Second,
		Retry:   fastRetryPolicy(),
	})
	if err != nil {
		t.Fatalf("blank federation herd refused a plain daemon: %v", err)
	}
	if got := h.HealthSummary(); got.Buses != 2 {
		t.Errorf("herd sees %d buses, want 2", got.Buses)
	}
}

// TestParseDaemons covers the -daemons flag grammar.
func TestParseDaemons(t *testing.T) {
	got, err := parseDaemons("http://a:1, east=http://b:2 ,http://c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []daemonAddr{
		{Name: "d0", Addr: "http://a:1"},
		{Name: "east", Addr: "http://b:2"},
		{Name: "d2", Addr: "http://c:3"},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := parseDaemons(""); err == nil {
		t.Error("empty -daemons accepted")
	}
	if _, err := parseDaemons("=http://x"); err == nil {
		t.Error("empty daemon name accepted")
	}
}

// TestHerdHistoryPassthrough covers the federated history route: a known
// bus's history comes from its assigned daemon (empty but present on a fresh
// fleet), an unknown bus is refused before fan-out, a dead owner surfaces as
// unavailable once and is re-balanced away, and the HTTP route speaks the
// v1 envelope.
func TestHerdHistoryPassthrough(t *testing.T) {
	buses := busNames(4)
	h, pack := newTestHerd(t, 2, buses)
	ctx := context.Background()

	resp, werr := h.History(ctx, "dimm00")
	if werr != nil {
		t.Fatalf("History: %+v", werr)
	}
	if resp.Link != "dimm00" || resp.Samples == nil {
		t.Fatalf("History = %+v, want link dimm00 with non-nil samples", resp)
	}

	// HTTP route: same answer through the envelope.
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/links/dimm00/history", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("history route status %d: %s", rec.Code, rec.Body.String())
	}
	var hr attest.HistoryResponse
	if err := attest.ParseBody(rec.Body.Bytes(), &hr); err != nil {
		t.Fatalf("history route body: %v", err)
	}
	if hr.Link != "dimm00" {
		t.Errorf("history route link %q, want dimm00", hr.Link)
	}

	if _, werr := h.History(ctx, "bogus"); werr == nil || werr.Code != attest.CodeUnknownLink {
		t.Fatalf("unknown bus history = %+v, want %s", werr, attest.CodeUnknownLink)
	}

	// Kill the assigned owner: the in-flight call fails as unavailable and
	// marks the shard down; the replicated survivor serves the retry.
	owner, ok := h.Assign("dimm00")
	if !ok {
		t.Fatal("dimm00 unassigned in a healthy pack")
	}
	var ownerIdx int
	fmt.Sscanf(owner, "d%d", &ownerIdx)
	pack[ownerIdx].stop()
	if _, werr := h.History(ctx, "dimm00"); werr == nil || werr.Code != attest.CodeUnavailable {
		t.Fatalf("mid-death history = %+v, want %s", werr, attest.CodeUnavailable)
	}
	resp, werr = h.History(ctx, "dimm00")
	if werr != nil {
		t.Fatalf("post-death history: %+v", werr)
	}
	if newOwner, _ := h.Assign("dimm00"); newOwner == owner {
		t.Errorf("dimm00 still assigned to dead daemon %s", owner)
	}
}

// TestHerdOversizedShardAnswerKeepsShardUp: a shard whose answer runs past
// the SDK's read cap is reported in the partial-failure envelope with an
// error naming the cap, and stays up — the daemon answered, so re-balancing
// its buses onto another shard would only move the oversized answer there.
func TestHerdOversizedShardAnswerKeepsShardUp(t *testing.T) {
	fs := newFakeShard(t, "fed-test", map[string][]attest.Event{"b0": nil, "b1": nil})
	h := herdOverFakes(t, fs)
	resp, werr := h.Attest(context.Background(), nil)
	if werr != nil {
		t.Fatalf("Attest: %v", werr)
	}
	if resp.Complete || len(resp.Errors) != 1 {
		t.Fatalf("complete=%v errors=%+v, want one failed shard", resp.Complete, resp.Errors)
	}
	if msg := resp.Errors[0].Message; !strings.Contains(msg, "16 MiB read cap") {
		t.Errorf("shard error %q should name the read cap", msg)
	}
	if !h.isUp("A") {
		t.Error("shard marked down for an oversized answer")
	}
}

// TestAttestRequestParsedAlikeByBothServers sends the same POST /v1/attest
// bodies to a divotd and to a divotherd in front of it: both must answer
// each with the same status, since they share one request decoder.
func TestAttestRequestParsedAlikeByBothServers(t *testing.T) {
	h, pack := newTestHerd(t, 1, busNames(2))
	herd := httptest.NewServer(h.Handler())
	defer herd.Close()
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty body is the whole fleet", "", http.StatusOK},
		{"empty object", `{}`, http.StatusOK},
		{"named bus", `{"links":["dimm01"]}`, http.StatusOK},
		{"trailing newline", "{\"links\":[\"dimm01\"]}\n", http.StatusOK},
		{"json null", `null`, http.StatusOK},
		{"unknown bus", `{"links":["ghost"]}`, http.StatusNotFound},
		{"trailing garbage", `{"links":["dimm01"]}garbage`, http.StatusBadRequest},
		{"second value", `{"links":["dimm01"]}{"links":["ghost"]}`, http.StatusBadRequest},
		{"whitespace only", " \n\t", http.StatusBadRequest},
		{"not json", `links=dimm01`, http.StatusBadRequest},
		{"wrong type", `{"links":"dimm01"}`, http.StatusBadRequest},
		{"over the cap", `{"links":["dimm01"],"pad":"` + strings.Repeat("x", attest.MaxBody) + `"}`,
			http.StatusBadRequest},
	}
	servers := []struct{ name, url string }{{"divotd", pack[0].url()}, {"divotherd", herd.URL}}
	for _, tc := range cases {
		for _, srv := range servers {
			resp, err := http.Post(srv.url+"/v1/attest", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.name, srv.name, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("%s: %s answered %d, want %d: %.200s", tc.name, srv.name, resp.StatusCode, tc.status, raw)
			}
		}
	}
}
