package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// The testdata scrapes were captured from a 3-bus divotd (nic0 under an
// interposer attack) and a divotherd in front of it, after one whole-fleet
// attest through the herd and one single-bus attest.
func loadScrape(t *testing.T, name string) scrape {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseCapturedDivotdScrape(t *testing.T) {
	s := loadScrape(t, "divotd.metrics")
	for _, c := range []struct {
		name  string
		match map[string]string
		want  float64
	}{
		{"divot_round_duration_seconds_count", nil, 128},
		{"divot_round_duration_seconds_count", map[string]string{"link": "nic0"}, 42},
		{"divot_round_duration_seconds_bucket", map[string]string{"link": "nic0", "le": "+Inf"}, 42},
		{"divot_measurements_total", map[string]string{"side": "cpu"}, 244},
		{"divot_confirm_retries_total", nil, 156},
		{"divot_attest_cache_hits_total", nil, 4},
		{"divot_scheduler_overruns_total", nil, 1},
		{"divot_stream_dropped_total", nil, 0},
	} {
		if got := s.sum(c.name, c.match); got != c.want {
			t.Errorf("%s%v = %g, want %g", c.name, c.match, got, c.want)
		}
	}
	if got := s.sum("divot_round_duration_seconds_sum", map[string]string{"link": "dimm0"}); math.Abs(got-0.316854439) > 1e-12 {
		t.Errorf("dimm0 round seconds = %g", got)
	}
}

func TestParseCapturedDivotherdScrape(t *testing.T) {
	s := loadScrape(t, "divotherd.metrics")
	attest := map[string]string{"op": "attest"}
	if n := s.sum("divotherd_fanout_seconds_count", attest); n != 1 {
		t.Errorf("attest fan-outs = %g, want 1", n)
	}
	if got := 1000 * s.sum("divotherd_fanout_seconds_sum", attest); math.Abs(got-2.833785) > 1e-9 {
		t.Errorf("attest fan-out = %g ms, want 2.833785", got)
	}
	if n := s.sum("divotherd_fanout_seconds_count", map[string]string{"op": "probe"}); n != 2 {
		t.Errorf("probe fan-outs = %g, want 2", n)
	}
}

func TestParseLabelEscapesAndDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader("# HELP x y\nm{a=\"q\\\"uote\",b=\"2\"} 3\nm{a=\"z\"} 1.5e1\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader("m{a=\"q\\\"uote\",b=\"2\"} 10\nm{a=\"z\"} 20\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := before.sum("m", map[string]string{"a": `q"uote`}); got != 3 {
		t.Errorf("escaped label match = %g, want 3", got)
	}
	if got := delta(scrapes{before}, scrapes{after}, "m", nil); got != 12 {
		t.Errorf("delta = %g, want 12", got)
	}
	if _, err := parseProm(strings.NewReader("m{a=\"open 1\n")); err == nil {
		t.Error("unterminated label set parsed")
	}
}
