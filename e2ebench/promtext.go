package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// promSample is one series of a Prometheus text-format scrape.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed /metrics answer.
type scrape []promSample

// parseProm reads the Prometheus text exposition format that divotd and
// divotherd serve: comment lines are skipped, every other line is
// `name{label="value",...} number`.
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	var s promSample
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		labels, n, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("%q: %w", line, err)
		}
		s.labels = labels
		rest = rest[n:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := parsePromFloat(fields[0])
	if err != nil {
		return s, fmt.Errorf("%q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// parseLabels parses `{k="v",...}` at the start of s and returns the labels
// and the bytes consumed.
func parseLabels(s string) (map[string]string, int, error) {
	labels := map[string]string{}
	i := 1
	for {
		if i >= len(s) {
			return nil, 0, fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return labels, i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			return nil, 0, fmt.Errorf("malformed label at %d", i)
		}
		key := strings.TrimSpace(s[i : i+eq])
		j := i + eq + 2
		var val strings.Builder
		for ; j < len(s) && s[j] != '"'; j++ {
			if s[j] == '\\' && j+1 < len(s) {
				j++
				switch s[j] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[j])
				}
				continue
			}
			val.WriteByte(s[j])
		}
		if j >= len(s) {
			return nil, 0, fmt.Errorf("unterminated label value for %q", key)
		}
		labels[key] = val.String()
		i = j + 1
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

func parsePromFloat(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

// sum adds every series of the named metric whose labels include all of
// match (nil matches every series).
func (s scrape) sum(name string, match map[string]string) float64 {
	total := 0.0
	for _, x := range s {
		if x.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if x.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += x.value
		}
	}
	return total
}

// scrapes holds one scrape per process, taken at the same moment.
type scrapes []scrape

// sum adds the metric over every process.
func (ss scrapes) sum(name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range ss {
		total += s.sum(name, match)
	}
	return total
}

// delta is after minus before for the metric summed over every process.
func delta(before, after scrapes, name string, match map[string]string) float64 {
	return after.sum(name, match) - before.sum(name, match)
}
