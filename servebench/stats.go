package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie strictly above it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples and whether
// the rule allows reporting it (at least minBeyond samples beyond).
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return s[idx], n-1-idx >= minBeyond
}

// median is the middle sample (lower middle for even counts); the
// percentile rule does not apply to it. Used for repeated set-ups and
// restarts, whose count is fixed by the workload.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoopTiming accounts one open-loop request against its schedule:
// latency runs from when the request was due (so a stall charges every
// request queued behind it), and lateness is how long after its due
// time the sender actually sent it.
func openLoopTiming(due, sent, done time.Time) (latency, late time.Duration) {
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}

// serverCounters is what the benchmark reads from ivmfd's /metrics.
type serverCounters struct {
	refreshes    float64 // ivmfd_model_health_escalations_total{level="refresh"}
	redecomposes float64 // ivmfd_model_health_escalations_total{level="redecompose"}
	rejected     float64 // sum of ivmfd_jobs_rejected_total over reasons
}

// parseCounters maps Prometheus text exposition onto serverCounters.
// Comment lines and unrelated families are skipped; a malformed sample
// line is an error.
func parseCounters(text string) (serverCounters, error) {
	var c serverCounters
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return c, fmt.Errorf("metrics: malformed line %q", line)
		}
		series, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return c, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		switch name {
		case "ivmfd_model_health_escalations_total":
			switch labels {
			case `{level="refresh"}`:
				c.refreshes += v
			case `{level="redecompose"}`:
				c.redecomposes += v
			}
		case "ivmfd_jobs_rejected_total":
			c.rejected += v
		}
	}
	return c, sc.Err()
}
