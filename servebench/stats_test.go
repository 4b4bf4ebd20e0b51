package main

import (
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 10, false}, // 9 samples beyond the median
		{20, 0.5, 10, true},  // 10 beyond
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
}

func TestOpenLoopTiming(t *testing.T) {
	due := time.Unix(100, 0)
	// On time: latency is the service time, no lateness.
	lat, late := openLoopTiming(due, due, due.Add(3*time.Millisecond))
	if lat != 3*time.Millisecond || late != 0 {
		t.Errorf("on time: latency %v late %v", lat, late)
	}
	// Sent 20ms after it was due (the sender was stalled): the wait is
	// charged to the request's latency and shows as lateness.
	lat, late = openLoopTiming(due, due.Add(20*time.Millisecond), due.Add(23*time.Millisecond))
	if lat != 23*time.Millisecond || late != 20*time.Millisecond {
		t.Errorf("stalled: latency %v late %v", lat, late)
	}
	// A sender that woke early is never negatively late.
	if _, late = openLoopTiming(due, due.Add(-time.Millisecond), due); late != 0 {
		t.Errorf("early: late %v", late)
	}
}

func TestParseCounters(t *testing.T) {
	text := `# HELP ivmfd_jobs_rejected_total Jobs rejected at admission, by reason.
# TYPE ivmfd_jobs_rejected_total counter
ivmfd_jobs_rejected_total{reason="invalid"} 2
ivmfd_jobs_rejected_total{reason="queue_full"} 3
# TYPE ivmfd_jobs_failed_total counter
ivmfd_jobs_failed_total{kind="update"} 1
ivmfd_job_latency_seconds_bucket{kind="update",le="0.5"} 7
ivmfd_model_health_escalations_total{level="redecompose"} 4
ivmfd_model_health_escalations_total{level="refresh"} 17
ivmfd_model_health_residual_budget_used{tenant="t0"} 0.25
`
	c, err := parseCounters(text)
	if err != nil {
		t.Fatal(err)
	}
	want := serverCounters{refreshes: 17, redecomposes: 4, rejected: 5}
	if c != want {
		t.Errorf("parseCounters = %+v, want %+v", c, want)
	}
	if _, err := parseCounters("ivmfd_jobs_failed_total{kind=\"update\"} one\n"); err == nil {
		t.Error("bad sample value accepted")
	}
	if _, err := parseCounters("garbage\n"); err == nil {
		t.Error("line without a value accepted")
	}
}

func TestParseStatCPU(t *testing.T) {
	// Fields 14 and 15 (utime, stime) are 150 and 50 ticks; the command
	// name contains a space and a parenthesis.
	stat := "4242 (iv) mfd) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 9 0 100 1000000 500"
	cpu, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 2*time.Second {
		t.Errorf("cpu = %v, want 2s", cpu)
	}
	if _, err := parseStatCPU("4242 (x) S 1"); err == nil {
		t.Error("short stat accepted")
	}
}
