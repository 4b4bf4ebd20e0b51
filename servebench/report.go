package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sheet collects metrics in print order and prints each as a line
// "kind name value unit (note)".
type sheet struct {
	kind    string
	metrics map[string]metric
	lines   []string
}

func newSheet(kind string) *sheet { return &sheet{kind: kind, metrics: map[string]metric{}} }

// put records a metric for the result line and prints it.
func (s *sheet) put(name string, v float64, unit, note string) {
	s.metrics[name] = metric{Value: v, Unit: unit}
	s.show(name, v, unit, note)
}

// show prints a metric that is not part of the result line.
func (s *sheet) show(name string, v float64, unit, note string) {
	line := fmt.Sprintf("%-6s %-36s %14.6g %-6s", s.kind, name, v, unit)
	if note != "" {
		line += " " + note
	}
	s.lines = append(s.lines, strings.TrimRight(line, " "))
}

// pct prints a percentile under the percentile rule and returns it
// with whether the rule allows reporting it; when it does not, the line
// says so instead of showing a value.
func (s *sheet) pct(name string, samples []float64, q float64, unit string) (float64, bool) {
	v, ok := percentile(samples, q)
	if !ok {
		s.lines = append(s.lines, fmt.Sprintf("%-6s %-36s %14s %-6s (n=%d: fewer than %d samples beyond p%g, not reported)",
			s.kind, name, "-", unit, len(samples), minBeyond, q*100))
		return v, false
	}
	s.show(name, v, unit, fmt.Sprintf("(n=%d)", len(samples)))
	return v, true
}

// pctLayer records a per-layer percentile; it reads 0 when the rule
// does not allow it (per-layer metrics are not gated).
func (s *sheet) pctLayer(name string, samples []float64, q float64, unit string) {
	v, ok := s.pct(name, samples, q, unit)
	if !ok {
		v = 0
	}
	s.metrics[name] = metric{Value: v, Unit: unit}
}

// timedUpdates are the updates submitted inside the timed window.
func (r *runner) timedUpdates() []*jobRec {
	var out []*jobRec
	for _, j := range r.jobs {
		if j.kind == "update" && !j.submit.Before(r.windowStart) && j.submit.Before(r.deadline) {
			out = append(out, j)
		}
	}
	return out
}

// openLoopReads returns the open-loop reads of one kind.
func (r *runner) openLoopReads(topn bool) []*readRec {
	var out []*readRec
	for _, rd := range r.reads {
		if rd.openLoop && rd.topn == topn {
			out = append(out, rd)
		}
	}
	return out
}

// report computes the metrics, prints the metric lines, and returns the
// result line: end-to-end metrics, or the per-layer ones when traced.
// An end-to-end percentile that fails the percentile rule fails the
// run: the result line never carries a value the rule rejected.
func (r *runner) report(rep *replayReport, trace bool) result {
	e2e := newSheet("e2e")
	updates := r.timedUpdates()
	var ackMs []float64
	acked, lastAck := 0, r.windowStart
	for _, j := range updates {
		ackMs = append(ackMs, ms(j.ackLatency()))
		if !j.ack.After(r.deadline) {
			acked++
			lastAck = maxTime(lastAck, j.ack)
		}
	}
	predicts, topns := r.openLoopReads(false), r.openLoopReads(true)
	latMs := func(rs []*readRec) []float64 {
		out := make([]float64, len(rs))
		for i, rd := range rs {
			lat, _ := openLoopTiming(rd.due, rd.sent, rd.done)
			out[i] = ms(lat)
		}
		return out
	}
	gated := func(name string, samples []float64, q float64, unit string) {
		v, ok := e2e.pct(name, samples, q, unit)
		if !ok {
			_ = r.fail("%s: %d samples leave fewer than %d beyond p%g; the timed phase is too short", name, len(samples), minBeyond, q*100)
		}
		e2e.metrics[name] = metric{Value: v, Unit: unit}
	}

	e2e.put("setup_s", median(r.setupS), "s", fmt.Sprintf("(median of %d set-ups)", len(r.setupS)))
	gated("predict_p50_ms", latMs(predicts), 0.5, "ms")
	gated("predict_p99_ms", latMs(predicts), 0.99, "ms")
	gated("topn_p50_ms", latMs(topns), 0.5, "ms")
	gated("update_ack_p50_ms", ackMs, 0.5, "ms")
	gated("update_ack_p90_ms", ackMs, 0.9, "ms")
	// The rate runs to the last acknowledgement inside the window, so it
	// carries no quantization from a job straddling the deadline.
	e2e.put("updates_per_s", ratio(float64(acked), lastAck.Sub(r.windowStart).Seconds()), "1/s",
		fmt.Sprintf("(%d acked in %.3fs)", acked, lastAck.Sub(r.windowStart).Seconds()))
	gated("decompose_ack_p50_s", r.decomposeS, 0.5, "s")
	e2e.put("recover_s", median(r.recoverS), "s", fmt.Sprintf("(median of %d restarts)", len(r.recoverS)))
	e2e.put("peak_rss_mb", float64(r.hwmKB)/1024, "MB", "")
	// error_frac is 0 on every correct run, so the result line carries it
	// as attempted/failed rather than as a metric.
	e2e.show("error_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", fmt.Sprintf("(%d of %d operations failed)", r.failed, r.attempted))

	res := result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: e2e.metrics}
	out := e2e.lines
	if trace && rep != nil {
		layers := r.layerSheet(rep, updates, predicts)
		res.Metrics = layers.metrics
		out = append(out, layers.lines...)
		out = append(out, r.breakdowns(rep, updates, predicts)...)
	}
	fmt.Printf("workload %s seed %d: %d tenants, %v timed, %d jobs acknowledged, %d reads checked\n",
		r.wl.name, r.seed, len(r.tenants), r.seconds, len(r.jobs), checked(rep))
	if r.exhausted {
		fmt.Println("note: a tenant ran out of pre-generated updates; the workload is undersized for this host")
	}
	for _, l := range out {
		fmt.Println(l)
	}
	for _, f := range r.failures {
		fmt.Println("FAIL", f)
	}
	return res
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func checked(rep *replayReport) int {
	if rep == nil {
		return 0
	}
	return rep.checkedReads
}

// layerSheet computes the per-layer metrics of a traced run.
func (r *runner) layerSheet(rep *replayReport, updates []*jobRec, predicts []*readRec) *sheet {
	s := newSheet("layer")
	var late, submit, jobMs, unattrUpd, unattrRead []float64
	polls := 0
	jobs := updates
	for _, j := range jobs {
		submit = append(submit, ms(j.submitRTT))
		polls += j.polls
	}
	idx := r.jobIndex()
	for _, j := range updates {
		jobMs = append(jobMs, j.info.LatencyMs)
		unattrUpd = append(unattrUpd, ms(j.ackLatency()-sumParts(rep.jobParts[idx[j]])))
	}
	ridx := r.readIndex()
	for _, rd := range r.reads {
		if rd.openLoop {
			_, lt := openLoopTiming(rd.due, rd.sent, rd.done)
			late = append(late, ms(lt))
		}
	}
	for _, rd := range predicts {
		lat, _ := openLoopTiming(rd.due, rd.sent, rd.done)
		p := rep.readParts[ridx[rd]]
		unattrRead = append(unattrRead, ms(lat-p[0]-p[1]))
	}
	s.pctLayer("loadgen.late_p99_ms", late, 0.99, "ms")
	s.put("loadgen.polls_per_ack", ratio(float64(polls), float64(len(jobs))), "count", "")
	s.pctLayer("service.submit_p50_ms", submit, 0.5, "ms")
	s.pctLayer("service.job_p50_ms", jobMs, 0.5, "ms")
	s.pctLayer("service.job_p90_ms", jobMs, 0.9, "ms")
	s.pctLayer("service.unattributed_update_p50_ms", unattrUpd, 0.5, "ms")
	s.pctLayer("service.unattributed_read_p50_ms", unattrRead, 0.5, "ms")
	s.put("service.encode_us", median(rep.encodeUs), "us", fmt.Sprintf("(median of %d)", len(rep.encodeUs)))
	rejected := 0.0
	for _, l := range r.lives {
		rejected += l.counters.rejected
	}
	s.put("service.rejected", rejected, "count", "")
	s.put("dataset.coo_decode_ms", median(rep.cooDecodeMs), "ms", fmt.Sprintf("(median of %d)", len(rep.cooDecodeMs)))
	s.put("dataset.payload_kb", median(rep.payloadKB), "KB", "")
	s.put("dataset.delta_decode_us", median(rep.deltaDecodeUs), "us", fmt.Sprintf("(median of %d)", len(rep.deltaDecodeUs)))
	phase := func(f func(t core.Timings) time.Duration) float64 {
		var v []float64
		for _, t := range rep.timings {
			v = append(v, ms(f(t)))
		}
		return median(v)
	}
	s.put("core.decompose_ms", phase(core.Timings.Total), "ms", fmt.Sprintf("(median of %d)", len(rep.timings)))
	s.put("core.preprocess_ms", phase(func(t core.Timings) time.Duration { return t.Preprocess }), "ms", "")
	s.put("eig.decompose_ms", phase(func(t core.Timings) time.Duration { return t.Decompose }), "ms", "")
	s.put("core.align_ms", phase(func(t core.Timings) time.Duration { return t.Align }), "ms", "")
	s.put("core.solve_ms", phase(func(t core.Timings) time.Duration { return t.Solve }), "ms", "")
	s.put("core.construct_ms", phase(func(t core.Timings) time.Duration { return t.Construct }), "ms", "")
	s.pctLayer("core.update_p50_ms", rep.updateMs, 0.5, "ms")
	s.pctLayer("core.update_p90_ms", rep.updateMs, 0.9, "ms")
	nUpd := float64(len(rep.updateMs))
	s.put("core.additive_frac", ratio(float64(rep.additive), nUpd), "ratio", fmt.Sprintf("(%d of %.0f updates)", rep.additive, nUpd))
	s.put("core.refresh_frac", ratio(float64(rep.refreshes), nUpd), "ratio", fmt.Sprintf("(%d)", rep.refreshes))
	s.put("core.redecompose_frac", ratio(float64(rep.redecomposes), nUpd), "ratio", fmt.Sprintf("(%d)", rep.redecomposes))
	s.put("recommend.build_us", median(rep.buildUs), "us", fmt.Sprintf("(median of %d)", len(rep.buildUs)))
	s.put("recommend.predict_cell_ns", ratio(float64(rep.predictNs), float64(rep.predictCells)), "ns", fmt.Sprintf("(%d cells)", rep.predictCells))
	s.put("recommend.topn_us", median(rep.topnUs), "us", fmt.Sprintf("(median of %d)", len(rep.topnUs)))
	s.put("store.append_us", median(rep.appendUs), "us", fmt.Sprintf("(median of %d)", len(rep.appendUs)))
	s.put("store.save_snapshot_ms", median(rep.saveSnapshotMs), "ms", fmt.Sprintf("(median of %d)", len(rep.saveSnapshotMs)))
	s.put("store.recover_ms", rep.recoverMs, "ms", "")
	s.put("store.replayed_records", float64(rep.replayedRecords), "count", "")
	ops := len(jobs) + len(late)
	s.put("ivmfd.cpu_ms_per_op", ratio(ms(r.cpu), float64(ops)), "ms", fmt.Sprintf("(%d ops)", ops))
	s.put("ivmfd.cpu_util", ratio(r.cpu.Seconds(), r.cpuWall.Seconds()*float64(runtime.NumCPU())), "ratio",
		fmt.Sprintf("(%d CPUs)", runtime.NumCPU()))
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumParts(p [numLayers]time.Duration) time.Duration {
	var s time.Duration
	for _, d := range p {
		s += d
	}
	return s
}

func (r *runner) jobIndex() map[*jobRec]int {
	m := make(map[*jobRec]int, len(r.jobs))
	for i, j := range r.jobs {
		m[j] = i
	}
	return m
}

func (r *runner) readIndex() map[*readRec]int {
	m := make(map[*readRec]int, len(r.reads))
	for i, rd := range r.reads {
		m[rd] = i
	}
	return m
}

// breakdowns splits the median update acknowledgement and the median
// predict into their replayed layers plus the unattributed remainder,
// which by construction sum to the end-to-end figure.
func (r *runner) breakdowns(rep *replayReport, updates []*jobRec, predicts []*readRec) []string {
	var out []string
	idx := r.jobIndex()
	if j := medianBy(updates, func(j *jobRec) time.Duration { return j.ackLatency() }); j != nil {
		p := rep.jobParts[idx[j]]
		line := fmt.Sprintf("split  update_ack_p50_ms %.3f =", ms(j.ackLatency()))
		for l := 0; l < numLayers; l++ {
			line += fmt.Sprintf(" %s %.3f +", layerNames[l], ms(p[l]))
		}
		out = append(out, line+fmt.Sprintf(" unattributed %.3f (job %d)", ms(j.ackLatency()-sumParts(p)), j.info.ID))
	}
	ridx := r.readIndex()
	lat := func(rd *readRec) time.Duration { l, _ := openLoopTiming(rd.due, rd.sent, rd.done); return l }
	if rd := medianBy(predicts, lat); rd != nil {
		p := rep.readParts[ridx[rd]]
		out = append(out, fmt.Sprintf("split  predict_p50_ms %.3f = recommend %.3f + encode %.3f + unattributed %.3f",
			ms(lat(rd)), ms(p[0]), ms(p[1]), ms(lat(rd)-p[0]-p[1])))
	}
	return out
}

// medianBy returns the element at the nearest-rank median of key.
func medianBy[T any](xs []T, key func(T) time.Duration) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	s := append([]T(nil), xs...)
	slices.SortStableFunc(s, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
	return s[(len(s)+1)/2-1]
}
