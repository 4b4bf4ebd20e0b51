package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/recommend"
	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/store"
)

// The replay oracle. After ivmfd has stopped, every acknowledged job is
// replayed in acknowledgement order through the library layers with
// the service's own recipe, from the exact wire text the server
// received. The replay chain is then the oracle for:
//   - every read answer, bitwise, at the version the answer reports;
//   - every tenant's final served state (the final and recovery probes);
//   - the escalation counters each process exported on /metrics.
//
// Each call into a layer is a span (name, start, end, parent job or
// read span), kept in memory and written to spans.json when a traced
// run ends. The spans are uncontended self times: the replay runs alone.

// span is one timed call in the replay.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a job or read root span
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) begin(name string, parent int) int {
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Name: name, Start: int64(time.Since(tr.t0)), Parent: parent})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) time.Duration {
	s := &tr.spans[id]
	s.End = int64(time.Since(tr.t0))
	return time.Duration(s.End - s.Start)
}

// call runs fn as a child span of parent.
func call[T any](tr *tracer, parent int, name string, fn func() (T, error)) (T, time.Duration, error) {
	id := tr.begin(name, parent)
	v, err := fn()
	return v, tr.end(id), err
}

// Layer slots of a replayed job's time.
const (
	layerDataset = iota
	layerCore
	layerRecommend
	layerStore
	numLayers
)

var layerNames = [numLayers]string{"dataset", "core", "recommend", "store"}

// replayReport holds the per-layer samples of one replay.
type replayReport struct {
	jobParts  [][numLayers]time.Duration // per runner.jobs entry
	readParts [][2]time.Duration         // per runner.reads entry: compute, encode

	cooDecodeMs, payloadKB, deltaDecodeUs []float64
	timings                               []core.Timings
	updateMs                              []float64
	additive, refreshes, redecomposes     int
	buildUs, topnUs, encodeUs             []float64
	predictNs                             time.Duration
	predictCells                          int
	appendUs, saveSnapshotMs              []float64
	recoverMs                             float64
	replayedRecords                       int
	checkedReads                          int
}

// mismatch counts one failed correctness check.
func (r *runner) mismatch(format string, args ...any) {
	_ = r.fail("oracle: "+format, args...)
}

// replay runs the oracle. With trace set it also replays the store
// layer into a scratch directory, times the response encodings and
// per-version probes, recovers the server's data dir offline, and
// writes the spans. Correctness failures are counted, not returned; the
// error is for a replay that could not run at all.
func (r *runner) replay(trace bool) (*replayReport, error) {
	rep := &replayReport{
		jobParts:  make([][numLayers]time.Duration, len(r.jobs)),
		readParts: make([][2]time.Duration, len(r.reads)),
	}
	tr := &tracer{t0: time.Now()}
	type verKey struct {
		tenant  int
		version uint64
	}
	byVersion := map[verKey][]int{}
	for i, rd := range r.reads {
		k := verKey{rd.tenant, rd.version}
		byVersion[k] = append(byVersion[k], i)
	}
	var st *store.Store
	if trace {
		dir := filepath.Join(r.work, "replay-store")
		r.dataDirs = append(r.dataDirs, dir)
		var err error
		if st, err = store.Open(dir, store.Options{}); err != nil {
			return nil, err
		}
		defer st.Close()
	}

	n := len(r.tenants)
	chain := make([]*core.Decomposition, n)
	version := make([]uint64, n)
	// Escalations each process should have exported: those of the jobs
	// it acknowledged plus those its boot-time recovery repeated while
	// replaying every tenant's write-ahead tail.
	expRef, expRed := make([]int, len(r.lives)), make([]int, len(r.lives))
	tailRef, tailRed, tailN := make([]int, n), make([]int, n), make([]int, n)
	life := 0
	for ji, j := range r.jobs {
		if j.life != life {
			life = j.life
			for t := 0; t < n; t++ {
				if life < len(expRef) {
					expRef[life] += tailRef[t]
					expRed[life] += tailRed[t]
				}
			}
		}
		t, tn := j.tenant, r.tenants[j.tenant]
		root := tr.begin("job."+j.kind, -1)
		parts := &rep.jobParts[ji]
		var delta core.Delta
		switch j.kind {
		case "decompose":
			base, dt, err := call(tr, root, "dataset.ReadIntervalCOO", func() (*sparse.ICSR, error) {
				return dataset.ReadIntervalCOO(strings.NewReader(tn.baseCOO))
			})
			if err != nil {
				return nil, err
			}
			parts[layerDataset] = dt
			rep.cooDecodeMs = append(rep.cooDecodeMs, ms(dt))
			rep.payloadKB = append(rep.payloadKB, float64(len(tn.baseCOO))/1024)
			d, dt, err := call(tr, root, "core.DecomposeSparse", func() (*core.Decomposition, error) {
				return decomposeBase(tn, base)
			})
			if err != nil {
				return nil, err
			}
			parts[layerCore] = dt
			rep.timings = append(rep.timings, d.Timings)
			chain[t] = d
			tailRef[t], tailRed[t], tailN[t] = 0, 0, 0
		case "update":
			u := tn.updates[j.input]
			batch, dt, err := call(tr, root, "dataset.ParseDeltaCOO", func() (dataset.DeltaBatch, error) {
				_, _, b, err := dataset.ParseDeltaCOO(strings.NewReader(u.delta))
				sortBatch(&b)
				return b, err
			})
			if err != nil {
				return nil, err
			}
			parts[layerDataset] = dt
			rep.deltaDecodeUs = append(rep.deltaDecodeUs, float64(dt)/1e3)
			delta = core.Delta{Forget: u.forget, Patch: batch.Patch, Unpatch: batch.Tombstones}
			prev := chain[t].Health()
			d, dt, err := call(tr, root, "core.Update", func() (*core.Decomposition, error) {
				return chain[t].Update(delta, core.Options{})
			})
			if err != nil {
				return nil, err
			}
			parts[layerCore] = dt
			rep.updateMs = append(rep.updateMs, ms(dt))
			h := d.Health()
			dRef, dRed := h.Refreshes-prev.Refreshes, h.Redecomposes-prev.Redecomposes
			switch {
			case dRed > 0:
				rep.redecomposes++
			case dRef > 0:
				rep.refreshes++
			default:
				rep.additive++
			}
			if j.life < len(expRef) {
				expRef[j.life] += dRef
				expRed[j.life] += dRed
			}
			tailRef[t] += dRef
			tailRed[t] += dRed
			if tailN[t]++; tailN[t] >= service.DefaultCompactEvery {
				tailRef[t], tailRed[t], tailN[t] = 0, 0, 0
			}
			chain[t] = d
		}
		pred, dt, err := call(tr, root, "recommend.FromSparseDecomposition", func() (*recommend.Predictor, error) {
			return recommend.FromSparseDecomposition(chain[t], 1, 5)
		})
		if err != nil {
			return nil, err
		}
		parts[layerRecommend] = dt
		rep.buildUs = append(rep.buildUs, float64(dt)/1e3)
		if j.info.Version != version[t]+1 {
			r.mismatch("%s job %d published version %d, replay expects %d", tn.name, j.info.ID, j.info.Version, version[t]+1)
		}
		version[t] = j.info.Version
		if trace {
			if parts[layerStore], err = r.replayStore(st, tr, root, rep, j, chain[t], delta); err != nil {
				return nil, err
			}
		}
		tr.end(root)

		for _, ri := range byVersion[verKey{t, version[t]}] {
			r.checkRead(ri, pred, tr, rep)
		}
		if trace {
			r.probeLayers(t, version[t], pred, tr, rep)
		}
	}
	for _, rd := range r.reads {
		if !rd.checked {
			r.mismatch("%s answered at version %d, which no acknowledged job published", r.tenants[rd.tenant].name, rd.version)
		}
	}
	for l, lr := range r.lives {
		if !lr.scraped {
			continue
		}
		if int(lr.counters.refreshes) != expRef[l] || int(lr.counters.redecomposes) != expRed[l] {
			r.mismatch("process %d exported %v refresh / %v redecompose escalations, replay has %d / %d",
				l, lr.counters.refreshes, lr.counters.redecomposes, expRef[l], expRed[l])
		}
	}
	if trace {
		if err := r.recoverOffline(chain, tr, rep); err != nil {
			return nil, err
		}
		data, err := json.Marshal(tr.spans)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(r.work, "spans.json"), data, 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// replayStore persists a replayed job into the scratch store exactly as
// the service does: a snapshot for a decompose, an fsynced write-ahead
// record for an update plus a compaction snapshot every
// service.DefaultCompactEvery records.
func (r *runner) replayStore(st *store.Store, tr *tracer, root int, rep *replayReport, j *jobRec, d *core.Decomposition, delta core.Delta) (time.Duration, error) {
	name := r.tenants[j.tenant].name
	snapshot := func() (time.Duration, error) {
		_, dt, err := call(tr, root, "store.SaveSnapshot", func() (struct{}, error) {
			ps, err := d.ExportState()
			if err != nil {
				return struct{}{}, err
			}
			return struct{}{}, st.SaveSnapshot(name, ps, store.SnapshotMeta{
				Seq: j.info.Version, JobID: j.info.ID, MinRating: 1, MaxRating: 5})
		})
		rep.saveSnapshotMs = append(rep.saveSnapshotMs, ms(dt))
		return dt, err
	}
	if j.kind == "decompose" {
		return snapshot()
	}
	records, dt, err := call(tr, root, "store.AppendDelta", func() (int, error) {
		return st.AppendDelta(name, &store.WALRecord{Seq: j.info.Version, JobID: j.info.ID, Delta: delta})
	})
	if err != nil {
		return dt, err
	}
	rep.appendUs = append(rep.appendUs, float64(dt)/1e3)
	if records >= service.DefaultCompactEvery {
		st2, err := snapshot()
		return dt + st2, err
	}
	return dt, nil
}

// checkRead compares one served answer bitwise with the replay chain at
// the version it reports, timing the recomputation and the response
// encoding as its layers.
func (r *runner) checkRead(ri int, pred *recommend.Predictor, tr *tracer, rep *replayReport) {
	rd := r.reads[ri]
	name := r.tenants[rd.tenant].name
	rd.checked = true
	rep.checkedReads++
	if rd.topn {
		root := tr.begin("read.topn", -1)
		items, dt, err := call(tr, root, "recommend.TopN", func() ([]int, error) {
			return pred.TopN(rd.row, topnN, map[int]bool{})
		})
		_, et, _ := call(tr, root, "json.TopNResponse", func() ([]byte, error) {
			return json.Marshal(service.TopNResponse{Tenant: name, Version: rd.version, Row: rd.row, Items: items})
		})
		tr.end(root)
		rep.readParts[ri] = [2]time.Duration{dt, et}
		rep.topnUs = append(rep.topnUs, float64(dt)/1e3)
		if err != nil || !slices.Equal(items, rd.items) {
			r.mismatch("%s topn row %d at version %d: served %v, replay %v (%v)", name, rd.row, rd.version, rd.items, items, err)
		}
		return
	}
	root := tr.begin("read.predict", -1)
	preds, dt, err := call(tr, root, "recommend.PredictInterval", func() ([]service.Prediction, error) {
		return predictCells(pred, rd.cells)
	})
	_, et, _ := call(tr, root, "json.PredictResponse", func() ([]byte, error) {
		return json.Marshal(service.PredictResponse{Tenant: name, Version: rd.version, Predictions: preds})
	})
	tr.end(root)
	rep.readParts[ri] = [2]time.Duration{dt, et}
	rep.predictNs += dt
	rep.predictCells += len(rd.cells)
	rep.encodeUs = append(rep.encodeUs, float64(et)/1e3)
	if err != nil {
		r.mismatch("%s predict at version %d: replay failed: %v", name, rd.version, err)
		return
	}
	if !samePredictions(rd.preds, preds) {
		r.mismatch("%s predict at version %d differs from the replay", name, rd.version)
	}
}

// probeLayers times the read-path layers on one replayed version with
// the tenant's probe cells and row, so the recommend and encode layers
// are measured on workloads without a read stream too.
func (r *runner) probeLayers(t int, version uint64, pred *recommend.Predictor, tr *tracer, rep *replayReport) {
	name := r.tenants[t].name
	root := tr.begin("probe", -1)
	preds, dt, err := call(tr, root, "recommend.PredictInterval", func() ([]service.Prediction, error) {
		return predictCells(pred, r.probes[t])
	})
	if err == nil {
		rep.predictNs += dt
		rep.predictCells += len(r.probes[t])
		_, et, _ := call(tr, root, "json.PredictResponse", func() ([]byte, error) {
			return json.Marshal(service.PredictResponse{Tenant: name, Version: version, Predictions: preds})
		})
		rep.encodeUs = append(rep.encodeUs, float64(et)/1e3)
	}
	if _, dt, err := call(tr, root, "recommend.TopN", func() ([]int, error) {
		return pred.TopN(r.probes[t][0][0], topnN, map[int]bool{})
	}); err == nil {
		rep.topnUs = append(rep.topnUs, float64(dt)/1e3)
	}
	tr.end(root)
}

// predictCells answers a cell list the way the service's predict
// handler does.
func predictCells(pred *recommend.Predictor, cells [][2]int) ([]service.Prediction, error) {
	out := make([]service.Prediction, 0, len(cells))
	for _, c := range cells {
		iv, err := pred.PredictInterval(c[0], c[1])
		if err != nil {
			return nil, err
		}
		out = append(out, service.Prediction{Row: c[0], Col: c[1], Lo: iv.Lo, Hi: iv.Hi, Mid: iv.Mid()})
	}
	return out, nil
}

// samePredictions compares two answers bit for bit.
func samePredictions(a, b []service.Prediction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Row != b[i].Row || a[i].Col != b[i].Col ||
			math.Float64bits(a[i].Lo) != math.Float64bits(b[i].Lo) ||
			math.Float64bits(a[i].Hi) != math.Float64bits(b[i].Hi) ||
			math.Float64bits(a[i].Mid) != math.Float64bits(b[i].Mid) {
			return false
		}
	}
	return true
}

// recoverOffline opens the stopped server's data dir with the store
// layer, recovers every tenant, and checks the recovered model against
// the replay chain on the probe cells.
func (r *runner) recoverOffline(chain []*core.Decomposition, tr *tracer, rep *replayReport) error {
	dir := r.dataDirs[setups-1]
	root := tr.begin("recover", -1)
	t0 := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	recs := make([]*store.Recovered, len(r.tenants))
	for t, tn := range r.tenants {
		rec, _, err := call(tr, root, "store.Recover", func() (*store.Recovered, error) { return st.Recover(tn.name) })
		if err != nil {
			return fmt.Errorf("offline recover %s: %w", tn.name, err)
		}
		recs[t] = rec
		rep.replayedRecords += rec.Replayed
	}
	rep.recoverMs = ms(time.Since(t0))
	tr.end(root)
	for t, rec := range recs {
		want, err := recommend.FromSparseDecomposition(chain[t], 1, 5)
		if err != nil {
			return err
		}
		got, err := recommend.FromSparseDecomposition(rec.Decomp, rec.MinRating, rec.MaxRating)
		if err != nil {
			return err
		}
		a, errA := predictCells(got, r.probes[t])
		b, errB := predictCells(want, r.probes[t])
		if errA != nil || errB != nil || !samePredictions(a, b) {
			r.mismatch("%s recovered offline differs from the replay chain", r.tenants[t].name)
		}
	}
	return nil
}
