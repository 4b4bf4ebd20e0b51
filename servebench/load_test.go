package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// TestReadLoopOpenLoop drives the open-loop reader against a server
// that takes 30ms per answer while reads are due every 10ms: the
// schedule must not slow down, so every later read is sent late and
// its latency, counted from its due time, includes that wait.
func TestReadLoopOpenLoop(t *testing.T) {
	const answerTime = 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(answerTime)
		var req service.PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := service.PredictResponse{Tenant: req.Tenant, Version: 1}
		for _, c := range req.Cells {
			resp.Predictions = append(resp.Predictions, service.Prediction{Row: c[0], Col: c[1]})
		}
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer closeClient(c)

	tenants := []*tenantInput{{name: "t0", rows: 4, cols: 4}}
	plan := readPlan(tenants, 6, 2, 0, rand.New(rand.NewSource(1)))
	start := time.Now()
	const rate = 100 // one read due every 10ms
	sent, failed, err := readLoop(c, tenants, plan, start, start.Add(55*time.Millisecond), rate)
	if err != nil || failed != 0 {
		t.Fatalf("readLoop: %d failed, %v", failed, err)
	}
	if len(sent) != 6 {
		t.Fatalf("sent %d reads, want the 6 due before the deadline", len(sent))
	}
	for i, rd := range sent {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !rd.due.Equal(want) {
			t.Errorf("read %d due %v after start, want %v", i, rd.due.Sub(start), want.Sub(start))
		}
		lat, late := openLoopTiming(rd.due, rd.sent, rd.done)
		if lat < late+answerTime {
			t.Errorf("read %d: latency %v does not include lateness %v plus service time", i, lat, late)
		}
		if i > 0 {
			// Each read waits for its predecessor, which finished at least
			// (i+1)*30ms after start while it was due at i*10ms.
			if floor := time.Duration(i) * (answerTime - 10*time.Millisecond); late < floor {
				t.Errorf("read %d late %v, want at least %v", i, late, floor)
			}
		}
		if rd.version != 1 || len(rd.preds) != 2 {
			t.Errorf("read %d: answer not recorded: %+v", i, rd)
		}
	}
}

// TestPumpOneJobInFlight checks the writer keeps at most one job in
// flight per tenant and records acknowledgements in order.
func TestPumpOneJobInFlight(t *testing.T) {
	var inflight, maxInflight, id int
	mux := http.NewServeMux()
	pending := map[int]int{} // job id -> polls until done
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		id++
		inflight++
		maxInflight = max(maxInflight, inflight)
		pending[id] = 2
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(service.JobInfo{ID: uint64(id), State: service.JobQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		var jid int
		if err := json.Unmarshal([]byte(r.PathValue("id")), &jid); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		info := service.JobInfo{ID: uint64(jid), State: service.JobRunning}
		if pending[jid]--; pending[jid] <= 0 {
			info.State, info.Version = service.JobDone, uint64(jid)
			inflight--
		}
		_ = json.NewEncoder(w).Encode(info)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := newClient(srv.URL) // one connection: handlers never run concurrently
	defer closeClient(c)

	r := newRunner(&workload{name: "test"}, []*tenantInput{
		{name: "a", rows: 2, cols: 2, updates: make([]updateInput, 3)},
	}, "", t.TempDir(), time.Second, 1)
	r.resetChain()
	if err := r.pump(c, r.nextUpdateJob); err != nil {
		t.Fatal(err)
	}
	if maxInflight != 1 {
		t.Errorf("max jobs in flight %d, want 1", maxInflight)
	}
	if len(r.jobs) != 3 || r.attempted != 3 || r.failed != 0 {
		t.Fatalf("acked %d jobs, attempted %d, failed %d", len(r.jobs), r.attempted, r.failed)
	}
	for i, j := range r.jobs {
		if j.input != i || j.polls != 2 || j.ack.Before(j.submit) {
			t.Errorf("job %d: input %d polls %d", i, j.input, j.polls)
		}
	}
	if !r.exhausted {
		t.Error("running out of updates was not noted")
	}
}
