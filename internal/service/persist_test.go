package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/sparse"
	"repro/internal/store"
)

// persistMatrix is the base model shape shared by the persistence
// tests: small enough to decompose in milliseconds, dense enough that
// rank-3 factors are well-conditioned.
const persistRows, persistCols = 12, 9

func persistService(t *testing.T, fs *store.MemFS, cfg Config) *Service {
	t.Helper()
	cfg.DataDir = "data"
	cfg.StoreFS = fs
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// decomposeReq is the decompose envelope of the persistence tests.
func decomposeReq(t *testing.T, tenant string) Request {
	t.Helper()
	m := testMatrix(t, 7, persistRows, persistCols, 0.4)
	return Request{Tenant: tenant, Kind: "decompose", Rank: 3, Target: "b", Min: 1, Max: 5,
		COO: cooText(t, m)}
}

// decomposeTenant runs one decompose job to completion.
func decomposeTenant(t *testing.T, s *Service, tenant string) {
	t.Helper()
	waitJob(t, s, mustSubmit(t, s, decomposeReq(t, tenant)).ID)
}

// persistPatch builds the k-th deterministic update patch.
func persistPatch(k int) []sparse.ITriplet {
	return []sparse.ITriplet{
		{Row: k % persistRows, Col: (2 * k) % persistCols, Lo: 1.5 + 0.25*float64(k), Hi: 2.0 + 0.25*float64(k)},
		{Row: (k + 5) % persistRows, Col: (k + 3) % persistCols, Lo: 3.0, Hi: 3.5},
	}
}

// patchReq is the envelope of the k-th refresh-never update.
func patchReq(t *testing.T, tenant string, k int) Request {
	t.Helper()
	return Request{Tenant: tenant, Kind: "update", Refresh: "never",
		Delta: deltaText(t, persistRows, persistCols, persistPatch(k))}
}

// patchChain is the envelope sequence of a tenant that decomposed with
// decomposeReq and then acknowledged the given patches.
func patchChain(t *testing.T, tenant string, acked ...int) []Request {
	t.Helper()
	reqs := []Request{decomposeReq(t, tenant)}
	for _, k := range acked {
		reqs = append(reqs, patchReq(t, tenant, k))
	}
	return reqs
}

func submitPatch(t *testing.T, s *Service, tenant string, k int) JobInfo {
	t.Helper()
	return mustSubmit(t, s, patchReq(t, tenant, k))
}

func drain(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// samePredictions pins two snapshots to the same identity and
// bitwise-identical served intervals over the whole matrix.
func samePredictions(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Version != want.Version || got.JobID != want.JobID {
		t.Fatalf("snapshot identity (version %d, job %d), want (version %d, job %d)",
			got.Version, got.JobID, want.Version, want.JobID)
	}
	cells := gridCells(want.Rows, want.Cols)
	if mm := oracle.Diff(cells, served(t, got, cells), served(t, want, cells)); len(mm) > 0 {
		t.Fatalf("recovered %v", mm[0])
	}
}

// TestRestartServesAckedStateBitwise is the durable-ack property end to
// end at the service layer: after every job has been acknowledged, a
// crash (everything not fsynced is lost) and reboot serve exactly the
// acknowledged predictions, and the restarted server resumes version
// and job-ID numbering.
func TestRestartServesAckedStateBitwise(t *testing.T) {
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{})
	s.Start()
	decomposeTenant(t, s, "t")
	var lastJob uint64
	for k := 1; k <= 3; k++ {
		info := submitPatch(t, s, "t", k)
		waitJob(t, s, info.ID)
		lastJob = info.ID
	}
	want := s.Snapshot("t")
	if want == nil || want.Version != 4 {
		t.Fatalf("pre-crash snapshot %+v", want)
	}
	drain(t, s)

	// Losing every unsynced byte must not lose acknowledged state.
	fs.Crash()
	s2 := persistService(t, fs, Config{})
	got := s2.Snapshot("t")
	if got == nil {
		t.Fatal("tenant not recovered")
	}
	samePredictions(t, got, want)
	if got.Pred.Min != 1 || got.Pred.Max != 5 {
		t.Fatalf("rating clamp [%g,%g] not restored", got.Pred.Min, got.Pred.Max)
	}
	if n := s2.metrics.snapshotCounter(mStoreRecovered, label("outcome", "ok")); n != 1 {
		t.Fatalf("recovered outcome=ok counter = %v", n)
	}

	// The rebooted server keeps working: updates admit against the
	// recovered shape, versions continue, and job IDs stay unique.
	s2.Start()
	info := submitPatch(t, s2, "t", 4)
	if info.ID <= lastJob {
		t.Fatalf("restarted job ID %d not above persisted %d", info.ID, lastJob)
	}
	if done := waitJob(t, s2, info.ID); done.Version != 5 {
		t.Fatalf("post-restart update published version %d, want 5", done.Version)
	}
	drain(t, s2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSecondRestartIsStable reboots twice with no writes in between:
// recovery must be idempotent (replay does not mutate durable state
// into something that replays differently).
func TestSecondRestartIsStable(t *testing.T) {
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{})
	s.Start()
	decomposeTenant(t, s, "t")
	info := submitPatch(t, s, "t", 1)
	waitJob(t, s, info.ID)
	drain(t, s)

	fs.Crash()
	s2 := persistService(t, fs, Config{})
	first := s2.Snapshot("t")
	fs.Crash()
	s3 := persistService(t, fs, Config{})
	samePredictions(t, s3.Snapshot("t"), first)
}

// TestPersistFailureFailsJobWithoutPublishing pins persist-before-ack:
// when the store cannot make an update durable, the job fails, no
// snapshot is published, and the tenant keeps serving the previous
// version; the same update resubmitted afterwards succeeds (the store
// repairs its log before reuse).
func TestPersistFailureFailsJobWithoutPublishing(t *testing.T) {
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{PersistRetries: -1}) // no retries
	s.Start()
	defer func() { drain(t, s) }()
	decomposeTenant(t, s, "t")

	fs.FailNext("sync", errors.New("injected EIO"))
	info := submitPatch(t, s, "t", 1)
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := s.Job(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == JobFailed {
			break
		}
		if st.State == JobDone {
			t.Fatal("job acknowledged despite persistence failure")
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not terminate")
		}
		time.Sleep(time.Millisecond)
	}
	if snap := s.Snapshot("t"); snap.Version != 1 {
		t.Fatalf("failed job published version %d", snap.Version)
	}

	retry := submitPatch(t, s, "t", 1)
	if done := waitJob(t, s, retry.ID); done.Version != 2 {
		t.Fatalf("resubmitted update published version %d, want 2", done.Version)
	}
}

// TestTransientPersistFailureIsRetried exercises the bounded
// retry/backoff: a one-shot write failure is absorbed without failing
// the job.
func TestTransientPersistFailureIsRetried(t *testing.T) {
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{PersistBackoff: time.Millisecond})
	s.Start()
	defer func() { drain(t, s) }()
	decomposeTenant(t, s, "t")

	fs.FailNext("sync", errors.New("injected EIO"))
	info := submitPatch(t, s, "t", 1)
	if done := waitJob(t, s, info.ID); done.Version != 2 {
		t.Fatalf("update published version %d, want 2", done.Version)
	}
	if n := s.metrics.snapshotCounter(mStoreRetries, label("op", "delta")); n != 1 {
		t.Fatalf("retry counter = %v, want 1", n)
	}
}

// TestEscalatedUpdateCompacts: an update that escalates folds the log
// at once when that retires no idempotency key, so a reboot maps the
// snapshot instead of re-running the refresh; the compacted snapshot
// keeps the publishing job's own key. While the generation holds
// another job's key the escalated record is logged instead, and the
// key survives the reboot.
func TestEscalatedUpdateCompacts(t *testing.T) {
	for _, c := range []struct {
		name          string
		bootKey       string // idempotency key of the decompose
		refreshKey    string // idempotency key of the escalated update
		wantSnapshots float64
		wantReplayed  int
	}{
		{"unkeyed", "", "", 2, 1},
		{"own key carried", "", "u:1", 2, 1},
		{"boot key kept", "boot:1", "u:1", 1, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := store.NewMemFS()
			s := persistService(t, fs, Config{})
			s.Start()
			info, err := submitEnvelopeIdem(s, decomposeReq(t, "t"), c.bootKey)
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, s, info.ID)
			refresh := patchReq(t, "t", 1)
			refresh.Refresh = "always"
			if info, err = submitEnvelopeIdem(s, refresh, c.refreshKey); err != nil {
				t.Fatal(err)
			}
			waitJob(t, s, info.ID)
			// A refresh-never update after it is logged either way.
			waitJob(t, s, submitPatch(t, s, "t", 2).ID)
			drain(t, s)
			if n := s.metrics.snapshotCounter(mStorePersist, label("op", "snapshot")); n != c.wantSnapshots {
				t.Fatalf("snapshot writes = %v, want %v", n, c.wantSnapshots)
			}

			fs.Crash()
			st, err := store.Open("data", store.Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := st.Recover("t")
			if err != nil {
				t.Fatal(err)
			}
			if rec.Seq != 3 || rec.Replayed != c.wantReplayed {
				t.Fatalf("recovered seq %d with %d replayed records, want 3 and %d", rec.Seq, rec.Replayed, c.wantReplayed)
			}
			var keys []string
			for _, a := range rec.Acked {
				keys = append(keys, a.Key)
			}
			var want []string
			for _, k := range []string{c.bootKey, c.refreshKey} {
				if k != "" {
					want = append(want, k)
				}
			}
			if fmt.Sprint(keys) != fmt.Sprint(want) {
				t.Fatalf("recovered keys %v, want %v", keys, want)
			}
		})
	}
}

// TestCompactionBoundsTheLog: 2·DefaultCompactEvery updates must fold
// the log twice, so a reboot replays zero records. The tenant runs
// ISVD1, whose refresh-never patches here never escalate, so only the
// record count folds the log.
func TestCompactionBoundsTheLog(t *testing.T) {
	fs := store.NewMemFS()
	s := persistService(t, fs, Config{})
	s.Start()
	req := decomposeReq(t, "t")
	req.Method = "ISVD1"
	waitJob(t, s, mustSubmit(t, s, req).ID)
	for k := 1; k <= 2*DefaultCompactEvery; k++ {
		info := submitPatch(t, s, "t", k)
		waitJob(t, s, info.ID)
	}
	drain(t, s)
	// One decompose snapshot plus one compaction per two updates.
	if n := s.metrics.snapshotCounter(mStorePersist, label("op", "snapshot")); n != 3 {
		t.Fatalf("snapshot writes = %v, want 3", n)
	}

	fs.Crash()
	st, err := store.Open("data", store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.Recover("t")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 2*DefaultCompactEvery+1 || rec.Replayed != 0 {
		t.Fatalf("recovered seq %d with %d replayed records, want %d and 0", rec.Seq, rec.Replayed, 2*DefaultCompactEvery+1)
	}
}
