// Package store is the crash-safe model store: versioned binary factor
// snapshots plus a write-ahead delta log, organized per tenant under
// one data directory.
//
//	<dir>/<tenant>/snap-<gen>.ivmf   factor snapshot, generation <gen>
//	<dir>/<tenant>/wal-<gen>.log     deltas applied on top of snap-<gen>
//
// Write protocols are crash-ordered: snapshots land via temp-file →
// fsync → rename → parent-dir fsync, and WAL appends are fsynced before
// the caller acknowledges the job, so the durable state is always a
// prefix of the acknowledged state. Recovery loads the newest readable
// snapshot and replays its log; because core.Decomposition.Update is a
// pure function of the persisted engine state, the recovered model is
// bitwise-identical to the pre-crash one. Corruption is detected by
// per-section CRCs, quarantined (renamed *.corrupt), and reported as an
// event while recovery degrades to the previous generation — the store
// returns errors, never panics, on bad bytes.
package store

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// ErrNoState reports that a tenant has no recoverable persisted state.
var ErrNoState = errors.New("store: no persisted state")

// Event kinds reported through Options.OnEvent.
const (
	EventSnapshotCorrupt = "snapshot_corrupt" // snapshot failed CRC/decode/import, quarantined
	EventWALCorrupt      = "wal_corrupt"      // log header or CRC-valid record unreadable, quarantined
	EventWALTorn         = "wal_torn"         // torn tail truncated (expected after a crash mid-append)
	EventDegraded        = "degraded"         // recovery fell back to an older generation
	EventCleanupFailed   = "cleanup_failed"   // old-generation removal failed (retried next snapshot)
)

// Event is one notable store occurrence, for metrics and logs.
type Event struct {
	Tenant string
	Kind   string
	Detail string
}

// Options configures a Store.
type Options struct {
	// FS is the filesystem; nil means the real one.
	FS FS
	// OnEvent, when set, receives corruption/degradation events. It is
	// called with the store lock held; keep it fast and non-reentrant.
	OnEvent func(Event)
	// KeepGenerations is how many snapshot generations to retain
	// (minimum and default 2: the current one plus one fallback for
	// graceful degradation).
	KeepGenerations int
}

// Store manages the persistent state of all tenants under one
// directory. Methods are safe for concurrent use; operations on
// distinct tenants serialize on one lock, which is fine because the
// serving tier already funnels writes through a per-tenant job queue.
type Store struct {
	fs      FS
	dir     string
	onEvent func(Event)
	keep    int

	mu      sync.Mutex
	tenants map[string]*tenantState
	unmaps  []func() error
	closed  bool
}

// tenantState is the open-store bookkeeping for one tenant.
type tenantState struct {
	gen        uint64 // current snapshot generation, 0 = none
	wal        File   // open log handle for gen, nil until first append
	walRecords int    // records durable in the current log
	walBad     bool   // last append failed mid-write; repair before reuse
}

// Recovered is the result of recovering one tenant: the rebuilt
// decomposition and the serving metadata to resume from.
type Recovered struct {
	Decomp *core.Decomposition
	// Seq and JobID identify the last applied update (from the log
	// tail, or the snapshot itself if the log was empty).
	Seq   uint64
	JobID uint64
	// MinRating and MaxRating are the serving predictor's rating clamp
	// recorded at snapshot time (Max <= Min means unclamped).
	MinRating float64
	MaxRating float64
	// Acked lists the idempotency keys whose jobs are durably part of the
	// recovered state: the snapshot's own key (if any) plus every key
	// acknowledged by a replayed log record. The window is bounded by
	// compaction — keys retired with an old generation are forgotten.
	Acked []IdemAck
	// Gen is the generation recovered from; Replayed counts log records
	// applied on top of the snapshot. Degraded reports that a newer
	// generation existed but was unreadable. ZeroCopy reports that the
	// served factors alias the memory-mapped snapshot.
	Gen      uint64
	Replayed int
	Degraded bool
	ZeroCopy bool
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OS()
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	keep := opts.KeepGenerations
	if keep < 2 {
		keep = 2
	}
	onEvent := opts.OnEvent
	if onEvent == nil {
		onEvent = func(Event) {}
	}
	return &Store{
		fs:      fsys,
		dir:     dir,
		onEvent: onEvent,
		keep:    keep,
		tenants: make(map[string]*tenantState),
	}, nil
}

// Tenants lists the tenants with a data directory, sorted.
func (s *Store) Tenants() ([]string, error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list tenants: %w", err)
	}
	var tenants []string
	for _, name := range names {
		if checkTenant(name) != nil {
			continue
		}
		if _, err := s.fs.ReadDir(s.dir + "/" + name); err == nil {
			tenants = append(tenants, name)
		}
	}
	return tenants, nil
}

// Recover rebuilds a tenant's model from the newest readable snapshot
// generation plus its write-ahead log. Unreadable snapshots are
// quarantined and recovery degrades to the previous generation;
// ErrNoState means nothing usable was found. The recovered model is
// bitwise-identical to the state whose persistence was last
// acknowledged.
//
//ivmf:deterministic
func (s *Store) Recover(tenant string) (*Recovered, error) {
	if err := checkTenant(tenant); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	tdir := s.dir + "/" + tenant
	names, err := s.fs.ReadDir(tdir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: tenant %s", ErrNoState, tenant)
		}
		return nil, fmt.Errorf("store: recover %s: %w", tenant, err)
	}
	gens := snapshotGenerations(names)
	degraded := false
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i]
		rec, err := s.recoverGeneration(tenant, gen)
		if err != nil {
			s.onEvent(Event{Tenant: tenant, Kind: EventSnapshotCorrupt, Detail: err.Error()})
			s.quarantine(tenant, snapName(gen))
			// The generation's log goes with it: its records describe
			// deltas on top of the snapshot just quarantined, so they can
			// never be replayed again — and they must not be left where
			// the timeline that reuses this generation number would
			// append acknowledged records after them.
			if _, serr := s.fs.Size(tdir + "/" + walName(gen)); serr == nil {
				s.quarantine(tenant, walName(gen))
			}
			degraded = true
			continue
		}
		if degraded {
			rec.Degraded = true
			s.onEvent(Event{Tenant: tenant, Kind: EventDegraded,
				Detail: fmt.Sprintf("serving generation %d", gen)})
		}
		if prev := s.tenants[tenant]; prev != nil && prev.wal != nil {
			// Re-recovering an open tenant: release the superseded log
			// handle instead of leaking it.
			_ = prev.wal.Close()
		}
		s.tenants[tenant] = &tenantState{gen: gen, walRecords: rec.Replayed}
		return rec, nil
	}
	return nil, fmt.Errorf("%w: tenant %s", ErrNoState, tenant)
}

// recoverGeneration loads one snapshot generation and replays its log.
func (s *Store) recoverGeneration(tenant string, gen uint64) (*Recovered, error) {
	path := s.dir + "/" + tenant + "/" + snapName(gen)
	data, zeroCopy, unmap, err := s.fs.Mmap(path)
	if err != nil {
		return nil, fmt.Errorf("map snapshot: %w", err)
	}
	payload, err := DecodeSnapshot(data)
	if err == nil && payload.Meta.Seq == 0 {
		// Seq starts at 1 for the base state; 0 means the header lies.
		err = fmt.Errorf("store: snapshot: sequence number 0")
	}
	var d *core.Decomposition
	if err == nil {
		d, err = core.ImportState(payload.State)
	}
	if err != nil {
		_ = unmap()
		return nil, err
	}
	zeroCopy = zeroCopy && payload.ZeroCopy
	rec := &Recovered{
		Decomp:    d,
		Seq:       payload.Meta.Seq,
		JobID:     payload.Meta.JobID,
		MinRating: payload.Meta.MinRating,
		MaxRating: payload.Meta.MaxRating,
		Gen:       gen,
		ZeroCopy:  zeroCopy,
	}
	if key := payload.Meta.IdemKey; key != "" {
		rec.Acked = append(rec.Acked, IdemAck{JobID: payload.Meta.JobID, Key: key})
	}
	if err := s.replayWAL(tenant, gen, rec, payload.State.Opts); err != nil {
		_ = unmap()
		return nil, err
	}
	if zeroCopy {
		// The served factor planes alias the mapping; hold it until the
		// store closes.
		s.unmaps = append(s.unmaps, unmap)
	} else {
		_ = unmap()
	}
	return rec, nil
}

// replayWAL applies the generation's log to rec.Decomp, repairing a
// torn tail in place. A log that fails before its first record is
// quarantined and treated as empty (a crash during log creation happens
// before any append was acknowledged, so nothing durable is lost).
//
//ivmf:deterministic
func (s *Store) replayWAL(tenant string, gen uint64, rec *Recovered, opts core.Options) error {
	path := s.dir + "/" + tenant + "/" + walName(gen)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("read log: %w", err)
	}
	fileGen, payloads, validLen, err := scanWAL(data)
	if err == nil && fileGen != gen {
		err = fmt.Errorf("store: wal: header generation %d in %s", fileGen, walName(gen))
	}
	if err != nil {
		s.onEvent(Event{Tenant: tenant, Kind: EventWALCorrupt, Detail: err.Error()})
		s.quarantine(tenant, walName(gen))
		return nil
	}
	for i, payload := range payloads {
		wr, err := DecodeWALRecord(payload)
		if err == nil && wr.Seq != rec.Seq+1 {
			err = fmt.Errorf("store: wal: record %d has sequence %d, want %d", i, wr.Seq, rec.Seq+1)
		}
		var d2 *core.Decomposition
		if err == nil {
			opts.Refresh = wr.Refresh
			opts.RefreshBudget = wr.RefreshBudget
			opts.OrthoBudget = wr.OrthoBudget
			d2, err = rec.Decomp.Update(wr.Delta, opts)
		}
		if err != nil {
			// CRC held but the record is unusable: quarantine the whole
			// log and serve the state up to the previous record — every
			// replayed prefix is a consistent acknowledged state.
			s.onEvent(Event{Tenant: tenant, Kind: EventWALCorrupt,
				Detail: fmt.Sprintf("record %d: %v", i, err)})
			s.quarantine(tenant, walName(gen))
			return nil
		}
		rec.Decomp = d2
		rec.Seq = wr.Seq
		rec.JobID = wr.JobID
		rec.Acked = append(rec.Acked, wr.Acked...)
		rec.Replayed++
	}
	if validLen < int64(len(data)) {
		s.onEvent(Event{Tenant: tenant, Kind: EventWALTorn,
			Detail: fmt.Sprintf("truncating %s to %d of %d bytes", walName(gen), validLen, len(data))})
		if err := s.fs.Truncate(path, validLen); err != nil {
			return fmt.Errorf("truncate torn log: %w", err)
		}
	}
	return nil
}

// SaveSnapshot durably writes a new snapshot generation for the tenant
// and retires its previous log: temp file, content fsync, rename into
// place, directory fsync. On return the snapshot is the tenant's
// recovery root and subsequent AppendDelta calls start a fresh log.
func (s *Store) SaveSnapshot(tenant string, ps *core.PersistentState, meta SnapshotMeta) error {
	if err := checkTenant(tenant); err != nil {
		return err
	}
	if meta.Seq == 0 {
		return fmt.Errorf("store: save %s: sequence number 0", tenant)
	}
	data, err := EncodeSnapshot(ps, meta)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	t := s.tenants[tenant]
	if t == nil {
		t = &tenantState{}
		s.tenants[tenant] = t
	}
	tdir := s.dir + "/" + tenant
	if t.gen == 0 {
		if err := s.fs.MkdirAll(tdir); err != nil {
			return fmt.Errorf("store: save %s: %w", tenant, err)
		}
		if err := s.fs.SyncDir(s.dir); err != nil {
			return fmt.Errorf("store: save %s: %w", tenant, err)
		}
	}
	gen := t.gen + 1
	final := tdir + "/" + snapName(gen)
	// A log for the new generation can pre-exist if that generation was
	// quarantined in an earlier lifetime (corrupt snapshot, degraded
	// recovery) and the store re-reaches it: those records belong to the
	// dead timeline and appending acknowledged records after them would
	// corrupt the new timeline's replay. Remove the stale log and make
	// the removal durable before the new snapshot name can become
	// durable, so snap-<gen> never coexists on disk with a log it did
	// not produce.
	stale := tdir + "/" + walName(gen)
	if _, serr := s.fs.Size(stale); serr == nil {
		if err := s.fs.Remove(stale); err != nil {
			return fmt.Errorf("store: save %s: remove stale log: %w", tenant, err)
		}
		if err := s.fs.SyncDir(tdir); err != nil {
			return fmt.Errorf("store: save %s: %w", tenant, err)
		}
	} else if !errors.Is(serr, os.ErrNotExist) {
		return fmt.Errorf("store: save %s: %w", tenant, serr)
	}
	tmp := final + ".tmp"
	if err := s.writeFileDurable(tmp, data); err != nil {
		return fmt.Errorf("store: save %s: %w", tenant, err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: save %s: %w", tenant, err)
	}
	if err := s.fs.SyncDir(tdir); err != nil {
		return fmt.Errorf("store: save %s: %w", tenant, err)
	}
	if t.wal != nil {
		_ = t.wal.Close()
	}
	t.wal = nil
	t.walRecords = 0
	t.walBad = false
	t.gen = gen
	s.cleanup(tenant, gen)
	return nil
}

// AppendDelta durably appends one update record to the tenant's
// write-ahead log, fsyncing before return — the caller may acknowledge
// the job as soon as this returns nil. The record count of the current
// log is returned so the caller can trigger compaction (SaveSnapshot)
// at its own threshold. Errors leave the log no worse than torn, which
// the next append or recovery repairs; a failed append is therefore
// safe to retry.
func (s *Store) AppendDelta(tenant string, rec *WALRecord) (int, error) {
	if err := checkTenant(tenant); err != nil {
		return 0, err
	}
	payload, err := EncodeWALRecord(rec)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: closed")
	}
	t := s.tenants[tenant]
	if t == nil || t.gen == 0 {
		return 0, fmt.Errorf("store: append %s: no snapshot to log against", tenant)
	}
	path := s.dir + "/" + tenant + "/" + walName(t.gen)
	if t.walBad {
		if err := s.repairWAL(path); err != nil {
			return t.walRecords, fmt.Errorf("store: append %s: repair log: %w", tenant, err)
		}
		t.walBad = false
	}
	if t.wal == nil {
		f, created, err := s.openWAL(path, t.gen)
		if err != nil {
			return t.walRecords, fmt.Errorf("store: append %s: %w", tenant, err)
		}
		t.wal = f
		if created {
			if err := s.fs.SyncDir(s.dir + "/" + tenant); err != nil {
				_ = f.Close()
				t.wal = nil
				return t.walRecords, fmt.Errorf("store: append %s: %w", tenant, err)
			}
		}
	}
	frame := frameWALRecord(payload)
	if _, err := t.wal.Write(frame); err != nil {
		s.dropWAL(t)
		return t.walRecords, fmt.Errorf("store: append %s: %w", tenant, err)
	}
	if err := t.wal.Sync(); err != nil {
		s.dropWAL(t)
		return t.walRecords, fmt.Errorf("store: append %s: %w", tenant, err)
	}
	t.walRecords++
	return t.walRecords, nil
}

// dropWAL closes a handle after a failed append; the file may end in a
// torn record, so the next append runs repair first.
func (s *Store) dropWAL(t *tenantState) {
	if t.wal != nil {
		_ = t.wal.Close()
	}
	t.wal = nil
	t.walBad = true
}

// repairWAL truncates a log to its valid prefix (same scan recovery
// uses) so appends never land after torn bytes.
func (s *Store) repairWAL(path string) error {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	_, _, validLen, err := scanWAL(data)
	if err != nil {
		// Header never became durable; restart the file from scratch.
		validLen = 0
	}
	if validLen < int64(len(data)) {
		return s.fs.Truncate(path, validLen)
	}
	return nil
}

// openWAL opens the generation's log for appending, writing and syncing
// the header when the file is new. created reports that the file (name)
// is new and the parent directory needs a sync.
func (s *Store) openWAL(path string, gen uint64) (File, bool, error) {
	size, err := s.fs.Size(path)
	switch {
	case err == nil && size >= walHeaderLen:
		f, err := s.fs.OpenAppend(path)
		return f, false, err
	case err == nil:
		// A crash left a headerless stub; rewrite it.
		if err := s.fs.Truncate(path, 0); err != nil {
			return nil, false, err
		}
	case !errors.Is(err, os.ErrNotExist):
		return nil, false, err
	}
	f, err := s.fs.OpenAppend(path)
	if err != nil {
		return nil, false, err
	}
	if _, err := f.Write(walHeader(gen)); err != nil {
		_ = f.Close()
		return nil, false, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, false, err
	}
	return f, true, nil
}

// writeFileDurable writes name with synced content. The name itself
// becomes durable with the caller's directory sync.
func (s *Store) writeFileDurable(name string, data []byte) error {
	f, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// quarantine renames a corrupt file aside so it stops shadowing older
// generations but stays available for postmortem.
func (s *Store) quarantine(tenant, name string) {
	path := s.dir + "/" + tenant + "/" + name
	if err := s.fs.Rename(path, path+".corrupt"); err != nil {
		s.onEvent(Event{Tenant: tenant, Kind: EventCleanupFailed,
			Detail: fmt.Sprintf("quarantine %s: %v", name, err)})
		return
	}
	_ = s.fs.SyncDir(s.dir + "/" + tenant)
}

// cleanup removes generations older than the retention window. Failures
// only emit an event: stale files cost disk, not correctness, and the
// next snapshot retries.
func (s *Store) cleanup(tenant string, gen uint64) {
	tdir := s.dir + "/" + tenant
	names, err := s.fs.ReadDir(tdir)
	if err != nil {
		s.onEvent(Event{Tenant: tenant, Kind: EventCleanupFailed, Detail: err.Error()})
		return
	}
	removed := false
	for _, name := range names {
		old, ok := parseGen(name)
		if !ok || old+uint64(s.keep) > gen {
			continue
		}
		if err := s.fs.Remove(tdir + "/" + name); err != nil {
			s.onEvent(Event{Tenant: tenant, Kind: EventCleanupFailed,
				Detail: fmt.Sprintf("remove %s: %v", name, err)})
			continue
		}
		removed = true
	}
	if removed {
		_ = s.fs.SyncDir(tdir)
	}
}

// Close releases open log handles and snapshot mappings. The caller
// must have stopped serving models recovered zero-copy: their factor
// planes alias mappings this unmaps.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, t := range s.tenants {
		if t.wal != nil {
			if err := t.wal.Close(); err != nil && first == nil {
				first = err
			}
			t.wal = nil
		}
	}
	for _, unmap := range s.unmaps {
		if err := unmap(); err != nil && first == nil {
			first = err
		}
	}
	s.unmaps = nil
	return first
}

// snapName and walName build generation file names; the zero-padded hex
// counter makes lexicographic order equal numeric order.
func snapName(gen uint64) string { return fmt.Sprintf("snap-%016x.ivmf", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%016x.log", gen) }

// parseGen extracts the generation from either file name.
func parseGen(name string) (uint64, bool) {
	var hex string
	switch {
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".ivmf"):
		hex = strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".ivmf")
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
		hex = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	default:
		return 0, false
	}
	if len(hex) != 16 {
		return 0, false
	}
	gen, err := strconv.ParseUint(hex, 16, 64)
	if err != nil || gen == 0 {
		return 0, false
	}
	return gen, true
}

// snapshotGenerations extracts the sorted snapshot generations present
// in a tenant directory listing.
func snapshotGenerations(names []string) []uint64 {
	var gens []uint64
	for _, name := range names {
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".ivmf") {
			continue
		}
		if gen, ok := parseGen(name); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// checkTenant guards path construction: the serving tier's tenant
// grammar is alphanumerics plus ._- which unfortunately admits the
// traversal names, so the store re-rejects anything that is not a plain
// single-level directory name.
func checkTenant(name string) error {
	if name == "" || name == "." || name == ".." || len(name) > 64 {
		return fmt.Errorf("store: invalid tenant name %q", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("store: invalid tenant name %q", name)
		}
	}
	return nil
}
