package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
	"repro/internal/sparse"
)

// Write-ahead log format, version 3 ("IVMFWAL3"):
//
//	[0,8)   magic "IVMFWAL3"
//	[8,16)  u64 generation — the snapshot this log extends
//	records, each:
//	  u32 payload length
//	  u32 CRC32C of the payload
//	  payload
//
// A record's payload is one applied delta plus the metadata needed to
// replay it bitwise-identically:
//
//	u64 seq, u64 jobID
//	u32 reserved, written 0                  (once a refresh-policy
//	                                          code; see DecodeWALRecord)
//	f64 refresh budget                       (the Update option that
//	                                          changes results; ±Inf
//	                                          allowed, NaN rejected)
//	f64 ortho budget, f64 forget λ           (the health guardrail
//	                                          option and the delta's
//	                                          forgetting factor, 0 =
//	                                          absent for both)
//	u16 acked-key count, then per key: u64 jobID, u8 len, len bytes
//	                                   (idempotency keys acknowledged
//	                                    by this record, one per
//	                                    coalesced job that carried one)
//	u8 flags: bit0 append-rows, bit1 append-cols, bit2 patch,
//	          bit3 unpatch, bit4 remove-rows, bit5 remove-cols
//	per present ICSR: u32 rows, u32 cols, u64 nnz,
//	                  i64 rowptr[rows+1], i64 colind[nnz],
//	                  f64 lo[nnz], f64 hi[nnz]
//	patch:   u64 count, then per cell i64 row, i64 col, f64 lo, f64 hi
//	unpatch: u64 count, then per cell i64 row, i64 col
//	remove-rows, remove-cols: u64 count, then i64 indices
//
// This is the only format read. A log in the retired v2 layout
// ("IVMFWAL2") fails with ErrWALFormat, and recovery quarantines it
// like any other unreadable log.
//
// Recovery tolerates a torn tail — a crash mid-append leaves a partial
// final record — by scanning records in order and truncating the file
// at the first one whose length prefix or checksum doesn't hold.
// Anything before that point was fsynced before the job was
// acknowledged, so no acknowledged update is ever lost.

const (
	walMagic     = "IVMFWAL3"
	walHeaderLen = 16
)

// ErrWALFormat reports a log whose header is not the current format's,
// such as one written in the retired "IVMFWAL2" layout.
var ErrWALFormat = errors.New("store: wal: unsupported log format")

// MaxIdemKeyLen bounds an idempotency key's byte length in both on-disk
// formats (the snapshot header reserves a fixed field of this size).
const MaxIdemKeyLen = 64

// IdemAck records that the job identified by JobID was acknowledged
// under the client-supplied idempotency key Key. Persisting the pair
// with the state the job produced lets a restarted server answer a
// retried submission with the original acknowledgement instead of
// running the job twice.
type IdemAck struct {
	JobID uint64
	Key   string
}

// checkIdemKey validates one persisted idempotency key.
func checkIdemKey(key string) error {
	if key == "" || len(key) > MaxIdemKeyLen {
		return fmt.Errorf("store: idempotency key length %d outside 1..%d", len(key), MaxIdemKeyLen)
	}
	return nil
}

// WALRecord is one replayable update.
type WALRecord struct {
	Seq   uint64
	JobID uint64
	// RefreshBudget is the refresh budget the update ran under
	// (core.Options.RefreshBudget, ±Inf included).
	RefreshBudget float64
	// OrthoBudget is the orthogonality-drift guardrail the update ran
	// under (core.Options.OrthoBudget; 0 = the engine default). Carried
	// per record, like RefreshBudget, so replay re-derives the same
	// escalation decisions.
	OrthoBudget float64
	// Acked lists the idempotency keys acknowledged by this record —
	// one entry per coalesced job whose submission carried a key.
	Acked []IdemAck
	Delta core.Delta
}

// EncodeWALRecord serializes one record payload, framing excluded.
func EncodeWALRecord(rec *WALRecord) ([]byte, error) {
	d := &rec.Delta
	if d.AppendRows == nil && d.AppendCols == nil && len(d.Patch) == 0 &&
		len(d.Unpatch) == 0 && len(d.RemoveRows) == 0 && len(d.RemoveCols) == 0 && d.Forget == 0 {
		return nil, fmt.Errorf("store: wal: empty delta")
	}
	if d.Forget != 0 && !(d.Forget > 0 && d.Forget <= 1) {
		return nil, fmt.Errorf("store: wal: forgetting factor %v outside (0, 1]", d.Forget)
	}
	if rec.OrthoBudget < 0 || math.IsNaN(rec.OrthoBudget) || math.IsInf(rec.OrthoBudget, 0) {
		return nil, fmt.Errorf("store: wal: ortho budget %v invalid", rec.OrthoBudget)
	}
	if math.IsNaN(rec.RefreshBudget) {
		return nil, fmt.Errorf("store: wal: refresh budget %v invalid", rec.RefreshBudget)
	}
	b := make([]byte, 0, 64)
	b = binary.LittleEndian.AppendUint64(b, rec.Seq)
	b = binary.LittleEndian.AppendUint64(b, rec.JobID)
	b = binary.LittleEndian.AppendUint32(b, 0) // reserved
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.RefreshBudget))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.OrthoBudget))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.Delta.Forget))
	if len(rec.Acked) > math.MaxUint16 {
		return nil, fmt.Errorf("store: wal: %d acked keys exceed %d", len(rec.Acked), math.MaxUint16)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(rec.Acked)))
	for _, a := range rec.Acked {
		if err := checkIdemKey(a.Key); err != nil {
			return nil, err
		}
		b = binary.LittleEndian.AppendUint64(b, a.JobID)
		b = append(b, byte(len(a.Key)))
		b = append(b, a.Key...)
	}
	var flags byte
	if d.AppendRows != nil {
		flags |= 1
	}
	if d.AppendCols != nil {
		flags |= 2
	}
	if len(d.Patch) > 0 {
		flags |= 4
	}
	if len(d.Unpatch) > 0 {
		flags |= 8
	}
	if len(d.RemoveRows) > 0 {
		flags |= 16
	}
	if len(d.RemoveCols) > 0 {
		flags |= 32
	}
	b = append(b, flags)
	for _, a := range []*sparse.ICSR{d.AppendRows, d.AppendCols} {
		if a == nil {
			continue
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(a.Rows))
		b = binary.LittleEndian.AppendUint32(b, uint32(a.Cols))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(a.ColInd)))
		b = appendI64s(b, a.RowPtr)
		b = appendI64s(b, a.ColInd)
		b = appendF64s(b, a.Lo)
		b = appendF64s(b, a.Hi)
	}
	if len(d.Patch) > 0 {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(d.Patch)))
		for _, t := range d.Patch {
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(t.Row)))
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(t.Col)))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Lo))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Hi))
		}
	}
	if len(d.Unpatch) > 0 {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(d.Unpatch)))
		for _, c := range d.Unpatch {
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(c.Row)))
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(c.Col)))
		}
	}
	for _, idx := range [][]int{d.RemoveRows, d.RemoveCols} {
		if len(idx) == 0 {
			continue
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(len(idx)))
		b = appendI64s(b, idx)
	}
	return b, nil
}

// DecodeWALRecord parses one record payload. Like the snapshot decoder
// it never panics and bounds every allocation by the payload length.
// Records from before the refresh budget was the only refresh setting
// carry a policy code in the reserved slot: 1 (never) reads as an
// infinite budget and 2 (always) as a negative-infinite one, exactly
// the budgets those policies equal; any larger code is an error.
//
//ivmf:deterministic
func DecodeWALRecord(b []byte) (*WALRecord, error) {
	r := &walReader{b: b}
	rec := &WALRecord{}
	rec.Seq = r.u64("seq")
	rec.JobID = r.u64("jobID")
	legacy := r.u32("reserved")
	rec.RefreshBudget = math.Float64frombits(r.u64("refreshBudget"))
	rec.OrthoBudget = math.Float64frombits(r.u64("orthoBudget"))
	rec.Delta.Forget = math.Float64frombits(r.u64("forget"))
	if r.err == nil {
		switch legacy {
		case 0:
		case 1:
			rec.RefreshBudget = math.Inf(1)
		case 2:
			rec.RefreshBudget = math.Inf(-1)
		default:
			return nil, fmt.Errorf("store: wal: reserved field %d invalid at offset 16", legacy)
		}
		if math.IsNaN(rec.RefreshBudget) {
			return nil, fmt.Errorf("store: wal: refresh budget %v invalid", rec.RefreshBudget)
		}
		if rec.OrthoBudget < 0 || math.IsNaN(rec.OrthoBudget) || math.IsInf(rec.OrthoBudget, 0) {
			return nil, fmt.Errorf("store: wal: ortho budget %v invalid", rec.OrthoBudget)
		}
		if f := rec.Delta.Forget; f != 0 && !(f > 0 && f <= 1) {
			return nil, fmt.Errorf("store: wal: forgetting factor %v outside (0, 1]", f)
		}
	}
	if count := int(r.u16("acked count")); r.err == nil && count > 0 {
		// Each entry is at least 9 bytes (jobID + key length), so the
		// remaining payload bounds the allocation.
		if count*9 > len(r.b)-r.off {
			return nil, fmt.Errorf("store: wal: %d acked keys exceed %d remaining bytes at offset %d", count, len(r.b)-r.off, r.off)
		}
		rec.Acked = make([]IdemAck, 0, count)
		for i := 0; i < count; i++ {
			jobID := r.u64("acked jobID")
			klen := int(r.u8("acked key length"))
			key := r.need(klen, "acked key")
			if r.err != nil {
				return nil, r.err
			}
			if err := checkIdemKey(string(key)); err != nil {
				return nil, fmt.Errorf("%w at offset %d", err, r.off-klen)
			}
			rec.Acked = append(rec.Acked, IdemAck{JobID: jobID, Key: string(key)})
		}
	}
	flags := r.u8("flags")
	if r.err == nil && flags > 63 {
		return nil, fmt.Errorf("store: wal: record flags %#x invalid at offset %d", flags, r.off-1)
	}
	if r.err == nil && flags == 0 && rec.Delta.Forget == 0 {
		return nil, fmt.Errorf("store: wal: empty record at offset %d", r.off-1)
	}
	if flags&1 != 0 {
		rec.Delta.AppendRows = r.icsr("appendRows")
	}
	if flags&2 != 0 {
		rec.Delta.AppendCols = r.icsr("appendCols")
	}
	if flags&4 != 0 {
		count := r.u64("patch count")
		// Each cell is 32 bytes on the wire, so the remaining payload
		// bounds the allocation.
		if r.err == nil && count*32 > uint64(len(r.b)-r.off) {
			return nil, fmt.Errorf("store: wal: %d patch cells exceed %d remaining bytes at offset %d", count, len(r.b)-r.off, r.off)
		}
		if r.err == nil {
			rec.Delta.Patch = make([]sparse.ITriplet, count)
			for i := range rec.Delta.Patch {
				rec.Delta.Patch[i] = sparse.ITriplet{
					Row: r.i64("patch row"),
					Col: r.i64("patch col"),
					Lo:  math.Float64frombits(r.u64("patch lo")),
					Hi:  math.Float64frombits(r.u64("patch hi")),
				}
			}
		}
	}
	if flags&8 != 0 {
		count := r.u64("unpatch count")
		// Each tombstone is 16 bytes on the wire.
		if r.err == nil && count*16 > uint64(len(r.b)-r.off) {
			return nil, fmt.Errorf("store: wal: %d unpatch cells exceed %d remaining bytes at offset %d", count, len(r.b)-r.off, r.off)
		}
		if r.err == nil {
			rec.Delta.Unpatch = make([]sparse.Cell, count)
			for i := range rec.Delta.Unpatch {
				rec.Delta.Unpatch[i] = sparse.Cell{
					Row: r.i64("unpatch row"),
					Col: r.i64("unpatch col"),
				}
			}
		}
	}
	for _, sec := range []struct {
		bit  byte
		name string
		dst  *[]int
	}{
		{16, "removeRows", &rec.Delta.RemoveRows},
		{32, "removeCols", &rec.Delta.RemoveCols},
	} {
		if flags&sec.bit == 0 {
			continue
		}
		count := r.u64(sec.name + " count")
		if r.err == nil && count*8 > uint64(len(r.b)-r.off) {
			return nil, fmt.Errorf("store: wal: %d %s indices exceed %d remaining bytes at offset %d", count, sec.name, len(r.b)-r.off, r.off)
		}
		if r.err == nil {
			idx := make([]int, count)
			for i := range idx {
				idx[i] = r.i64(sec.name + " index")
			}
			*sec.dst = idx
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("store: wal: %d trailing bytes after record at offset %d", len(r.b)-r.off, r.off)
	}
	return rec, nil
}

// walReader is a sticky-error cursor over one record payload.
type walReader struct {
	b   []byte
	off int
	err error
}

func (r *walReader) need(n int, field string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.err = fmt.Errorf("store: wal: truncated reading %s at offset %d", field, r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *walReader) u8(field string) byte {
	s := r.need(1, field)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *walReader) u16(field string) uint16 {
	s := r.need(2, field)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *walReader) u32(field string) uint32 {
	s := r.need(4, field)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *walReader) u64(field string) uint64 {
	s := r.need(8, field)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *walReader) i64(field string) int {
	v := int64(r.u64(field))
	if r.err == nil && int64(int(v)) != v {
		r.err = fmt.Errorf("store: wal: %s = %d overflows int at offset %d", field, v, r.off-8)
	}
	return int(v)
}

// icsr reads one embedded interval CSR matrix, checking every declared
// size against the remaining payload before allocating.
func (r *walReader) icsr(field string) *sparse.ICSR {
	rows := r.u32(field + " rows")
	cols := r.u32(field + " cols")
	nnz := r.u64(field + " nnz")
	if r.err != nil {
		return nil
	}
	if rows == 0 || cols == 0 {
		r.err = fmt.Errorf("store: wal: %s has zero shape %dx%d at offset %d", field, rows, cols, r.off)
		return nil
	}
	need, ok := mul64(uint64(rows)+1+3*nnz, 8)
	if !ok || need > uint64(len(r.b)-r.off) {
		r.err = fmt.Errorf("store: wal: %s sizes %dx%d/%d exceed %d remaining bytes at offset %d", field, rows, cols, nnz, len(r.b)-r.off, r.off)
		return nil
	}
	a := &sparse.ICSR{Rows: int(rows), Cols: int(cols)}
	var err error
	if a.RowPtr, err = intView(r.need(int(rows+1)*8, field+" rowptr"), field+".RowPtr"); err != nil {
		r.err = err
		return nil
	}
	if a.ColInd, err = intView(r.need(int(nnz)*8, field+" colind"), field+".ColInd"); err != nil {
		r.err = err
		return nil
	}
	a.Lo = f64View(r.need(int(nnz)*8, field+" lo"), false)
	a.Hi = f64View(r.need(int(nnz)*8, field+" hi"), false)
	if r.err != nil {
		return nil
	}
	if err := a.CheckStructure(); err != nil {
		r.err = fmt.Errorf("store: wal: %s: %w", field, err)
		return nil
	}
	return a
}

// walHeader builds the 16-byte file header for a generation.
func walHeader(gen uint64) []byte {
	b := make([]byte, 0, walHeaderLen)
	b = append(b, walMagic...)
	return binary.LittleEndian.AppendUint64(b, gen)
}

// frameWALRecord wraps a payload in the length+checksum frame.
func frameWALRecord(payload []byte) []byte {
	b := make([]byte, 0, 8+len(payload))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// scanWAL walks a log image: it validates the header, then collects
// record payloads until the first frame that doesn't hold — a torn tail
// from a crash mid-append, or tail corruption. validLen is the byte
// length of the intact prefix; the caller truncates the file there
// before appending again. A header of any other format, the retired v2
// included, fails the whole file with ErrWALFormat.
//
//ivmf:deterministic
func scanWAL(data []byte) (gen uint64, payloads [][]byte, validLen int64, err error) {
	if len(data) < walHeaderLen {
		return 0, nil, 0, fmt.Errorf("store: wal: bad magic (have %d bytes)", len(data))
	}
	if magic := string(data[:8]); magic != walMagic {
		return 0, nil, 0, fmt.Errorf("%w: magic %q (this build reads only %q)", ErrWALFormat, magic, walMagic)
	}
	gen = binary.LittleEndian.Uint64(data[8:16])
	off := walHeaderLen
	for {
		rest := data[off:]
		if len(rest) < 8 {
			break
		}
		plen := int(binary.LittleEndian.Uint32(rest[:4]))
		want := binary.LittleEndian.Uint32(rest[4:8])
		if plen <= 0 || plen > len(rest)-8 {
			break
		}
		payload := rest[8 : 8+plen]
		if crc32.Checksum(payload, castagnoli) != want {
			break
		}
		payloads = append(payloads, payload)
		off += 8 + plen
	}
	return gen, payloads, int64(off), nil
}
