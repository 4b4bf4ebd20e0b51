package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/eig"
	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// Snapshot file format, version 2 ("IVMFSNP2"):
//
//	[0,8)            magic "IVMFSNP2"
//	[8,12)           u32 header length H
//	[12,12+H)        header (fixed little-endian fields, see snapHeader)
//	[12+H,16+H)      u32 CRC32C of the header
//	...              zero padding to the next multiple of 8
//	[D,D+L)          data region: all float64 planes in file order,
//	                 then all int64 index arrays
//	[D+L,D+L+4)      u32 CRC32C of the data region
//
// Everything is little-endian. The data region starts 8-byte aligned
// and holds only 8-byte elements, so on little-endian hosts a
// memory-mapped snapshot serves its factor planes zero-copy: the
// decoded []float64 slices alias the kernel page cache directly. The
// two CRCs are Castagnoli CRC32 (the SSE4.2-accelerated polynomial),
// split so a corrupt factor plane is distinguishable from a corrupt
// header.
//
// Float64 plane order (lengths derived from the header):
//
//	U.Lo U.Hi Sigma.Lo Sigma.Hi V.Lo V.Hi
//	CosVUnaligned CosVAligned CosURecovered CosVRecomputed
//	M.Lo M.Hi
//	state planes: mid.U mid.S mid.V          (stateKind 0, ISVD0)
//	              lo.U lo.S lo.V hi.U hi.S hi.V  (stateKind 1, ISVD1-4)
//
// Int64 array order: M.RowPtr (n+1), M.ColInd (nnz).

const (
	snapMagic   = "IVMFSNP2"
	snapMaxDiag = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLE reports whether the host is little-endian; zero-copy plane
// aliasing is only valid when the in-memory and on-disk byte orders
// agree.
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// SnapshotMeta is the serving metadata stored alongside the factor
// state: the per-tenant publish sequence number, the job that published
// it, and the rating clamp the serving predictor was built with (so a
// restart rebuilds a bitwise-identical predictor; MaxRating <=
// MinRating means unclamped). IdemKey, when non-empty, is the
// idempotency key the publishing job was acknowledged under, so a
// restarted server can answer a retried submission with the original
// acknowledgement.
type SnapshotMeta struct {
	Seq       uint64
	JobID     uint64
	MinRating float64
	MaxRating float64
	IdemKey   string
}

// SnapshotPayload is a decoded snapshot: the complete persistent engine
// state plus its serving metadata. ZeroCopy reports whether the float64
// planes alias the decoded byte buffer (little-endian host, aligned
// mapping) rather than heap copies — if true, the buffer must outlive
// the payload.
type SnapshotPayload struct {
	Meta     SnapshotMeta
	State    *core.PersistentState
	ZeroCopy bool
}

// snapHeader is the decoded fixed-field header.
type snapHeader struct {
	method   uint32
	rank     uint32
	target   uint32
	assign   uint32
	condThr  float64
	pinvCut  float64
	workers  uint32
	solver   uint32
	refBudg  float64
	exactAlg byte
	seq      uint64
	jobID    uint64
	minRat   float64
	maxRat   float64
	idemKey  string
	resAcc   float64
	n, m     uint32
	nnz      uint64
	diagLen  [snapMaxDiag]uint32
	// stateKind 0: mid only (k0 = mid rank, k1 = 0).
	// stateKind 1: lo/hi pair (k0 = lo rank, k1 = hi rank).
	stateKind byte
	k0, k1    uint32
}

// EncodeSnapshot serializes a persistent decomposition state into one
// self-validating snapshot file image.
func EncodeSnapshot(ps *core.PersistentState, meta SnapshotMeta) ([]byte, error) {
	h, err := headerFor(ps, meta)
	if err != nil {
		return nil, err
	}
	planes, ints := statePlanes(ps, h)

	hdr := h.encode()
	dataLen, ok := h.dataSize()
	if !ok {
		return nil, fmt.Errorf("store: snapshot: state too large to encode")
	}
	dataOff := align8(8 + 4 + len(hdr) + 4)
	buf := make([]byte, 0, uint64(dataOff)+dataLen+4)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(hdr, castagnoli))
	for len(buf) < dataOff {
		buf = append(buf, 0)
	}
	for _, p := range planes {
		buf = appendF64s(buf, p.f64s)
	}
	for _, a := range ints {
		buf = appendI64s(buf, a.ints)
	}
	data := buf[dataOff:]
	if uint64(len(data)) != dataLen {
		return nil, fmt.Errorf("store: snapshot: encoded %d data bytes, computed %d", len(data), dataLen)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(data, castagnoli))
	return buf, nil
}

// DecodeSnapshot parses a snapshot file image. It never panics on
// malformed input and never allocates more than a small multiple of
// len(data): every declared dimension is checked against the actual
// file size before anything is allocated. On little-endian hosts with
// an 8-byte-aligned buffer the float64 planes alias data (zero-copy);
// int index arrays are always converted (their width is platform int).
//
//ivmf:deterministic
func DecodeSnapshot(data []byte) (*SnapshotPayload, error) {
	if len(data) < 12 || string(data[:8]) != snapMagic {
		return nil, fmt.Errorf("store: snapshot: bad magic (have %d bytes)", len(data))
	}
	hlen := int(binary.LittleEndian.Uint32(data[8:12]))
	if hlen != snapHeaderLen {
		return nil, fmt.Errorf("store: snapshot: header length %d, want %d", hlen, snapHeaderLen)
	}
	if len(data) < 12+hlen+4 {
		return nil, fmt.Errorf("store: snapshot: truncated header at offset %d", len(data))
	}
	hdr := data[12 : 12+hlen]
	wantCRC := binary.LittleEndian.Uint32(data[12+hlen:])
	if got := crc32.Checksum(hdr, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("store: snapshot: header checksum %08x, want %08x", got, wantCRC)
	}
	h, err := decodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	dataOff := align8(12 + hlen + 4)
	dataLen, ok := h.dataSize()
	if !ok {
		return nil, fmt.Errorf("store: snapshot: declared dimensions overflow")
	}
	if uint64(len(data)) != uint64(dataOff)+dataLen+4 {
		return nil, fmt.Errorf("store: snapshot: file is %d bytes, header implies %d", len(data), uint64(dataOff)+dataLen+4)
	}
	for _, b := range data[12+hlen+4 : dataOff] {
		if b != 0 {
			return nil, fmt.Errorf("store: snapshot: nonzero padding before offset %d", dataOff)
		}
	}
	region := data[dataOff : uint64(dataOff)+dataLen]
	wantCRC = binary.LittleEndian.Uint32(data[uint64(dataOff)+dataLen:])
	if got := crc32.Checksum(region, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("store: snapshot: data checksum %08x, want %08x at offset %d", got, wantCRC, dataOff)
	}

	zeroCopy := hostLE && (len(region) == 0 || uintptr(unsafe.Pointer(&region[0]))%8 == 0)
	cut := func(elems uint64) []byte {
		n := elems * 8
		s := region[:n]
		region = region[n:]
		return s
	}
	f64 := func(elems uint64) []float64 { return f64View(cut(elems), zeroCopy) }

	n, m, r := uint64(h.n), uint64(h.m), uint64(h.rank)
	ps := &core.PersistentState{
		Method: core.Method(h.method),
		Opts: core.Options{
			Rank:          int(h.rank),
			Target:        core.Target(h.target),
			Assign:        assign.Method(h.assign),
			CondThreshold: h.condThr,
			PinvCutoff:    h.pinvCut,
			Workers:       int(h.workers),
			Solver:        eig.Solver(h.solver),
			Updatable:     true,
			RefreshBudget: h.refBudg,
			ExactAlgebra:  h.exactAlg != 0,
		},
		ResAcc: h.resAcc,
	}
	dense := func(rows, cols uint64) *matrix.Dense {
		return &matrix.Dense{Rows: int(rows), Cols: int(cols), Data: f64(rows * cols)}
	}
	ps.U = &imatrix.IMatrix{Lo: dense(n, r), Hi: dense(n, r)}
	ps.Sigma = &imatrix.IMatrix{Lo: dense(r, r), Hi: dense(r, r)}
	ps.V = &imatrix.IMatrix{Lo: dense(m, r), Hi: dense(m, r)}
	diags := []*[]float64{&ps.CosVUnaligned, &ps.CosVAligned, &ps.CosURecovered, &ps.CosVRecomputed}
	for i, d := range diags {
		if h.diagLen[i] > 0 {
			*d = f64(uint64(h.diagLen[i]))
		}
	}
	mLo := f64(h.nnz)
	mHi := f64(h.nnz)
	readState := func(k uint64) *eig.SVDResult {
		return &eig.SVDResult{U: dense(n, k), S: f64(k), V: dense(m, k)}
	}
	if h.stateKind == 0 {
		ps.Mid = readState(uint64(h.k0))
	} else {
		ps.Lo = readState(uint64(h.k0))
		ps.Hi = readState(uint64(h.k1))
	}
	rowPtr, err := intView(cut(n+1), "RowPtr")
	if err != nil {
		return nil, err
	}
	colInd, err := intView(cut(h.nnz), "ColInd")
	if err != nil {
		return nil, err
	}
	if len(region) != 0 {
		return nil, fmt.Errorf("store: snapshot: %d unconsumed data bytes", len(region))
	}
	ps.M = &sparse.ICSR{Rows: int(h.n), Cols: int(h.m), RowPtr: rowPtr, ColInd: colInd, Lo: mLo, Hi: mHi}
	return &SnapshotPayload{
		Meta:     SnapshotMeta{Seq: h.seq, JobID: h.jobID, MinRating: h.minRat, MaxRating: h.maxRat, IdemKey: h.idemKey},
		State:    ps,
		ZeroCopy: zeroCopy,
	}, nil
}

// headerFor derives and validates the header from a state about to be
// encoded.
func headerFor(ps *core.PersistentState, meta SnapshotMeta) (*snapHeader, error) {
	if ps == nil || ps.M == nil || ps.U == nil || ps.Sigma == nil || ps.V == nil {
		return nil, fmt.Errorf("store: snapshot: incomplete state")
	}
	if !ps.Opts.Updatable {
		return nil, fmt.Errorf("store: snapshot: state is not updatable")
	}
	h := &snapHeader{
		method:  uint32(ps.Method),
		rank:    uint32(ps.Opts.Rank),
		target:  uint32(ps.Opts.Target),
		assign:  uint32(ps.Opts.Assign),
		condThr: ps.Opts.CondThreshold,
		pinvCut: ps.Opts.PinvCutoff,
		workers: uint32(ps.Opts.Workers),
		solver:  uint32(ps.Opts.Solver),
		refBudg: ps.Opts.RefreshBudget,
		seq:     meta.Seq,
		jobID:   meta.JobID,
		minRat:  meta.MinRating,
		maxRat:  meta.MaxRating,
		idemKey: meta.IdemKey,
		resAcc:  ps.ResAcc,
		n:       uint32(ps.M.Rows),
		m:       uint32(ps.M.Cols),
		nnz:     uint64(len(ps.M.ColInd)),
		stateKind: func() byte {
			if ps.Mid != nil {
				return 0
			}
			return 1
		}(),
	}
	if h.idemKey != "" {
		if err := checkIdemKey(h.idemKey); err != nil {
			return nil, err
		}
	}
	if ps.Opts.ExactAlgebra {
		h.exactAlg = 1
	}
	for i, d := range [][]float64{ps.CosVUnaligned, ps.CosVAligned, ps.CosURecovered, ps.CosVRecomputed} {
		h.diagLen[i] = uint32(len(d))
	}
	if h.stateKind == 0 {
		if ps.Mid == nil || ps.Lo != nil || ps.Hi != nil {
			return nil, fmt.Errorf("store: snapshot: inconsistent factor-state sides")
		}
		h.k0 = uint32(len(ps.Mid.S))
	} else {
		if ps.Lo == nil || ps.Hi == nil {
			return nil, fmt.Errorf("store: snapshot: inconsistent factor-state sides")
		}
		h.k0 = uint32(len(ps.Lo.S))
		h.k1 = uint32(len(ps.Hi.S))
	}
	return h, nil
}

// snapHeaderLen is the exact encoded header size; decode rejects any
// other length, so format evolution must bump the magic.
const snapHeaderLen = 15*4 + 9*8 + 2 + 1 + MaxIdemKeyLen // v1 fields + idem key length byte + fixed key field

func (h *snapHeader) encode() []byte {
	b := make([]byte, 0, snapHeaderLen)
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u32(h.method)
	u32(h.rank)
	u32(h.target)
	u32(h.assign)
	f64(h.condThr)
	f64(h.pinvCut)
	u32(h.workers)
	u32(h.solver)
	u32(0) // reserved (a refresh-policy code in older files)
	f64(h.refBudg)
	b = append(b, h.exactAlg)
	u64(h.seq)
	u64(h.jobID)
	f64(h.minRat)
	f64(h.maxRat)
	// Fixed-width idempotency key field: u8 length, then MaxIdemKeyLen
	// bytes (key, zero padded) — fixed so the header length stays
	// constant and decode keeps its exact-size check.
	b = append(b, byte(len(h.idemKey)))
	b = append(b, h.idemKey...)
	for i := len(h.idemKey); i < MaxIdemKeyLen; i++ {
		b = append(b, 0)
	}
	f64(h.resAcc)
	u32(h.n)
	u32(h.m)
	u64(h.nnz)
	for _, d := range h.diagLen {
		u32(d)
	}
	b = append(b, h.stateKind)
	u32(h.k0)
	u32(h.k1)
	if len(b) != snapHeaderLen {
		panic(fmt.Sprintf("store: snapHeaderLen is %d, encoded %d", snapHeaderLen, len(b)))
	}
	return b
}

func decodeHeader(b []byte) (*snapHeader, error) {
	h := &snapHeader{}
	off := 0
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(b[off:]); off += 4; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(b[off:]); off += 8; return v }
	f64 := func() float64 { return math.Float64frombits(u64()) }
	u8 := func() byte { v := b[off]; off++; return v }
	h.method = u32()
	h.rank = u32()
	h.target = u32()
	h.assign = u32()
	h.condThr = f64()
	h.pinvCut = f64()
	h.workers = u32()
	h.solver = u32()
	u32() // reserved slot, ignored (a refresh-policy code in older files)
	h.refBudg = f64()
	h.exactAlg = u8()
	h.seq = u64()
	h.jobID = u64()
	h.minRat = f64()
	h.maxRat = f64()
	klen := int(u8())
	kraw := b[off : off+MaxIdemKeyLen]
	off += MaxIdemKeyLen
	if klen > MaxIdemKeyLen {
		return nil, fmt.Errorf("store: snapshot: idempotency key length %d exceeds %d", klen, MaxIdemKeyLen)
	}
	for _, c := range kraw[klen:] {
		if c != 0 {
			return nil, fmt.Errorf("store: snapshot: nonzero padding in idempotency key field")
		}
	}
	h.idemKey = string(kraw[:klen])
	h.resAcc = f64()
	h.n = u32()
	h.m = u32()
	h.nnz = u64()
	for i := range h.diagLen {
		h.diagLen[i] = u32()
	}
	h.stateKind = u8()
	h.k0 = u32()
	h.k1 = u32()
	// Structural sanity the size computation depends on; everything
	// deeper (enum ranges, factor shapes vs. matrix) is core.ImportState's
	// job after decode.
	if h.n == 0 || h.m == 0 || h.rank == 0 {
		return nil, fmt.Errorf("store: snapshot: zero dimension %dx%d rank %d", h.n, h.m, h.rank)
	}
	if h.stateKind > 1 {
		return nil, fmt.Errorf("store: snapshot: unknown factor-state kind %d", h.stateKind)
	}
	if h.k0 == 0 || (h.stateKind == 1) != (h.k1 != 0) {
		return nil, fmt.Errorf("store: snapshot: factor-state ranks %d/%d inconsistent with kind %d", h.k0, h.k1, h.stateKind)
	}
	return h, nil
}

// dataSize computes the exact data-region byte length implied by the
// header, reporting failure on overflow so a hostile header can never
// wrap the size check.
func (h *snapHeader) dataSize() (uint64, bool) {
	n, m, r := uint64(h.n), uint64(h.m), uint64(h.rank)
	elems := uint64(0)
	ok := true
	add := func(a, b uint64) {
		p, mulOK := mul64(a, b)
		s, addOK := add64(elems, p)
		ok = ok && mulOK && addOK
		elems = s
	}
	// Published factors: U, Sigma, V, each two endpoint planes.
	add(2*n, r)
	add(2*r, r)
	add(2*m, r)
	for _, d := range h.diagLen {
		add(uint64(d), 1)
	}
	// M endpoints.
	add(2, h.nnz)
	// Factor states.
	if h.stateKind == 0 {
		add(n+m, uint64(h.k0))
		add(uint64(h.k0), 1)
	} else {
		add(n+m, uint64(h.k0))
		add(uint64(h.k0), 1)
		add(n+m, uint64(h.k1))
		add(uint64(h.k1), 1)
	}
	// Int arrays: RowPtr (n+1) and ColInd (nnz).
	add(n+1, 1)
	add(h.nnz, 1)
	bytes, mulOK := mul64(elems, 8)
	return bytes, ok && mulOK
}

func mul64(a, b uint64) (uint64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	return p, p/a == b
}

func add64(a, b uint64) (uint64, bool) {
	s := a + b
	return s, s >= a
}

func align8(n int) int { return (n + 7) &^ 7 }

// f64Plane / i64Array pair a name with encode-side storage; statePlanes
// walks a state in exactly the file order DecodeSnapshot consumes.
type f64Plane struct {
	name string
	f64s []float64
}

type i64Array struct {
	name string
	ints []int
}

func statePlanes(ps *core.PersistentState, h *snapHeader) ([]f64Plane, []i64Array) {
	planes := []f64Plane{
		{"U.Lo", ps.U.Lo.Data}, {"U.Hi", ps.U.Hi.Data},
		{"Sigma.Lo", ps.Sigma.Lo.Data}, {"Sigma.Hi", ps.Sigma.Hi.Data},
		{"V.Lo", ps.V.Lo.Data}, {"V.Hi", ps.V.Hi.Data},
		{"CosVUnaligned", ps.CosVUnaligned}, {"CosVAligned", ps.CosVAligned},
		{"CosURecovered", ps.CosURecovered}, {"CosVRecomputed", ps.CosVRecomputed},
		{"M.Lo", ps.M.Lo}, {"M.Hi", ps.M.Hi},
	}
	if h.stateKind == 0 {
		planes = append(planes,
			f64Plane{"mid.U", ps.Mid.U.Data}, f64Plane{"mid.S", ps.Mid.S}, f64Plane{"mid.V", ps.Mid.V.Data})
	} else {
		planes = append(planes,
			f64Plane{"lo.U", ps.Lo.U.Data}, f64Plane{"lo.S", ps.Lo.S}, f64Plane{"lo.V", ps.Lo.V.Data},
			f64Plane{"hi.U", ps.Hi.U.Data}, f64Plane{"hi.S", ps.Hi.S}, f64Plane{"hi.V", ps.Hi.V.Data})
	}
	ints := []i64Array{
		{"M.RowPtr", ps.M.RowPtr},
		{"M.ColInd", ps.M.ColInd},
	}
	return planes, ints
}

// appendF64s appends a float64 slice little-endian. On little-endian
// hosts the slice's backing bytes are appended directly.
func appendF64s(b []byte, s []float64) []byte {
	if len(s) == 0 {
		return b
	}
	if hostLE {
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)...)
	}
	for _, v := range s {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func appendI64s(b []byte, s []int) []byte {
	for _, v := range s {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	return b
}

// f64View interprets raw to a float64 slice: aliased when alias is set
// (little-endian host, 8-byte-aligned base), converted otherwise.
func f64View(raw []byte, alias bool) []float64 {
	n := len(raw) / 8
	if n == 0 {
		return nil
	}
	if alias {
		return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}

// intView converts an int64 array to platform ints, rejecting values
// that don't round-trip (a 32-bit platform reading a huge index).
func intView(raw []byte, field string) ([]int, error) {
	n := len(raw) / 8
	out := make([]int, n)
	for i := range out {
		v := int64(binary.LittleEndian.Uint64(raw[i*8:]))
		if int64(int(v)) != v {
			return nil, fmt.Errorf("store: snapshot: %s[%d] = %d overflows int", field, i, v)
		}
		out[i] = int(v)
	}
	return out, nil
}
