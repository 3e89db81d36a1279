// Binary codec for WAL records and checkpoint payloads. Everything is
// length-prefixed little-endian with varints; each WAL record and each
// checkpoint file carries a CRC32-Castagnoli so a torn or corrupted
// write is detected rather than replayed.
package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"openivm/internal/enginerr"
	"openivm/internal/sqltypes"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record types inside a WAL record payload. Only the first two are
// written; recInstant (a non-transactional write, CommitTS 0) is read from
// data directories older engines left behind, and replays as a commit.
const (
	recCommit  byte = 1
	recDDL     byte = 2
	recInstant byte = 3
)

// Record is one decoded WAL record: exactly one of Commit and DDL is
// set.
type Record struct {
	LSN    uint64
	Commit *CommitRecord
	DDL    *DDLRecord
}

// --- primitive appenders ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendValue(dst []byte, v sqltypes.Value) []byte {
	dst = append(dst, byte(v.T))
	switch v.T {
	case sqltypes.TypeBool:
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case sqltypes.TypeInt:
		return binary.AppendVarint(dst, v.I)
	case sqltypes.TypeFloat:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case sqltypes.TypeString:
		return appendString(dst, v.S)
	}
	return dst // NULL and ANY carry no payload
}

func appendRow(dst []byte, r sqltypes.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = appendValue(dst, v)
	}
	return dst
}

// --- primitive readers ---

// reader is a bounds-checked cursor over a record payload.
type reader struct {
	b   []byte
	off int
}

func (r *reader) fail(what string) error {
	return enginerr.Newf(enginerr.CodeRecoveryCorruption, "storage: truncated %s at offset %d", what, r.off)
}

func (r *reader) byteVal(what string) (byte, error) {
	if r.off >= len(r.b) {
		return 0, r.fail(what)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.fail(what)
	}
	r.off += n
	return v, nil
}

func (r *reader) varint(what string) (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, r.fail(what)
	}
	r.off += n
	return v, nil
}

func (r *reader) str(what string) (string, error) {
	n, err := r.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)-r.off) {
		return "", r.fail(what)
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) value() (sqltypes.Value, error) {
	t, err := r.byteVal("value tag")
	if err != nil {
		return sqltypes.Null, err
	}
	switch sqltypes.Type(t) {
	case sqltypes.TypeNull, sqltypes.TypeAny:
		return sqltypes.Null, nil
	case sqltypes.TypeBool:
		b, err := r.byteVal("bool")
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(b != 0), nil
	case sqltypes.TypeInt:
		i, err := r.varint("int")
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewInt(i), nil
	case sqltypes.TypeFloat:
		if len(r.b)-r.off < 8 {
			return sqltypes.Null, r.fail("float")
		}
		bits := binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
		return sqltypes.NewFloat(math.Float64frombits(bits)), nil
	case sqltypes.TypeString:
		s, err := r.str("string")
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewString(s), nil
	}
	return sqltypes.Null, enginerr.Newf(enginerr.CodeRecoveryCorruption, "storage: unknown value tag %d at offset %d", t, r.off)
}

// maxDecode caps decoded collection sizes so a corrupted length prefix
// cannot drive a giant allocation before the bounds checks catch it.
const maxDecode = 1 << 24

func (r *reader) count(what string) (int, error) {
	n, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if n > maxDecode {
		return 0, enginerr.Newf(enginerr.CodeRecoveryCorruption, "storage: implausible %s count %d", what, n)
	}
	return int(n), nil
}

func (r *reader) row() (sqltypes.Row, error) {
	n, err := r.count("row cells")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	row := make(sqltypes.Row, n)
	for i := range row {
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// --- record encode/decode ---

// appendCommitPayload encodes a commit record payload.
func appendCommitPayload(dst []byte, lsn uint64, rec *CommitRecord) []byte {
	dst = append(dst, recCommit)
	dst = binary.AppendUvarint(dst, lsn)
	dst = binary.AppendUvarint(dst, rec.CommitTS)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Ops)))
	for _, op := range rec.Ops {
		dst = append(dst, byte(op.Kind))
		dst = appendString(dst, op.Table)
		if op.Kind != OpTruncate {
			dst = appendRow(dst, op.Row)
		}
	}
	return dst
}

// appendDDLPayload encodes a DDL record payload.
func appendDDLPayload(dst []byte, lsn uint64, rec *DDLRecord) []byte {
	dst = append(dst, recDDL)
	dst = binary.AppendUvarint(dst, lsn)
	dst = append(dst, byte(rec.Kind))
	dst = appendString(dst, rec.Name)
	dst = appendString(dst, rec.Table)
	dst = appendString(dst, rec.ObjectKind)
	dst = appendString(dst, rec.SQL)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Columns)))
	for _, c := range rec.Columns {
		dst = appendColumnDef(dst, c)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.PrimaryKey)))
	for _, s := range rec.PrimaryKey {
		dst = appendString(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.IdxColumns)))
	for _, s := range rec.IdxColumns {
		dst = appendString(dst, s)
	}
	if rec.Unique {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Rows)))
	for _, r := range rec.Rows {
		dst = appendRow(dst, r)
	}
	if rec.Kind == DDLCreateTrigger {
		dst = appendTriggerDef(dst, rec.Events, rec.Handler)
	}
	return dst
}

func appendTriggerDef(dst []byte, events []string, handler string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	for _, e := range events {
		dst = appendString(dst, e)
	}
	return appendString(dst, handler)
}

func (r *reader) triggerDef() (events []string, handler string, err error) {
	n, err := r.count("trigger events")
	if err != nil {
		return nil, "", err
	}
	for i := 0; i < n; i++ {
		e, err := r.str("trigger event")
		if err != nil {
			return nil, "", err
		}
		events = append(events, e)
	}
	handler, err = r.str("trigger handler")
	return events, handler, err
}

func appendColumnDef(dst []byte, c ColumnDef) []byte {
	dst = appendString(dst, c.Name)
	dst = append(dst, byte(c.Type))
	var flags byte
	if c.NotNull {
		flags |= 1
	}
	if c.HasDefault {
		flags |= 2
	}
	dst = append(dst, flags)
	if c.HasDefault {
		dst = appendValue(dst, c.Default)
	}
	return dst
}

func (r *reader) columnDef() (ColumnDef, error) {
	var c ColumnDef
	var err error
	if c.Name, err = r.str("column name"); err != nil {
		return c, err
	}
	t, err := r.byteVal("column type")
	if err != nil {
		return c, err
	}
	c.Type = sqltypes.Type(t)
	flags, err := r.byteVal("column flags")
	if err != nil {
		return c, err
	}
	c.NotNull = flags&1 != 0
	c.HasDefault = flags&2 != 0
	if c.HasDefault {
		if c.Default, err = r.value(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// DecodeRecord decodes one WAL record payload (the bytes inside the
// length+CRC framing). It is exported for the WAL fuzz target: on any
// input it must either return a well-formed Record or an error — never
// panic.
func DecodeRecord(payload []byte) (*Record, error) {
	r := &reader{b: payload}
	typ, err := r.byteVal("record type")
	if err != nil {
		return nil, err
	}
	lsn, err := r.uvarint("lsn")
	if err != nil {
		return nil, err
	}
	out := &Record{LSN: lsn}
	switch typ {
	case recCommit, recInstant:
		cr := &CommitRecord{}
		if cr.CommitTS, err = r.uvarint("commit ts"); err != nil {
			return nil, err
		}
		nops, err := r.count("ops")
		if err != nil {
			return nil, err
		}
		cr.Ops = make([]RedoOp, 0, min(nops, 4096))
		for i := 0; i < nops; i++ {
			var op RedoOp
			k, err := r.byteVal("op kind")
			if err != nil {
				return nil, err
			}
			op.Kind = OpKind(k)
			if op.Kind < OpInsert || op.Kind > OpTruncate {
				return nil, enginerr.Newf(enginerr.CodeRecoveryCorruption, "storage: unknown redo op kind %d", k)
			}
			if op.Table, err = r.str("op table"); err != nil {
				return nil, err
			}
			if op.Kind != OpTruncate {
				if op.Row, err = r.row(); err != nil {
					return nil, err
				}
			}
			cr.Ops = append(cr.Ops, op)
		}
		out.Commit = cr
	case recDDL:
		dr := &DDLRecord{}
		k, err := r.byteVal("ddl kind")
		if err != nil {
			return nil, err
		}
		dr.Kind = DDLKind(k)
		if dr.Kind < DDLCreateTable || dr.Kind > DDLCreateTrigger {
			return nil, enginerr.Newf(enginerr.CodeRecoveryCorruption, "storage: unknown ddl kind %d", k)
		}
		if dr.Name, err = r.str("ddl name"); err != nil {
			return nil, err
		}
		if dr.Table, err = r.str("ddl table"); err != nil {
			return nil, err
		}
		if dr.ObjectKind, err = r.str("ddl object kind"); err != nil {
			return nil, err
		}
		if dr.SQL, err = r.str("ddl sql"); err != nil {
			return nil, err
		}
		ncols, err := r.count("ddl columns")
		if err != nil {
			return nil, err
		}
		for i := 0; i < ncols; i++ {
			c, err := r.columnDef()
			if err != nil {
				return nil, err
			}
			dr.Columns = append(dr.Columns, c)
		}
		npk, err := r.count("ddl pk")
		if err != nil {
			return nil, err
		}
		for i := 0; i < npk; i++ {
			s, err := r.str("pk column")
			if err != nil {
				return nil, err
			}
			dr.PrimaryKey = append(dr.PrimaryKey, s)
		}
		nidx, err := r.count("ddl index columns")
		if err != nil {
			return nil, err
		}
		for i := 0; i < nidx; i++ {
			s, err := r.str("index column")
			if err != nil {
				return nil, err
			}
			dr.IdxColumns = append(dr.IdxColumns, s)
		}
		u, err := r.byteVal("unique flag")
		if err != nil {
			return nil, err
		}
		dr.Unique = u != 0
		nrows, err := r.count("ddl rows")
		if err != nil {
			return nil, err
		}
		for i := 0; i < nrows; i++ {
			row, err := r.row()
			if err != nil {
				return nil, err
			}
			dr.Rows = append(dr.Rows, row)
		}
		if dr.Kind == DDLCreateTrigger {
			if dr.Events, dr.Handler, err = r.triggerDef(); err != nil {
				return nil, err
			}
		}
		out.DDL = dr
	default:
		return nil, enginerr.Newf(enginerr.CodeRecoveryCorruption, "storage: unknown record type %d", typ)
	}
	if r.off != len(payload) {
		return nil, enginerr.Newf(enginerr.CodeRecoveryCorruption, "storage: %d trailing bytes after record", len(payload)-r.off)
	}
	return out, nil
}

// frameRecord wraps an encoded payload with the on-disk framing:
// 4-byte little-endian length, 4-byte CRC32-C, payload.
func frameRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// readFrame extracts the next framed payload from b. It returns the
// payload, the remaining bytes, and ok=false at a clean or torn tail
// (not enough bytes for the frame, or a CRC mismatch — the crash
// boundary).
func readFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < 8 {
		return nil, b, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxRecordBytes || uint64(len(b)-8) < uint64(n) {
		return nil, b, false
	}
	sum := binary.LittleEndian.Uint32(b[4:])
	payload = b[8 : 8+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, b, false
	}
	return payload, b[8+n:], true
}

// maxRecordBytes bounds one WAL record (64 MiB) — larger length
// prefixes are treated as corruption/torn writes.
const maxRecordBytes = 64 << 20

// --- checkpoint encode/decode ---

var ckptMagic = [8]byte{'O', 'I', 'V', 'M', 'C', 'K', 'P', '1'}

// encodeCheckpoint serializes snap: magic, payload, trailing CRC32-C.
// Table rows are laid out column-major — the columnar checkpoint of
// the snapshot arrays.
func encodeCheckpoint(snap *CheckpointData) []byte {
	dst := append([]byte(nil), ckptMagic[:]...)
	body := make([]byte, 0, 4096)
	body = binary.AppendUvarint(body, snap.LastLSN)
	body = binary.AppendUvarint(body, snap.LastTS)
	body = binary.AppendUvarint(body, uint64(len(snap.Tables)))
	for _, t := range snap.Tables {
		body = appendString(body, t.Name)
		body = binary.AppendUvarint(body, uint64(len(t.Columns)))
		for _, c := range t.Columns {
			body = appendColumnDef(body, c)
		}
		body = binary.AppendUvarint(body, uint64(len(t.PrimaryKey)))
		for _, s := range t.PrimaryKey {
			body = appendString(body, s)
		}
		body = binary.AppendUvarint(body, uint64(len(t.Indexes)))
		for _, ix := range t.Indexes {
			body = appendString(body, ix.Name)
			body = binary.AppendUvarint(body, uint64(len(ix.Columns)))
			for _, s := range ix.Columns {
				body = appendString(body, s)
			}
			if ix.Unique {
				body = append(body, 1)
			} else {
				body = append(body, 0)
			}
		}
		body = binary.AppendUvarint(body, uint64(len(t.Rows)))
		// Column-major cell layout.
		for col := range t.Columns {
			for _, row := range t.Rows {
				if col < len(row) {
					body = appendValue(body, row[col])
				} else {
					body = appendValue(body, sqltypes.Null)
				}
			}
		}
	}
	body = binary.AppendUvarint(body, uint64(len(snap.Views)))
	for _, v := range snap.Views {
		body = appendString(body, v.Name)
		body = appendString(body, v.SQL)
	}
	body = binary.AppendUvarint(body, uint64(len(snap.MatViews)))
	for _, v := range snap.MatViews {
		body = appendString(body, v.Name)
		body = appendString(body, v.SQL)
	}
	body = binary.AppendUvarint(body, uint64(len(snap.Triggers)))
	for _, t := range snap.Triggers {
		body = appendString(body, t.Name)
		body = appendString(body, t.Table)
		body = appendTriggerDef(body, t.Events, t.Handler)
	}
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, crcTable))
}

// decodeCheckpoint parses and verifies a checkpoint file image.
func decodeCheckpoint(b []byte) (*CheckpointData, error) {
	if len(b) < len(ckptMagic)+4 || string(b[:len(ckptMagic)]) != string(ckptMagic[:]) {
		return nil, enginerr.New(enginerr.CodeRecoveryCorruption, "storage: not a checkpoint file")
	}
	body := b[len(ckptMagic) : len(b)-4]
	sum := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, enginerr.New(enginerr.CodeRecoveryCorruption, "storage: checkpoint checksum mismatch")
	}
	r := &reader{b: body}
	snap := &CheckpointData{}
	var err error
	if snap.LastLSN, err = r.uvarint("checkpoint lsn"); err != nil {
		return nil, err
	}
	if snap.LastTS, err = r.uvarint("checkpoint ts"); err != nil {
		return nil, err
	}
	ntables, err := r.count("tables")
	if err != nil {
		return nil, err
	}
	for i := 0; i < ntables; i++ {
		var t TableSnap
		if t.Name, err = r.str("table name"); err != nil {
			return nil, err
		}
		ncols, err := r.count("columns")
		if err != nil {
			return nil, err
		}
		for j := 0; j < ncols; j++ {
			c, err := r.columnDef()
			if err != nil {
				return nil, err
			}
			t.Columns = append(t.Columns, c)
		}
		npk, err := r.count("pk")
		if err != nil {
			return nil, err
		}
		for j := 0; j < npk; j++ {
			s, err := r.str("pk column")
			if err != nil {
				return nil, err
			}
			t.PrimaryKey = append(t.PrimaryKey, s)
		}
		nidx, err := r.count("indexes")
		if err != nil {
			return nil, err
		}
		for j := 0; j < nidx; j++ {
			var ix IndexDef
			if ix.Name, err = r.str("index name"); err != nil {
				return nil, err
			}
			nic, err := r.count("index columns")
			if err != nil {
				return nil, err
			}
			for k := 0; k < nic; k++ {
				s, err := r.str("index column")
				if err != nil {
					return nil, err
				}
				ix.Columns = append(ix.Columns, s)
			}
			u, err := r.byteVal("index unique")
			if err != nil {
				return nil, err
			}
			ix.Unique = u != 0
			t.Indexes = append(t.Indexes, ix)
		}
		nrows, err := r.count("rows")
		if err != nil {
			return nil, err
		}
		t.Rows = make([]sqltypes.Row, nrows)
		for j := range t.Rows {
			t.Rows[j] = make(sqltypes.Row, ncols)
		}
		for col := 0; col < ncols; col++ {
			for j := 0; j < nrows; j++ {
				v, err := r.value()
				if err != nil {
					return nil, err
				}
				t.Rows[j][col] = v
			}
		}
		snap.Tables = append(snap.Tables, t)
	}
	nviews, err := r.count("views")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nviews; i++ {
		var v ViewSnap
		if v.Name, err = r.str("view name"); err != nil {
			return nil, err
		}
		if v.SQL, err = r.str("view sql"); err != nil {
			return nil, err
		}
		snap.Views = append(snap.Views, v)
	}
	nmv, err := r.count("matviews")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nmv; i++ {
		var v ViewSnap
		if v.Name, err = r.str("matview name"); err != nil {
			return nil, err
		}
		if v.SQL, err = r.str("matview sql"); err != nil {
			return nil, err
		}
		snap.MatViews = append(snap.MatViews, v)
	}
	// The trigger section is absent from checkpoints written before
	// triggers were logged: those end here.
	ntrig := 0
	if r.off != len(body) {
		if ntrig, err = r.count("triggers"); err != nil {
			return nil, err
		}
	}
	for i := 0; i < ntrig; i++ {
		var t TriggerSnap
		if t.Name, err = r.str("trigger name"); err != nil {
			return nil, err
		}
		if t.Table, err = r.str("trigger table"); err != nil {
			return nil, err
		}
		if t.Events, t.Handler, err = r.triggerDef(); err != nil {
			return nil, err
		}
		snap.Triggers = append(snap.Triggers, t)
	}
	if r.off != len(body) {
		return nil, enginerr.Newf(enginerr.CodeRecoveryCorruption, "storage: %d trailing bytes after checkpoint", len(body)-r.off)
	}
	return snap, nil
}
