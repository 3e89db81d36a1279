// Package wire implements a minimal SQL-over-TCP protocol — the stand-in
// for the PostgreSQL client protocol / DuckDB postgres_scanner bridge in
// the paper's Figure 3, grown into a multi-client server front end.
//
// A client opens with the 4-byte magic "OWP3" and speaks length-prefixed
// frames (see frame.go): requests are binary, and an exec result streams
// back as a binary schema frame, binary row-batch frames and a binary
// trailer — the server pulls batches from the live operator tree one at
// a time and holds at most one written batch back until the next is
// pulled, so the result is never materialized, a short result leaves in
// one write, and a slow reader parks the whole pipeline (backpressure
// down to the scan). Only the control-plane
// answers (Response) are JSON. Any other opener is answered with one
// error frame and closed.
//
// Every accepted connection gets its own engine.Session, so N clients run
// interleaved DML, transactions and queries concurrently against one
// shared DB: transactions are connection-local, while the catalog,
// materialized views and the shared SQL-text plan cache are one per
// server. When a connection drops, its session is closed — the
// in-flight query is cancelled (its scans stop via the engine's
// Close/cancellation protocol) and any open transaction rolls back.
//
// Supported operations (the fields each carries):
//
//	exec(sql)                  -> run a statement/script, stream rows
//	schema(table)              -> column names, types and key of a table
//	drain(tables, ack)         -> remove and return the named tables'
//	                              committed rows (see Server.drain)
//	tables                     -> list table names
//	ping                       -> liveness check
//	stats                      -> namespaced counters: server.*, txn.*,
//	                              storage.* (WAL/checkpoints), ivm.*
//	token                      -> this session's cancellation token
//	cancel(token)              -> interrupt that session's statement
//	prepare(name, sql)         -> parse once
//	execPrepared(name, params) -> bind + stream
//	deallocate(name)           -> drop prepared
//
// Cancellation is out of band: a session's token (crypto-random, only
// disclosed over its own connection) lets a second connection interrupt
// the statement in flight; the target session survives and serves its
// next request. Admission discipline: MaxConns bounds concurrent
// connections — beyond it, a connection is answered with one error frame
// and closed rather than left to queue invisibly — and the per-query
// governor (MaxRowsPerQuery, MaxBytesPerQuery,
// QueryTimeout) kills runaway statements mid-stream, surfacing each kill
// in the stats op.
package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openivm/internal/engine"
	"openivm/internal/enginerr"
	"openivm/internal/fault"
	"openivm/internal/sqltypes"
)

// opcode names a request's operation; it is the first byte of a request
// frame, so the values are part of the protocol.
type opcode byte

const (
	opPing         opcode = 0x01
	opExec         opcode = 0x02
	opExecPrepared opcode = 0x03
	opPrepare      opcode = 0x04
	opDeallocate   opcode = 0x05
	opSchema       opcode = 0x06
	opTables       opcode = 0x07
	opStats        opcode = 0x08
	opToken        opcode = 0x09
	opCancel       opcode = 0x0a
	opDrain        opcode = 0x0b
)

// Request is one client->server message. Each op sends only the fields
// it uses (see appendRequest).
type Request struct {
	Op     opcode
	SQL    string
	Table  string
	Name   string           // prepared-statement name
	Params []sqltypes.Value // execPrepared bindings ($1 = Params[0])
	Token  string           // cancel target
	Tables []string         // drain: tables to empty
	Ack    uint64           // drain: last batch the consumer applied
}

// ColumnDesc describes one column in a schema response. PK is the
// column's 1-based position in the table's primary key, 0 when it is not
// part of it (omitted then, so clients of older builds decode the
// response unchanged).
type ColumnDesc struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	NotNull bool   `json:"notNull,omitempty"`
	PK      int    `json:"pk,omitempty"`
}

// DrainBatch answers a drain: the rows removed from each table that had
// any, under the sequence number the consumer acknowledges with its next
// drain.
type DrainBatch struct {
	Seq    uint64       `json:"seq"`
	Tables []DrainTable `json:"tables,omitempty"`
}

// DrainTable is one table's share of a DrainBatch. The response frame
// carries only N; the rows follow it as binary row-batch frames, which
// the client collects into Rows.
type DrainTable struct {
	Table string         `json:"table"`
	N     int            `json:"n"`
	Rows  []sqltypes.Row `json:"rows,omitempty"`
}

// ServerStats is the "server.*" group of StatsV2: connection admission,
// plan cache, streaming, and governor counters.
type ServerStats struct {
	ActiveConns     int   `json:"activeConns"`
	TotalConns      int64 `json:"totalConns"`
	RejectedConns   int64 `json:"rejectedConns"`
	PlanCacheSize   int   `json:"planCacheSize"`
	PlanCacheHits   int64 `json:"planCacheHits"`
	PlanCacheMiss   int64 `json:"planCacheMiss"`
	PreparedMarked  int   `json:"preparedMarked"` // live connection-scoped prepared statements
	GovernorKills   int64 `json:"governorKills"`
	TimeoutKills    int64 `json:"timeoutKills"`
	Cancels         int64 `json:"cancels"`
	StreamedBatches int64 `json:"streamedBatches"`
	StreamedRows    int64 `json:"streamedRows"`

	// Degraded reports the engine is in read-only degraded mode after a
	// sticky storage failure (writes fail fast with SQLSTATE 58030 until
	// an operator re-attaches a healthy backend; reads keep serving).
	Degraded bool `json:"degraded"`
	// PanicsRecovered counts panics caught at the statement or
	// connection boundary (surfaced to the client as SQLSTATE XX000).
	PanicsRecovered int64 `json:"panicsRecovered"`
	// FaultInjected counts fired failpoints process-wide; always 0 in
	// production (the fault framework is disabled unless armed).
	FaultInjected int64 `json:"faultInjected"`
}

// TxnStats is the "txn.*" group of StatsV2: MVCC transaction counters.
type TxnStats struct {
	ActiveTxns       int64 `json:"activeTxns"`
	OldestSnapshotMS int64 `json:"oldestSnapshotMS"`
	Commits          int64 `json:"commits"`
	ConflictAborts   int64 `json:"conflictAborts"`
	GCVersions       int64 `json:"gcVersions"`
}

// StorageStats is the "storage.*" group of StatsV2: durability counters
// from the attached storage backend. With the default in-memory backend
// Durable is false and the counters stay zero (lastCheckpointMS = -1).
type StorageStats struct {
	Durable                 bool  `json:"durable"`
	WALBytes                int64 `json:"walBytes"`
	WALRecords              int64 `json:"walRecords"`
	Fsyncs                  int64 `json:"fsyncs"`
	GroupCommitBatches      int64 `json:"groupCommitBatches"`
	Checkpoints             int64 `json:"checkpoints"`
	LastCheckpointMS        int64 `json:"lastCheckpointMS"`
	RecoveryReplayedRecords int64 `json:"recoveryReplayedRecords"`
	RecoveryReplayedBytes   int64 `json:"recoveryReplayedBytes"`
}

// StatsV2 is the namespaced counter snapshot returned by {"op":"stats"}
// (Version stays 2; the flat shape that was version 1 is gone). Counters
// are grouped by subsystem so new groups can be added without colliding
// with existing field names.
type StatsV2 struct {
	Version int             `json:"version"`
	Server  ServerStats     `json:"server"`
	Txn     TxnStats        `json:"txn"`
	Storage StorageStats    `json:"storage"`
	Ivm     engine.IVMStats `json:"ivm"`
}

// Response is one server->client message.
type Response struct {
	Error        string             `json:"error,omitempty"`
	Code         string             `json:"code,omitempty"` // SQLSTATE-style error class
	Columns      []string           `json:"columns,omitempty"`
	Rows         [][]sqltypes.Value `json:"rows,omitempty"`
	RowsAffected int                `json:"rowsAffected,omitempty"`
	Schema       []ColumnDesc       `json:"schema,omitempty"`
	Tables       []string           `json:"tables,omitempty"`
	StatsV2      *StatsV2           `json:"statsV2,omitempty"`
	Token        string             `json:"token,omitempty"`
	Drain        *DrainBatch        `json:"drain,omitempty"`
}

const errConnLimit = "wire: server connection limit reached"

// Server serves an engine instance over TCP, one session per connection.
type Server struct {
	DB *engine.DB

	// MaxConns bounds concurrent connections (0 = unlimited). Set before
	// Listen.
	MaxConns int

	// Per-query admission governor (0 = unlimited). MaxRowsPerQuery and
	// MaxBytesPerQuery bound one statement's streamed result; QueryTimeout
	// bounds its wall clock. A breached budget kills the statement via the
	// engine's cancellation protocol — the session survives. Set before
	// Listen.
	MaxRowsPerQuery  int64
	MaxBytesPerQuery int64
	QueryTimeout     time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*servedConn
	closed   bool

	// draining mirrors closed for lock-free checks in the serve loops: a
	// loop finishing a request while the server drains exits instead of
	// blocking in the next frame read.
	draining atomic.Bool

	// wg accounts for every goroutine the server starts: the accept
	// loop, one serve goroutine per connection, and each rejectConn.
	// Shutdown and Close return only after it drains to zero, so "Close
	// leaks no goroutines" is a structural property, not a timing one.
	wg sync.WaitGroup

	totalConns    int64
	rejectedConns int64

	governorKills   atomic.Int64
	timeoutKills    atomic.Int64
	cancels         atomic.Int64
	streamedBatches atomic.Int64
	streamedRows    atomic.Int64
	panics          atomic.Int64
	preparedLive    atomic.Int64 // connection-scoped prepared handles alive

	// retained holds, per drained table (lower-cased name), the rows last
	// handed to the consumer and not yet acknowledged; see drain.
	drainMu  sync.Mutex
	retained map[string]retainedDrain
}

// retainedDrain is one table's unacknowledged share of a drain.
type retainedDrain struct {
	seq  uint64
	rows []sqltypes.Row
}

// servedConn pairs an accepted connection with its session and tracks
// whether a request is in flight — Shutdown closes idle connections
// immediately and lets busy ones finish their current statement.
type servedConn struct {
	conn net.Conn
	sess *engine.Session
	busy atomic.Bool
}

// NewServer wraps db.
func NewServer(db *engine.DB) *Server {
	return &Server{DB: db, conns: map[net.Conn]*servedConn{}, retained: map[string]retainedDrain{}}
}

// Listen starts serving on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address. Serving continues until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if err := fault.Inject(fault.WireAccept); err != nil {
			// Injected accept failure: the connection dies before the
			// server ever speaks, like a dropped SYN-ACK or an instant
			// RST — the client sees a connection error and may retry.
			conn.Close()
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.MaxConns > 0 && len(s.conns) >= s.MaxConns {
			s.rejectedConns++
			s.mu.Unlock()
			// Reject loudly: one error frame, then close. A silently
			// dropped connection looks like a network fault to the client.
			// Runs aside so a client that never speaks cannot stall the
			// accept loop.
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				rejectConn(conn)
			}()
			continue
		}
		sc := &servedConn{conn: conn, sess: s.DB.NewSession()}
		s.conns[conn] = sc
		s.totalConns++
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(sc)
	}
}

// rejectConn answers an over-limit connection with one error frame, then
// closes it.
func rejectConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	// Wait for the client's opener so the answer is not lost to a reset.
	if n, _ := io.CopyN(io.Discard, conn, int64(len(protocolMagic))); n == 0 {
		return // never spoke; nothing to answer
	}
	writeResponseFrame(conn, &Response{Error: errConnLimit})
}

// writeResponseFrame writes one unbuffered response frame — the
// connection-level answers given outside a request loop.
func writeResponseFrame(conn net.Conn, resp *Response) {
	payload, _ := json.Marshal(resp)
	writeFrame(conn, frameResponse, payload)
}

func (s *Server) serveConn(sc *servedConn) {
	conn, sess := sc.conn, sc.sess
	defer s.wg.Done()
	defer func() {
		// Connection-level panic isolation: a panic that escapes the
		// statement-level recover (or fires in the protocol code itself)
		// takes down this connection only — the session rolls back, the
		// connection closes, every other client keeps its server.
		if r := recover(); r != nil {
			s.panics.Add(1)
			writeResponseFrame(conn, &Response{
				Error: fmt.Sprintf("wire: internal error: %v", r),
				Code:  enginerr.CodeInternal,
			})
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		// Session teardown: cancel the in-flight query and roll back an
		// open transaction.
		sess.Close()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 32<<10)
	var magic [len(protocolMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != protocolMagic {
		writeResponseFrame(conn, &Response{Error: "wire: bad protocol magic"})
		return
	}
	s.serveV2(sc, br)
}

// errResponse wraps an engine error, carrying whatever SQLSTATE class
// the construction site attached (serialization 40001, duplicate-key
// 23505, undefined-table 42P01, ...) so clients can tell "retry the
// transaction" from "fix the statement" without string matching.
func errResponse(err error) *Response {
	return &Response{Error: err.Error(), Code: enginerr.CodeOf(err)}
}

// handle serves the control-plane operations: one request, one JSON
// response frame.
func (s *Server) handle(sess *engine.Session, req *Request) *Response {
	switch req.Op {
	case opPing:
		return &Response{}
	case opSchema:
		tbl, err := s.DB.Catalog().Table(req.Table)
		if err != nil {
			return errResponse(err)
		}
		resp := &Response{}
		for _, c := range tbl.Columns {
			resp.Schema = append(resp.Schema, ColumnDesc{Name: c.Name, Type: c.Type.String(), NotNull: c.NotNull})
		}
		for i, pos := range tbl.PrimaryKeyColumns() {
			resp.Schema[pos].PK = i + 1
		}
		return resp
	case opTables:
		return &Response{Tables: s.DB.Catalog().TableNames()}
	case opStats:
		return &Response{StatsV2: s.snapshotStatsV2()}
	case opToken:
		return &Response{Token: sess.Token()}
	case opCancel:
		target, ok := s.DB.SessionByToken(req.Token)
		if !ok {
			return &Response{Error: "wire: no session with that token"}
		}
		target.Interrupt()
		s.cancels.Add(1)
		return &Response{}
	}
	return &Response{Error: fmt.Sprintf("wire: unknown op 0x%02x", byte(req.Op))}
}

// drain serves the drain op: one round trip that empties every named
// table of its committed rows (engine.Session.DrainTable, so a row a
// concurrent writer commits meanwhile is in this batch or the next, never
// lost) and answers with them under sequence number Ack+1.
//
// Delivery is exactly-once across a lost response. What a drain hands
// out is retained, per table, until the consumer's next drain
// acknowledges it by carrying that sequence number as its Ack. A drain
// whose Ack is still one behind — the consumer never saw the answer and
// asks again, typically on a fresh connection after wire.DialRetry
// reconnected — is answered with the retained rows under the same
// number; a table with nothing retained for that number is drained
// afresh. The retained rows live in server memory only: a server restart
// between a drain and its acknowledgement loses them, and the consumer
// must mirror the table again.
func (s *Server) drain(sess *engine.Session, req *Request) (*DrainBatch, error) {
	batch := &DrainBatch{Seq: req.Ack + 1}
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	for _, name := range req.Tables {
		key := strings.ToLower(name)
		r, ok := s.retained[key]
		if !ok || r.seq != batch.Seq {
			rows, err := sess.DrainTable(name)
			if err != nil {
				// Tables drained so far stay retained under this number:
				// the consumer's retry collects them.
				return nil, err
			}
			r = retainedDrain{seq: batch.Seq, rows: rows}
			if len(rows) == 0 {
				delete(s.retained, key)
			} else {
				s.retained[key] = r
			}
		}
		if len(r.rows) > 0 {
			batch.Tables = append(batch.Tables, DrainTable{Table: name, N: len(r.rows), Rows: r.rows})
		}
	}
	return batch, nil
}

// snapshotStatsV2 assembles the namespaced counter snapshot.
func (s *Server) snapshotStatsV2() *StatsV2 {
	cs := s.DB.StmtCacheStats()
	st := &StatsV2{Version: 2}
	s.mu.Lock()
	st.Server = ServerStats{
		ActiveConns:    len(s.conns),
		TotalConns:     s.totalConns,
		RejectedConns:  s.rejectedConns,
		PlanCacheSize:  cs.Entries,
		PlanCacheHits:  cs.Hits,
		PlanCacheMiss:  cs.Misses,
		PreparedMarked: int(s.preparedLive.Load()),
	}
	s.mu.Unlock()
	st.Server.GovernorKills = s.governorKills.Load()
	st.Server.TimeoutKills = s.timeoutKills.Load()
	st.Server.Cancels = s.cancels.Load()
	st.Server.StreamedBatches = s.streamedBatches.Load()
	st.Server.StreamedRows = s.streamedRows.Load()
	st.Server.Degraded = s.DB.Degraded()
	st.Server.PanicsRecovered = s.panics.Load() + s.DB.RecoveredPanics()
	st.Server.FaultInjected = fault.Injected()
	ts := s.DB.TxnStats()
	st.Txn = TxnStats{
		ActiveTxns:       ts.ActiveTxns,
		OldestSnapshotMS: ts.OldestSnapshotMS,
		Commits:          int64(ts.Commits),
		ConflictAborts:   int64(ts.ConflictAborts),
		GCVersions:       int64(ts.GCVersions),
	}
	ss := s.DB.StorageStats()
	st.Storage = StorageStats{
		Durable:                 ss.Durable,
		WALBytes:                ss.WALBytes,
		WALRecords:              ss.WALRecords,
		Fsyncs:                  ss.Fsyncs,
		GroupCommitBatches:      ss.GroupCommitBatches,
		Checkpoints:             ss.Checkpoints,
		LastCheckpointMS:        ss.LastCheckpointMS,
		RecoveryReplayedRecords: ss.ReplayedRecords,
		RecoveryReplayedBytes:   ss.ReplayedBytes,
	}
	st.Ivm = s.DB.IVMStats()
	return st
}

// classifyKill records why a statement context died, if it did.
func (s *Server) classifyKill(ctx context.Context) {
	if ctx.Err() == context.DeadlineExceeded {
		s.timeoutKills.Add(1)
	}
}

// v2conn is the per-connection state of a framed-protocol session.
type v2conn struct {
	srv      *Server
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	sess     *engine.Session
	prepared map[string]*engine.Prepared
	rbuf     []byte // frame read buffer, reused across requests
	wbuf     []byte // frame encode buffer, reused across frames
}

func (s *Server) serveV2(sc *servedConn, br *bufio.Reader) {
	c := &v2conn{
		srv:  s,
		conn: sc.conn,
		br:   br,
		bw:   bufio.NewWriterSize(sc.conn, 32<<10),
		sess: sc.sess,
	}
	// Connection-scoped prepared statements (and the plans their handles
	// own) die with the connection.
	defer func() { s.preparedLive.Add(-int64(len(c.prepared))) }()
	for {
		if err := fault.Inject(fault.WireFrameRead); err != nil {
			return // injected read failure: connection teardown
		}
		typ, payload, err := readFrame(c.br, c.rbuf)
		if err != nil {
			return
		}
		c.rbuf = payload
		if typ != frameRequest {
			c.writeResponse(&Response{Error: fmt.Sprintf("wire: unexpected frame 0x%02x, want request", typ)})
			return
		}
		req, err := decodeRequest(payload)
		if err != nil {
			if c.writeResponse(&Response{Error: err.Error()}) != nil {
				return
			}
			continue
		}
		sc.busy.Store(true)
		derr := c.dispatch(&req)
		sc.busy.Store(false)
		if derr != nil {
			return // connection-level failure (peer gone)
		}
		if s.draining.Load() {
			// Draining: the request in flight got its full response; exit
			// before parking in the next frame read. The client sees the
			// connection close between requests and can reconnect
			// elsewhere (or retry after the restart).
			return
		}
	}
}

// writeF writes one frame through the connection's buffered writer,
// honoring the wire/frame-write failpoint: an injected failure tears
// the connection down mid-stream, exactly like a peer disconnect.
func (c *v2conn) writeF(typ byte, payload []byte) error {
	if err := fault.Inject(fault.WireFrameWrite); err != nil {
		c.conn.Close()
		return err
	}
	return writeFrame(c.bw, typ, payload)
}

func (c *v2conn) writeResponse(resp *Response) error {
	payload, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	if err := c.writeF(frameResponse, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *v2conn) dispatch(req *Request) error {
	switch req.Op {
	case opExec, opExecPrepared:
		return c.streamExec(req)
	case opPrepare:
		p, err := c.sess.PrepareScript(req.SQL)
		if err != nil {
			return c.writeResponse(&Response{Error: err.Error()})
		}
		if c.prepared == nil {
			c.prepared = map[string]*engine.Prepared{}
		}
		if _, replaced := c.prepared[req.Name]; !replaced {
			c.srv.preparedLive.Add(1)
		}
		c.prepared[req.Name] = p
		return c.writeResponse(&Response{})
	case opDeallocate:
		if _, ok := c.prepared[req.Name]; !ok {
			return c.writeResponse(&Response{Error: fmt.Sprintf("wire: unknown prepared statement %q", req.Name)})
		}
		delete(c.prepared, req.Name)
		c.srv.preparedLive.Add(-1)
		return c.writeResponse(&Response{})
	case opDrain:
		return c.writeDrain(req)
	default:
		return c.writeResponse(c.srv.handle(c.sess, req))
	}
}

// writeDrain answers a drain: a response frame naming each
// table and its row count, then that many rows per table as binary
// row-batch frames of at most frameBudget bytes each, so deltas never pass
// through the JSON marshaller.
func (c *v2conn) writeDrain(req *Request) error {
	batch, err := c.srv.drain(c.sess, req)
	if err != nil {
		return c.writeResponse(errResponse(err))
	}
	hdr := DrainBatch{Seq: batch.Seq, Tables: make([]DrainTable, len(batch.Tables))}
	for i, t := range batch.Tables {
		hdr.Tables[i] = DrainTable{Table: t.Table, N: t.N}
	}
	payload, err := json.Marshal(&Response{Drain: &hdr})
	if err != nil {
		return err
	}
	if err := c.writeF(frameResponse, payload); err != nil {
		return err
	}
	for _, t := range batch.Tables {
		for rows := t.Rows; len(rows) > 0; {
			var payload []byte
			var n int
			c.wbuf, payload, n = appendRowFrame(c.wbuf, rows)
			if err := c.writeF(frameRows, payload); err != nil {
				return err
			}
			rows = rows[n:]
		}
	}
	return c.bw.Flush()
}

// streamExec runs one statement with a streamed result: schema frame,
// row-batch frames, then a trailer. An engine batch is one frame, or
// several when its rows take it past frameBudget. A rows frame stays in
// the writer until the next frame is ready and goes out before it is
// written: the last one leaves with the trailer, so a short result costs
// one write, and at most one frame is held back, so the write path is
// still the backpressure. An error before any frame goes out is a plain
// error response; an error after streaming began rides in the trailer.
func (c *v2conn) streamExec(req *Request) error {
	s := c.srv
	ctx, finish := c.sess.StartStatement(s.QueryTimeout)
	defer finish()

	var st *engine.Stream
	var err error
	if req.Op == opExecPrepared {
		p, ok := c.prepared[req.Name]
		if !ok {
			return c.writeResponse(&Response{Error: fmt.Sprintf("wire: unknown prepared statement %q", req.Name)})
		}
		c.sess.BindParams(req.Params)
		st, err = c.sess.ExecPreparedStream(ctx, p)
	} else {
		st, err = c.sess.ExecStream(ctx, req.SQL)
	}
	if err != nil {
		s.classifyKill(ctx)
		return c.writeResponse(errResponse(err))
	}
	defer st.Close()

	c.wbuf = appendStrings(c.wbuf[:0], st.Columns)
	if err := c.writeF(frameSchema, c.wbuf); err != nil {
		return err
	}

	var tr trailerFrame
	var sentBytes int64
	held := false // a rows frame waits in the writer
stream:
	for {
		batch, berr := st.Next()
		if berr != nil {
			s.classifyKill(ctx)
			tr.Error = berr.Error()
			tr.Code = enginerr.CodeOf(berr)
			break
		}
		if batch == nil {
			break
		}
		if s.MaxRowsPerQuery > 0 && int64(tr.Rows+len(batch)) > s.MaxRowsPerQuery {
			s.governorKills.Add(1)
			tr.Error = fmt.Sprintf("wire: query killed by admission governor: row budget %d exceeded", s.MaxRowsPerQuery)
			break
		}
		for rows := batch; len(rows) > 0; {
			var payload []byte
			var n int
			c.wbuf, payload, n = appendRowFrame(c.wbuf, rows)
			sentBytes += int64(len(payload))
			if s.MaxBytesPerQuery > 0 && sentBytes > s.MaxBytesPerQuery {
				s.governorKills.Add(1)
				tr.Error = fmt.Sprintf("wire: query killed by admission governor: byte budget %d exceeded", s.MaxBytesPerQuery)
				break stream
			}
			if held {
				if err := c.bw.Flush(); err != nil {
					return err
				}
			}
			if err := c.writeF(frameRows, payload); err != nil {
				return err
			}
			held = true
			tr.Rows += n
			s.streamedBatches.Add(1)
			s.streamedRows.Add(int64(n))
			rows = rows[n:]
		}
	}
	tr.RowsAffected = st.RowsAffected()
	// The plan goes back to the cache before the client learns the result
	// is complete, so its next statement of this shape finds it.
	st.Close()
	c.wbuf = appendTrailer(c.wbuf[:0], &tr)
	if err := c.writeF(frameTrailer, c.wbuf); err != nil {
		return err
	}
	return c.bw.Flush()
}

// closeGrace bounds how long Close waits after interrupting statements
// before force-closing connections.
const closeGrace = 5 * time.Second

// beginDrain flips the server into draining mode: no new connections,
// idle connections closed immediately, busy ones allowed to finish the
// request in flight (their serve loops exit instead of reading again).
func (s *Server) beginDrain() {
	s.draining.Store(true)
	s.mu.Lock()
	already := s.closed
	s.closed = true
	ln := s.listener
	if !already {
		for _, sc := range s.conns {
			if !sc.busy.Load() {
				sc.conn.Close()
			}
		}
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// interruptAll interrupts the statement in flight on every connection
// via the per-statement contexts; the sessions survive, finish their
// response (a streaming query delivers a trailer carrying the
// cancellation error), and then their serve loops exit because the
// server is draining.
func (s *Server) interruptAll() {
	s.mu.Lock()
	for _, sc := range s.conns {
		sc.sess.Interrupt()
	}
	s.mu.Unlock()
}

// closeAllConns force-closes every remaining connection.
func (s *Server) closeAllConns() {
	s.mu.Lock()
	for _, sc := range s.conns {
		sc.sess.Cancel()
		sc.conn.Close()
	}
	s.mu.Unlock()
}

// Shutdown gracefully stops the server: it stops accepting, closes idle
// connections, and drains requests in flight. If ctx expires before the
// drain completes, in-flight statements are interrupted through their
// per-statement contexts (streaming clients get a clean trailer carrying
// the cancellation), and connections that still have not unwound after a
// short grace are force-closed. Shutdown returns only once every server
// goroutine has exited: nil after a clean drain, ctx.Err() otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.interruptAll()
	select {
	case <-done:
		return ctx.Err()
	case <-time.After(closeGrace):
	}
	s.closeAllConns()
	<-done
	return ctx.Err()
}

// Close stops the server promptly but cleanly: it stops accepting and
// immediately interrupts every statement in flight, so a streaming
// client receives a trailer frame carrying the cancellation error rather
// than a torn connection, then waits for all server goroutines to exit
// (force-closing any connection that has not unwound within a bounded
// grace). Unlike earlier versions, Close does not return until the
// server's goroutine count is zero.
func (s *Server) Close() {
	s.beginDrain()
	s.interruptAll()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(closeGrace):
		s.closeAllConns()
		<-done
	}
}
