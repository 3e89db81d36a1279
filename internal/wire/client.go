package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"openivm/internal/sqltypes"
)

// RemoteError is a server-reported execution error. Code carries the
// SQLSTATE-style class when the server assigned one ("40001" for
// serialization failures); it is empty for ordinary statement errors.
type RemoteError struct {
	Msg  string
	Code string
}

func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

// SQLState returns the SQLSTATE class the server attached ("" when
// none), so enginerr.CodeOf classifies remote errors exactly like local
// ones — one classification path on both sides of the wire.
func (e *RemoteError) SQLState() string { return e.Code }

func remoteError(msg, code string) error {
	return &RemoteError{Msg: msg, Code: code}
}

// Client is a connection to a wire server (framed protocol, streamed
// results). A Client is safe for concurrent use, but a streaming Query
// pins the connection until its Rows is drained or closed.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte
	wbuf []byte // request encode buffer

	// Reconnect/retry state (DialRetry clients only; see retry.go).
	// All guarded by mu.
	retry    *RetryPolicy
	addr     string
	prepared map[string]string // name -> SQL, replayed after reconnect
	broken   bool              // connection needs a redial before use
}

func newClientReader(conn net.Conn) *bufio.Reader { return bufio.NewReaderSize(conn, 64<<10) }
func newClientWriter(conn net.Conn) *bufio.Writer { return bufio.NewWriterSize(conn, 32<<10) }

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte(protocolMagic)); err != nil {
		conn.Close()
		return nil, err
	}
	return &Client{
		conn: conn,
		br:   newClientReader(conn),
		bw:   newClientWriter(conn),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// sendRequest frames and flushes one request (mu held).
func (c *Client) sendRequest(req *Request) error {
	c.wbuf = appendRequest(c.wbuf[:0], req)
	if err := writeFrame(c.bw, frameRequest, c.wbuf); err != nil {
		return err
	}
	return c.bw.Flush()
}

// readResponse reads one non-streaming response (mu held).
func (c *Client) readResponse() (*Response, error) {
	typ, payload, err := readFrame(c.br, c.rbuf)
	if err != nil {
		return nil, err
	}
	c.rbuf = payload
	if typ != frameResponse {
		return nil, fmt.Errorf("wire: unexpected frame 0x%02x, want response", typ)
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// roundTrip runs one request/response exchange. Every direct caller is
// an idempotent operation (control plane, metadata, drain), so a retrying
// client may transparently resubmit it.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	return c.doRetry(req, true)
}

// roundTripLocked is one exchange on the current connection (mu held).
func (c *Client) roundTripLocked(req *Request) (*Response, error) {
	if err := c.sendRequest(req); err != nil {
		return nil, err
	}
	resp, err := c.readResponse()
	if err == nil && resp.Drain != nil {
		err = c.readDrainRows(resp.Drain)
	}
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, remoteError(resp.Error, resp.Code)
	}
	return resp, nil
}

// readDrainRows collects the row-batch frames that follow a drain
// response: N rows per listed table (mu held).
func (c *Client) readDrainRows(b *DrainBatch) error {
	for i := range b.Tables {
		t := &b.Tables[i]
		for len(t.Rows) < t.N {
			typ, payload, err := readFrame(c.br, c.rbuf)
			if err != nil {
				return err
			}
			c.rbuf = payload
			if typ != frameRows {
				return fmt.Errorf("wire: unexpected frame 0x%02x in drain of %s, want rows", typ, t.Table)
			}
			rows, err := decodeRowBatch(payload)
			if err != nil {
				return err
			}
			if len(rows) == 0 {
				return fmt.Errorf("wire: empty row batch in drain of %s", t.Table)
			}
			for _, r := range rows {
				t.Rows = append(t.Rows, r)
			}
		}
	}
	return nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Request{Op: opPing})
	return err
}

// Exec runs a SQL script remotely on this connection's session and
// materializes the whole result client-side. The transfer still streams;
// use Query to consume batches incrementally instead.
func (c *Client) Exec(sql string) (*Response, error) {
	return c.collect(&Request{Op: opExec, SQL: sql})
}

// Query runs a SQL script remotely and returns its result as a stream of
// row batches. The connection is pinned to this query until the Rows is
// drained or closed.
func (c *Client) Query(sql string) (*Rows, error) {
	return c.startStream(&Request{Op: opExec, SQL: sql})
}

// Prepare parses a script server-side under name: later ExecPrepared
// calls skip parsing entirely and re-use the plans of its SELECT bodies.
// Names (and those plans) are connection-scoped. Statements
// may reference $1..$N, bound per execution.
func (c *Client) Prepare(name, sql string) error {
	_, err := c.roundTrip(&Request{Op: opPrepare, Name: name, SQL: sql})
	if err == nil && c.prepared != nil {
		c.mu.Lock()
		c.prepared[name] = sql
		c.mu.Unlock()
	}
	return err
}

// Deallocate drops a prepared statement.
func (c *Client) Deallocate(name string) error {
	_, err := c.roundTrip(&Request{Op: opDeallocate, Name: name})
	if err == nil && c.prepared != nil {
		c.mu.Lock()
		delete(c.prepared, name)
		c.mu.Unlock()
	}
	return err
}

// QueryPrepared executes a prepared statement with params bound to
// $1..$N, streaming the result.
func (c *Client) QueryPrepared(name string, params ...sqltypes.Value) (*Rows, error) {
	return c.startStream(&Request{Op: opExecPrepared, Name: name, Params: params})
}

// ExecPrepared is QueryPrepared with the result materialized.
func (c *Client) ExecPrepared(name string, params ...sqltypes.Value) (*Response, error) {
	return c.collect(&Request{Op: opExecPrepared, Name: name, Params: params})
}

// Token fetches this connection's session token — the capability a
// second connection needs to cancel this one's in-flight statement.
func (c *Client) Token() (string, error) {
	resp, err := c.roundTrip(&Request{Op: opToken})
	if err != nil {
		return "", err
	}
	return resp.Token, nil
}

// Cancel interrupts the statement currently executing in the session
// identified by token (obtained via Token on that session's own
// connection). The target session survives and serves its next request.
func (c *Client) Cancel(token string) error {
	_, err := c.roundTrip(&Request{Op: opCancel, Token: token})
	return err
}

// Schema fetches a remote table's columns.
func (c *Client) Schema(table string) ([]ColumnDesc, error) {
	resp, err := c.roundTrip(&Request{Op: opSchema, Table: table})
	if err != nil {
		return nil, err
	}
	return resp.Schema, nil
}

// Drain removes and returns the committed rows of the named remote
// tables in one round trip. ack is the Seq of the last DrainBatch the
// caller has applied (0 before the first): the server then releases the
// copy it retained of that batch. The op is safe to resend — a server
// that sees the same ack again hands out the same batch — so a DialRetry
// client retries it across a reconnect, and the caller receives every
// drained row exactly once.
func (c *Client) Drain(ack uint64, tables ...string) (*DrainBatch, error) {
	resp, err := c.roundTrip(&Request{Op: opDrain, Tables: tables, Ack: ack})
	if err != nil {
		return nil, err
	}
	if resp.Drain == nil {
		return nil, fmt.Errorf("wire: server answered a drain without a batch")
	}
	return resp.Drain, nil
}

// Tables lists remote tables.
func (c *Client) Tables() ([]string, error) {
	resp, err := c.roundTrip(&Request{Op: opTables})
	if err != nil {
		return nil, err
	}
	return resp.Tables, nil
}

// Stats fetches the server DB's counter registry: one name -> value map
// (docs/OPERATIONS.md lists the names).
func (c *Client) Stats() (map[string]int64, error) {
	resp, err := c.roundTrip(&Request{Op: opStats})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// StatsV2 fetches the counters and reads the ones StatsV2 holds.
func (c *Client) StatsV2() (*StatsV2, error) {
	m, err := c.Stats()
	if err != nil {
		return nil, err
	}
	return &StatsV2{Server: ServerStats{
		StreamedBatches: m["server.streamedBatches"],
		GovernorKills:   m["server.governorKills"],
	}}, nil
}

// collect drains a streamed exec into a materialized Response.
func (c *Client) collect(req *Request) (*Response, error) {
	rows, err := c.startStream(req)
	if err != nil {
		return nil, err
	}
	out := &Response{Columns: rows.Columns}
	for {
		batch, err := rows.Next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		out.Rows = append(out.Rows, batch...)
	}
	out.RowsAffected = rows.RowsAffected()
	return out, nil
}

// startStream sends a streaming exec and positions the client at the
// first result frame. The client mutex stays held until
// the stream finishes (trailer read, read error, or Close). A retrying
// client resubmits read-shaped requests on connection failure, but only
// here — before any result frame has been consumed; once the Rows is
// returned, a mid-stream failure surfaces to the caller.
func (c *Client) startStream(req *Request) (*Rows, error) {
	c.mu.Lock()
	if c.retry == nil {
		rows, err := c.startStreamLocked(req)
		if err != nil {
			c.mu.Unlock()
		}
		return rows, err
	}
	idempotent := c.streamIdempotent(req)
	var rows *Rows
	var err error
	delay := c.retry.BaseDelay
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
			if delay > c.retry.MaxDelay {
				delay = c.retry.MaxDelay
			}
		}
		if c.broken {
			if rerr := c.reconnectLocked(); rerr != nil {
				err = rerr
				continue
			}
		}
		rows, err = c.startStreamLocked(req)
		if err == nil || !retryableErr(err) {
			// Success leaves mu held for the Rows; failure paths below
			// must release it.
			if err != nil {
				c.mu.Unlock()
			}
			return rows, err
		}
		c.broken = true
		if !idempotent {
			c.mu.Unlock()
			return nil, notRetriedErr(err)
		}
	}
	c.mu.Unlock()
	return nil, err
}

// startStreamLocked sends one streaming request on the current
// connection and reads up to the schema frame (mu held; stays held on
// success — the returned Rows owns it until finish).
func (c *Client) startStreamLocked(req *Request) (*Rows, error) {
	if err := c.sendRequest(req); err != nil {
		return nil, err
	}
	typ, payload, err := readFrame(c.br, c.rbuf)
	if err != nil {
		return nil, err
	}
	c.rbuf = payload
	switch typ {
	case frameResponse:
		var resp Response
		if jerr := json.Unmarshal(payload, &resp); jerr != nil {
			return nil, jerr
		}
		if resp.Error != "" {
			return nil, remoteError(resp.Error, resp.Code)
		}
		return nil, fmt.Errorf("wire: server answered a stream request without a stream")
	case frameSchema:
		cols, serr := decodeSchema(payload)
		if serr != nil {
			return nil, serr
		}
		return &Rows{c: c, Columns: cols}, nil
	default:
		return nil, fmt.Errorf("wire: unexpected frame 0x%02x, want schema", typ)
	}
}

// Rows is a streamed query result, consumed batch by batch. It pins its
// client connection until drained or closed.
type Rows struct {
	// Columns names the result columns.
	Columns []string

	c            *Client
	done         bool
	err          error
	rowsAffected int
}

// Next returns the next batch of rows, or nil at end of stream. A remote
// execution error (including a governor kill or cancellation) surfaces
// here, after any rows that were already streamed.
func (r *Rows) Next() ([][]sqltypes.Value, error) {
	if r.done {
		return nil, r.err
	}
	typ, payload, err := readFrame(r.c.br, r.c.rbuf)
	if err != nil {
		r.finish(err)
		return nil, err
	}
	r.c.rbuf = payload
	switch typ {
	case frameRows:
		batch, derr := decodeRowBatch(payload)
		if derr != nil {
			r.finish(derr)
			return nil, derr
		}
		return batch, nil
	case frameTrailer:
		tf, terr := decodeTrailer(payload)
		if terr != nil {
			r.finish(terr)
			return nil, terr
		}
		r.rowsAffected = tf.RowsAffected
		if tf.Error != "" {
			terr = remoteError(tf.Error, tf.Code)
		}
		r.finish(terr)
		return nil, terr
	default:
		ferr := fmt.Errorf("wire: unexpected frame 0x%02x in stream", typ)
		r.finish(ferr)
		return nil, ferr
	}
}

// finish ends the stream and releases the pinned connection. A
// mid-stream transport failure marks a retrying client's connection
// broken so the next operation redials — the stream itself is never
// resumed (the caller already consumed frames).
func (r *Rows) finish(err error) {
	if r.done {
		return
	}
	r.done = true
	r.err = err
	if err != nil && r.c.retry != nil && retryableErr(err) {
		r.c.broken = true
	}
	r.c.mu.Unlock()
}

// RowsAffected returns the DML row count from the trailer (0 for
// streamed SELECTs). Valid after the stream ends.
func (r *Rows) RowsAffected() int { return r.rowsAffected }

// Err returns the error the stream ended with, if any.
func (r *Rows) Err() error { return r.err }

// Close drains any remaining frames so the connection is usable for the
// next request, then returns the stream's final error.
func (r *Rows) Close() error {
	for !r.done {
		if _, err := r.Next(); err != nil {
			return err
		}
	}
	return r.err
}
