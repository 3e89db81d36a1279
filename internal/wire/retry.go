// Client-side resilience: reconnect with exponential backoff and
// automatic retry of idempotent operations.
//
// A Client from DialRetry transparently redials after a connection
// failure and resubmits the failed operation — but only when doing so
// cannot double-apply work:
//
//   - control-plane and read operations (ping, stats, schema, tables,
//     token, cancel, prepare, deallocate) are always retried;
//   - drain is retried although it removes rows: the server retains what
//     it handed out until the next drain acknowledges it, and answers a
//     repeated acknowledgement number with the same batch (Server.drain);
//   - exec/Query scripts are retried only when every statement is
//     read-shaped (SELECT/WITH/EXPLAIN/SHOW/VALUES);
//   - prepared executions are retried only when the statement's
//     recorded SQL is read-shaped;
//   - a streaming query is retried only while no result frame has been
//     consumed — once rows flowed, a transparent resubmit could
//     silently duplicate or reorder what the caller already saw.
//
// Anything else — DML, DDL, mixed scripts — fails with an error that
// says the statement was NOT retried, because the connection died after
// the request may have reached the server: the write may or may not
// have committed, and only the caller can decide how to verify.
//
// Reconnecting starts a fresh server session: prepared statements are
// replayed from the client's registry, but session state that cannot be
// replayed (an open transaction, a session token handed to a canceller)
// is gone. Retrying clients should treat transactions as all-or-nothing
// units and re-fetch tokens after an error.
package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"openivm/internal/enginerr"
)

// RetryPolicy bounds the reconnect/retry loop of a DialRetry client.
// Zero fields take defaults: 4 attempts, 50ms base delay doubling to a
// 2s cap.
type RetryPolicy struct {
	MaxAttempts int           // total attempts per operation (first try included)
	BaseDelay   time.Duration // delay before the first reattempt
	MaxDelay    time.Duration // backoff cap
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// DialRetry connects with protocol v2 and arms the reconnect/retry
// policy described in the package comment. Plain Dial clients never
// retry.
func DialRetry(addr string, policy RetryPolicy) (*Client, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	p := policy.withDefaults()
	c.addr = addr
	c.retry = &p
	c.prepared = map[string]string{}
	return c, nil
}

// retryableErr reports whether err is worth a reconnect: a transport
// failure (the server never answered — io/net errors, torn frames), or
// the server's own shutdown rejection (57P01), after which the
// connection is dead by design.
func retryableErr(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Code == enginerr.CodeShutdown
	}
	return true
}

// notRetriedErr wraps a connection failure during a non-idempotent
// statement. The request may have reached the server, so the write may
// or may not have committed — the client refuses to guess.
func notRetriedErr(err error) error {
	return fmt.Errorf("wire: connection failed during a non-idempotent statement; it was NOT retried — verify server state before resubmitting: %w", err)
}

// selectShaped reports whether every statement in a SQL script is
// read-shaped — the set the retrying client may transparently resubmit.
// The split is naive about semicolons inside string literals, but only
// in the safe direction: a mis-split fragment fails the keyword check
// and disables retry.
func selectShaped(sql string) bool {
	any := false
	for _, stmt := range strings.Split(sql, ";") {
		s := strings.TrimSpace(stmt)
		if s == "" {
			continue
		}
		any = true
		end := len(s)
		for i := 0; i < len(s); i++ {
			ch := s[i]
			if (ch < 'a' || ch > 'z') && (ch < 'A' || ch > 'Z') {
				end = i
				break
			}
		}
		switch strings.ToUpper(s[:end]) {
		case "SELECT", "WITH", "EXPLAIN", "SHOW", "VALUES":
		default:
			return false
		}
	}
	return any
}

// reconnectLocked redials, re-handshakes and replays the prepared
// registry (mu held). On success the client is on a fresh server
// session.
func (c *Client) reconnectLocked() error {
	c.conn.Close()
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	if _, err := conn.Write([]byte(protocolMagic)); err != nil {
		conn.Close()
		return err
	}
	c.conn = conn
	c.br = newClientReader(conn)
	c.bw = newClientWriter(conn)
	c.broken = false
	for name, sql := range c.prepared {
		if _, err := c.roundTripLocked(&Request{Op: opPrepare, Name: name, SQL: sql}); err != nil {
			c.broken = true
			return fmt.Errorf("wire: replaying prepared statement %q after reconnect: %w", name, err)
		}
	}
	return nil
}

// doRetry runs one non-streaming round trip under the retry policy (a
// no-op wrapper when the client has none). idempotent gates whether a
// transport failure is resubmitted or surfaced as not-retried.
func (c *Client) doRetry(req *Request, idempotent bool) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retry == nil {
		return c.roundTripLocked(req)
	}
	var resp *Response
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
		resp, err = c.roundTripLocked(req)
		if err == nil || !retryableErr(err) {
			return resp, err
		}
		c.broken = true
		if !idempotent {
			return nil, notRetriedErr(err)
		}
	}
	return nil, err
}

// streamIdempotent reports whether a streaming request may be
// resubmitted: an exec of a read-shaped script, or a prepared execution
// whose recorded SQL is read-shaped (mu held).
func (c *Client) streamIdempotent(req *Request) bool {
	switch req.Op {
	case opExec:
		return selectShaped(req.SQL)
	case opExecPrepared:
		sql, ok := c.prepared[req.Name]
		return ok && selectShaped(sql)
	}
	return false
}
