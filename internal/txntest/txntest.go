// Package txntest is a reusable concurrency harness for the engine's
// snapshot-isolation guarantees: it generates randomized multi-session
// transaction histories over a small key-value table, executes them
// against any SQL endpoint (an embedded engine session or a wire
// client), and checks the observed reads and commit outcomes against an
// exact snapshot-isolation oracle.
//
// Two execution modes cover different failure classes:
//
//   - Sequential mode interleaves the sessions' operations from a single
//     goroutine in a deterministic order. Because the interleaving is
//     known, the checker predicts every read result and every commit
//     outcome exactly (snapshot stability, first-updater-wins conflicts,
//     lost-update rejection). A failing history is shrunk by delta
//     debugging and printed in replayable form.
//
//   - Concurrent mode runs one operation stream per goroutine with no
//     coordination, under the race detector in CI. The oracle is
//     necessarily conservative — per-transaction snapshot stability,
//     own-writes visibility, and a post-hoc dirty-read audit: no read
//     may observe a value whose writing transaction never committed.
//
// Histories write globally unique values so every observed value maps
// back to exactly one writing operation.
//
// The seed comes from the TXNTEST_SEED environment variable when set,
// making CI failures replayable; otherwise it derives from the clock
// and is printed with any failure.
package txntest

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Conn is one database session executing SQL statements. Integer result
// columns are returned as int64 (the harness only reads integers).
type Conn interface {
	Exec(sql string) ([][]int64, error)
	Close() error
}

// OpKind enumerates history operations.
type OpKind int

const (
	OpBegin OpKind = iota
	OpCommit
	OpRollback
	OpRead    // SELECT v FROM kv WHERE k = Key
	OpReadAll // SELECT k, v FROM kv ORDER BY k
	// OpReadKeys is OpReadAll found through the primary-key index: the key
	// set is the table's own keys, read by a subquery at the same snapshot.
	OpReadKeys // SELECT k, v FROM kv WHERE k IN (SELECT k FROM kv) ORDER BY k
	OpWrite    // UPDATE kv SET v = Val WHERE k = Key
)

func (k OpKind) String() string {
	switch k {
	case OpBegin:
		return "begin"
	case OpCommit:
		return "commit"
	case OpRollback:
		return "rollback"
	case OpRead:
		return "read"
	case OpReadAll:
		return "readall"
	case OpReadKeys:
		return "readkeys"
	case OpWrite:
		return "write"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one step of a history: session Sess performs Kind.
type Op struct {
	Sess int
	Kind OpKind
	Key  int
	Val  int64
}

func (o Op) String() string {
	switch o.Kind {
	case OpRead:
		return fmt.Sprintf("s%d read k%d", o.Sess, o.Key)
	case OpWrite:
		return fmt.Sprintf("s%d write k%d=%d", o.Sess, o.Key, o.Val)
	default:
		return fmt.Sprintf("s%d %s", o.Sess, o.Kind)
	}
}

// History is an ordered operation schedule across sessions.
type History []Op

// Format renders a history one op per line for replay in a bug report.
func Format(h History) string {
	var b strings.Builder
	for i, op := range h {
		fmt.Fprintf(&b, "%3d: %s\n", i, op)
	}
	return b.String()
}

// Options sizes a generated history.
type Options struct {
	Sessions int // concurrent sessions (sequentially interleaved)
	Keys     int // distinct keys, all seeded with value 0
	Ops      int // approximate operation count
}

// Seed returns the harness seed: TXNTEST_SEED when set (replayable CI
// runs), otherwise a clock-derived seed. fromEnv reports which.
func Seed() (seed int64, fromEnv bool) {
	if v := os.Getenv("TXNTEST_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n, true
		}
	}
	return time.Now().UnixNano(), false
}

// Generate builds a random well-formed history: BEGIN only outside a
// transaction, COMMIT/ROLLBACK only inside, every open transaction
// closed at the end, and every written value unique within the history.
func Generate(rnd *rand.Rand, o Options) History {
	h := make(History, 0, o.Ops+o.Sessions)
	inTxn := make([]bool, o.Sessions)
	val := int64(1)
	for len(h) < o.Ops {
		s := rnd.Intn(o.Sessions)
		k := rnd.Intn(o.Keys)
		switch r := rnd.Intn(10); {
		case r < 3: // transaction boundary
			if !inTxn[s] {
				h = append(h, Op{Sess: s, Kind: OpBegin})
				inTxn[s] = true
			} else if rnd.Intn(4) == 0 {
				h = append(h, Op{Sess: s, Kind: OpRollback})
				inTxn[s] = false
			} else {
				h = append(h, Op{Sess: s, Kind: OpCommit})
				inTxn[s] = false
			}
		case r < 6:
			h = append(h, Op{Sess: s, Kind: OpRead, Key: k})
		case r < 7:
			kind := OpReadAll
			if rnd.Intn(2) == 0 {
				kind = OpReadKeys
			}
			h = append(h, Op{Sess: s, Kind: kind})
		default:
			h = append(h, Op{Sess: s, Kind: OpWrite, Key: k, Val: val})
			val++
		}
	}
	for s, open := range inTxn {
		if open {
			h = append(h, Op{Sess: s, Kind: OpCommit})
		}
	}
	return h
}

// normalize drops operations made invalid by minimization (BEGIN inside
// a transaction, COMMIT/ROLLBACK outside one) so any op subset replays
// as a well-formed history.
func normalize(h History) History {
	out := make(History, 0, len(h))
	inTxn := map[int]bool{}
	for _, op := range h {
		switch op.Kind {
		case OpBegin:
			if inTxn[op.Sess] {
				continue
			}
			inTxn[op.Sess] = true
		case OpCommit, OpRollback:
			if !inTxn[op.Sess] {
				continue
			}
			inTxn[op.Sess] = false
		}
		out = append(out, op)
	}
	return out
}

// SetupSQL returns the statements that seed the kv table for a history
// with o.Keys keys (all value 0).
func SetupSQL(o Options) []string {
	stmts := []string{"CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"}
	for k := 0; k < o.Keys; k++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", k))
	}
	return stmts
}

func (o Op) sql() string {
	switch o.Kind {
	case OpBegin:
		return "BEGIN"
	case OpCommit:
		return "COMMIT"
	case OpRollback:
		return "ROLLBACK"
	case OpRead:
		return fmt.Sprintf("SELECT v FROM kv WHERE k = %d", o.Key)
	case OpReadAll:
		return "SELECT k, v FROM kv ORDER BY k"
	case OpReadKeys:
		return "SELECT k, v FROM kv WHERE k IN (SELECT k FROM kv) ORDER BY k"
	case OpWrite:
		return fmt.Sprintf("UPDATE kv SET v = %d WHERE k = %d", o.Val, o.Key)
	}
	return ""
}

// Violation is a checked snapshot-isolation invariant breach: the
// history is valid, the database's answer was wrong.
type Violation struct {
	OpIndex int
	Op      Op
	Detail  string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("op %d (%s): %s", v.OpIndex, v.Op, v.Detail)
}

// sessModel is the oracle's view of one session during sequential replay.
type sessModel struct {
	inTxn    bool
	doomed   bool
	beginSeq int
	snap     map[int]int64 // committed state captured at BEGIN
	writes   map[int]int64 // own uncommitted writes
}

// RunSequential replays h one operation at a time against fresh
// connections from open, checking every result against the exact
// snapshot-isolation oracle. It returns a Violation for an isolation
// bug, or a non-nil error for a harness failure (connection loss,
// unexpected statement error class).
func RunSequential(open func() (Conn, error), h History, isSer func(error) bool, o Options) (*Violation, error) {
	h = normalize(h)
	conns := map[int]Conn{}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	conn := func(s int) (Conn, error) {
		if c, ok := conns[s]; ok {
			return c, nil
		}
		c, err := open()
		if err != nil {
			return nil, err
		}
		conns[s] = c
		return c, nil
	}

	committed := map[int]int64{}
	commitSeq := map[int]int{}
	for k := 0; k < o.Keys; k++ {
		committed[k] = 0
	}
	seq := 0
	sess := map[int]*sessModel{}
	model := func(s int) *sessModel {
		m, ok := sess[s]
		if !ok {
			m = &sessModel{}
			sess[s] = m
		}
		return m
	}
	// rivalHolds reports whether any other open transaction has an
	// uncommitted write on k — its end stamp makes k unwritable.
	rivalHolds := func(self, k int) bool {
		for id, m := range sess {
			if id == self || !m.inTxn {
				continue
			}
			if _, ok := m.writes[k]; ok {
				return true
			}
		}
		return false
	}

	for i, op := range h {
		c, err := conn(op.Sess)
		if err != nil {
			return nil, fmt.Errorf("open session %d: %w", op.Sess, err)
		}
		m := model(op.Sess)
		rows, execErr := c.Exec(op.sql())
		switch op.Kind {
		case OpBegin:
			if execErr != nil {
				return nil, fmt.Errorf("op %d (%s): %w", i, op, execErr)
			}
			m.inTxn, m.doomed = true, false
			m.beginSeq = seq
			m.snap = make(map[int]int64, len(committed))
			for k, v := range committed {
				m.snap[k] = v
			}
			m.writes = map[int]int64{}

		case OpCommit:
			if m.doomed {
				if execErr == nil {
					return &Violation{i, op, "COMMIT of a conflict-doomed transaction succeeded (lost update admitted)"}, nil
				}
				if !isSer(execErr) {
					return nil, fmt.Errorf("op %d (%s): doomed commit failed with non-serialization error: %w", i, op, execErr)
				}
			} else {
				if execErr != nil {
					return &Violation{i, op, fmt.Sprintf("conflict-free COMMIT failed: %v", execErr)}, nil
				}
				seq++
				for k, v := range m.writes {
					committed[k] = v
					commitSeq[k] = seq
				}
			}
			m.inTxn, m.doomed, m.snap, m.writes = false, false, nil, nil

		case OpRollback:
			if execErr != nil {
				return nil, fmt.Errorf("op %d (%s): %w", i, op, execErr)
			}
			m.inTxn, m.doomed, m.snap, m.writes = false, false, nil, nil

		case OpRead:
			if execErr != nil {
				return nil, fmt.Errorf("op %d (%s): %w", i, op, execErr)
			}
			var want int64
			if m.inTxn {
				if v, ok := m.writes[op.Key]; ok {
					want = v
				} else {
					want = m.snap[op.Key]
				}
			} else {
				want = committed[op.Key]
			}
			if len(rows) != 1 || len(rows[0]) != 1 {
				return &Violation{i, op, fmt.Sprintf("read returned %d rows, want 1", len(rows))}, nil
			}
			if got := rows[0][0]; got != want {
				return &Violation{i, op, fmt.Sprintf("read k%d = %d, oracle says %d", op.Key, got, want)}, nil
			}

		case OpReadAll, OpReadKeys:
			if execErr != nil {
				return nil, fmt.Errorf("op %d (%s): %w", i, op, execErr)
			}
			want := make(map[int]int64, len(committed))
			if m.inTxn {
				for k, v := range m.snap {
					want[k] = v
				}
				for k, v := range m.writes {
					want[k] = v
				}
			} else {
				for k, v := range committed {
					want[k] = v
				}
			}
			if len(rows) != len(want) {
				return &Violation{i, op, fmt.Sprintf("readall returned %d rows, want %d", len(rows), len(want))}, nil
			}
			keys := make([]int, 0, len(want))
			for k := range want {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for j, k := range keys {
				if len(rows[j]) != 2 || rows[j][0] != int64(k) || rows[j][1] != want[k] {
					return &Violation{i, op, fmt.Sprintf("readall row %d = %v, oracle says [%d %d]", j, rows[j], k, want[k])}, nil
				}
			}

		case OpWrite:
			conflict := rivalHolds(op.Sess, op.Key)
			if m.inTxn {
				conflict = conflict || commitSeq[op.Key] > m.beginSeq
			}
			if conflict {
				if execErr == nil {
					return &Violation{i, op, "write over a concurrent update succeeded (first-updater-wins not enforced)"}, nil
				}
				if !isSer(execErr) {
					return nil, fmt.Errorf("op %d (%s): conflict failed with non-serialization error: %w", i, op, execErr)
				}
				if m.inTxn {
					m.doomed = true
				}
				continue
			}
			if execErr != nil {
				return &Violation{i, op, fmt.Sprintf("conflict-free write failed: %v", execErr)}, nil
			}
			if m.inTxn {
				m.writes[op.Key] = op.Val
			} else {
				seq++
				committed[op.Key] = op.Val
				commitSeq[op.Key] = seq
			}
		}
	}
	return nil, nil
}

// Minimize shrinks a violating history by delta debugging: repeatedly
// drop chunks of operations (renormalizing each candidate) and keep any
// subset that still produces a violation on a fresh database. newDB
// must hand back an opener onto a freshly seeded database per call.
func Minimize(newDB func() (open func() (Conn, error), teardown func(), err error), h History, isSer func(error) bool, o Options) History {
	fails := func(cand History) bool {
		open, teardown, err := newDB()
		if err != nil {
			return false
		}
		defer teardown()
		v, _ := RunSequential(open, cand, isSer, o)
		return v != nil
	}
	h = normalize(h)
	if !fails(h) {
		return h // not reproducible on replay; report the original
	}
	chunk := len(h) / 2
	for chunk > 0 {
		shrunk := false
		for start := 0; start < len(h); {
			end := start + chunk
			if end > len(h) {
				end = len(h)
			}
			cand := make(History, 0, len(h)-(end-start))
			cand = append(cand, h[:start]...)
			cand = append(cand, h[end:]...)
			cand = normalize(cand)
			if fails(cand) {
				h = cand
				shrunk = true
				// retry same position at this chunk size
			} else {
				start = end
			}
		}
		if !shrunk {
			chunk /= 2
		}
	}
	return h
}
