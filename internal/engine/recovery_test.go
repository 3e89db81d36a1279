package engine_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"openivm/internal/engine"
	"openivm/internal/fault"
	"openivm/internal/ivm"
	"openivm/internal/ivmext"
	"openivm/internal/oltp"
	"openivm/internal/storage"
	"openivm/internal/txntest"
)

// recoverySeed returns the torture-test seed: RECOVERY_SEED when set
// (replayable CI runs), otherwise clock-derived and printed on failure.
func recoverySeed() (int64, bool) {
	if v := os.Getenv("RECOVERY_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n, true
		}
	}
	return time.Now().UnixNano(), false
}

// openDurable opens a durable engine over dir: extension first (recovery
// re-executes CREATE MATERIALIZED VIEW through its statement hook), then
// the disk backend.
func openDurable(t *testing.T, dir string) *engine.DB {
	t.Helper()
	db := engine.Open("recovery", engine.DialectDuckDB)
	ivmext.Install(db)
	b, err := storage.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachBackend(b); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustExec(t *testing.T, s *engine.Session, sql string) *engine.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("%s\n-> %v", sql, err)
	}
	return res
}

// kvState renders the kv table as a canonical string, or "NOTABLE" when
// the table does not exist (recovery cut before its CREATE record).
func kvState(s *engine.Session) string {
	res, err := s.Exec("SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		return "NOTABLE"
	}
	var sb strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%d=%d;", r[0].I, r[1].I)
	}
	return sb.String()
}

func modelState(m map[int64]int64) string {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%d=%d;", k, m[k])
	}
	return sb.String()
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryTorture runs a randomized committed workload against a
// durable engine, then simulates crashes by truncating the on-disk log
// at random byte offsets and reopening. Every recovered image must be
// exactly the state after some prefix of the committed transactions —
// never a partial transaction, never an interleaving — and the reopened
// engine must accept new work. RECOVERY_SEED replays a failing run.
func TestRecoveryTorture(t *testing.T) {
	seed, fromEnv := recoverySeed()
	rnd := rand.New(rand.NewSource(seed))
	fail := func(format string, args ...any) {
		t.Fatalf("RECOVERY_SEED=%d (from env: %v): %s", seed, fromEnv, fmt.Sprintf(format, args...))
	}

	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()

	// states[j] is the expected kv image after the j-th durable point.
	states := []string{"NOTABLE"}
	model := map[int64]int64{}
	record := func() { states = append(states, modelState(model)) }

	mustExec(t, s, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
	record() // DDL is its own record; table exists but is empty
	for k := int64(0); k < 6; k++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", k, k+1))
		model[k] = k + 1
		record()
	}
	// A materialized view rides along: its derived tables are unlogged,
	// so only the CREATE record itself enters the log.
	mustExec(t, s, "CREATE MATERIALIZED VIEW kv_sum AS SELECT k, SUM(v) AS total FROM kv GROUP BY k")
	record()

	nextKey := int64(100)
	commits := 60
	if testing.Short() {
		commits = 25
	}
	val := int64(1)
	for i := 0; i < commits; i++ {
		switch p := rnd.Intn(100); {
		case p < 35: // autocommit update
			keys := make([]int64, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			if len(keys) == 0 {
				continue
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			k := keys[rnd.Intn(len(keys))]
			mustExec(t, s, fmt.Sprintf("UPDATE kv SET v = %d WHERE k = %d", val, k))
			model[k] = val
			val++
			record()
		case p < 48: // autocommit insert of a fresh key
			mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", nextKey, val))
			model[nextKey] = val
			nextKey++
			val++
			record()
		case p < 55: // autocommit upsert: a live key, a deleted one, or a fresh one
			k := int64(rnd.Intn(int(nextKey-100) + 8))
			if k >= 6 {
				k += 94 // 0..5 are the seeded keys, 100.. the inserted ones
			}
			mustExec(t, s, fmt.Sprintf("INSERT OR REPLACE INTO kv VALUES (%d, %d)", k, val))
			model[k] = val
			if k >= nextKey {
				nextKey = k + 1
			}
			val++
			record()
		case p < 70: // autocommit delete
			keys := make([]int64, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			if len(keys) == 0 {
				continue
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			k := keys[rnd.Intn(len(keys))]
			mustExec(t, s, fmt.Sprintf("DELETE FROM kv WHERE k = %d", k))
			delete(model, k)
			record()
		case p < 95: // explicit multi-statement transaction
			mustExec(t, s, "BEGIN")
			staged := map[int64]int64{}
			n := 2 + rnd.Intn(3)
			for j := 0; j < n; j++ {
				mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", nextKey, val))
				staged[nextKey] = val
				nextKey++
				val++
			}
			if rnd.Intn(4) == 0 {
				mustExec(t, s, "ROLLBACK") // no record, no state change
			} else {
				mustExec(t, s, "COMMIT")
				for k, v := range staged {
					model[k] = v
				}
				record()
			}
		default: // rare truncate
			mustExec(t, s, "TRUNCATE TABLE kv")
			model = map[int64]int64{}
			record()
		}
	}
	finalState := modelState(model)
	s.Close()
	if err := db.Close(); err != nil {
		fail("close: %v", err)
	}

	stateIdx := map[string]int{}
	for j, st := range states {
		if _, ok := stateIdx[st]; !ok {
			stateIdx[st] = j
		}
	}

	// Trial 0 keeps every byte: a clean close must recover the exact
	// final state (every acked commit survives). Later trials truncate.
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		tdir := t.TempDir()
		copyDir(t, dir, tdir)

		var segs []string
		ents, err := os.ReadDir(tdir)
		if err != nil {
			fail("trial %d: %v", trial, err)
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".owl") {
				segs = append(segs, e.Name())
			}
		}
		sort.Strings(segs)
		if trial > 0 && len(segs) > 0 {
			// Crash simulation: choose a point in the log, drop
			// everything after it. Only the chosen segment keeps a
			// (possibly torn) prefix; later segments vanish entirely.
			idx := rnd.Intn(len(segs))
			path := filepath.Join(tdir, segs[idx])
			fi, err := os.Stat(path)
			if err != nil {
				fail("trial %d: %v", trial, err)
			}
			off := rnd.Int63n(fi.Size() + 1)
			if err := os.Truncate(path, off); err != nil {
				fail("trial %d: %v", trial, err)
			}
			for _, later := range segs[idx+1:] {
				os.Remove(filepath.Join(tdir, later))
			}
		}

		db2 := openDurable(t, tdir)
		s2 := db2.NewSession()
		got := kvState(s2)
		j, ok := stateIdx[got]
		if !ok {
			fail("trial %d: recovered state is not any committed prefix:\n got %q", trial, got)
		}
		if trial == 0 && got != finalState {
			fail("clean close lost commits: recovered prefix %d, want final state\n got  %q\n want %q", j, got, finalState)
		}

		// The recovered engine accepts new durable work.
		if got != "NOTABLE" {
			mustExec(t, s2, fmt.Sprintf("INSERT INTO kv VALUES (%d, 424242)", 90000+int64(trial)))
			res := mustExec(t, s2, fmt.Sprintf("SELECT v FROM kv WHERE k = %d", 90000+int64(trial)))
			if len(res.Rows) != 1 || res.Rows[0][0].I != 424242 {
				fail("trial %d: post-recovery insert not visible: %v", trial, res.Rows)
			}
			// If the matview's CREATE record survived, it was rebuilt
			// and must refresh consistently with the base table.
			if _, err := s2.Exec("SELECT k, total FROM kv_sum ORDER BY k"); err == nil {
				mustExec(t, s2, "REFRESH MATERIALIZED VIEW kv_sum")
				mv := mustExec(t, s2, "SELECT k, total FROM kv_sum ORDER BY k")
				base := mustExec(t, s2, "SELECT k, SUM(v) FROM kv GROUP BY k ORDER BY k")
				if len(mv.Rows) != len(base.Rows) {
					fail("trial %d: rebuilt matview diverges: %d vs %d groups\nstate %q\nmv   %v\nbase %v", trial, len(mv.Rows), len(base.Rows), got, mv.Rows, base.Rows)
				}
				for r := range mv.Rows {
					if mv.Rows[r][0].I != base.Rows[r][0].I || mv.Rows[r][1].I != base.Rows[r][1].I {
						fail("trial %d: rebuilt matview row %d diverges: %v vs %v", trial, r, mv.Rows[r], base.Rows[r])
					}
				}
			}
		}
		s2.Close()
		if err := db2.Close(); err != nil {
			fail("trial %d: close: %v", trial, err)
		}
	}
}

// TestRecoveryConcurrentCommitters: several sessions commit INSERT OR
// REPLACE / UPDATE / DELETE transactions on disjoint key ranges of one
// table at once, fast enough that the background version sweep runs many
// times underneath them. Every commit builds its redo record from
// write-log slot numbers while other sessions' dead versions are being
// reclaimed, so a sweep that renumbered slots under a commit would put
// rows into the log that recovery rejects or that differ from what was
// acknowledged. After a clean close, the recovered table must hold
// exactly the last acknowledged value of every key.
func TestRecoveryConcurrentCommitters(t *testing.T) {
	seed, fromEnv := recoverySeed()
	dir := t.TempDir()
	db := openDurable(t, dir)
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
	setup.Close()

	const committers, keysEach = 4, 40
	txns := 1500
	if testing.Short() {
		txns = 300
	}
	models := make([]map[int64]int64, committers)
	errs := make(chan error, committers)
	for c := 0; c < committers; c++ {
		c := c
		models[c] = map[int64]int64{}
		go func() {
			rnd := rand.New(rand.NewSource(seed + int64(c)))
			s := db.NewSession()
			defer s.Close()
			model, val := models[c], int64(1)
			for i := 0; i < txns; i++ {
				staged := map[int64]*int64{} // nil: deleted
				stmts := []string{"BEGIN"}
				for j := 0; j < 8; j++ {
					k := int64(c*1000 + rnd.Intn(keysEach))
					switch p := rnd.Intn(10); {
					case p < 5:
						v := val
						stmts = append(stmts, fmt.Sprintf("INSERT OR REPLACE INTO kv VALUES (%d, %d)", k, v))
						staged[k] = &v
					case p < 8:
						live := false
						if sv, ok := staged[k]; ok {
							live = sv != nil
						} else {
							_, live = model[k]
						}
						stmts = append(stmts, fmt.Sprintf("UPDATE kv SET v = %d WHERE k = %d", val, k))
						if live {
							v := val
							staged[k] = &v
						}
					default:
						stmts = append(stmts, fmt.Sprintf("DELETE FROM kv WHERE k = %d", k))
						staged[k] = nil
					}
					val++
				}
				stmts = append(stmts, "COMMIT")
				for _, sql := range stmts {
					if _, err := s.Exec(sql); err != nil {
						errs <- fmt.Errorf("committer %d: %s: %w", c, sql, err)
						return
					}
				}
				for k, v := range staged {
					if v == nil {
						delete(model, k)
					} else {
						model[k] = *v
					}
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < committers; c++ {
		if err := <-errs; err != nil {
			t.Fatalf("RECOVERY_SEED=%d (from env: %v): %v", seed, fromEnv, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	want := map[int64]int64{}
	for _, m := range models {
		for k, v := range m {
			want[k] = v
		}
	}
	db2 := openDurable(t, dir)
	defer db2.Close()
	s2 := db2.NewSession()
	defer s2.Close()
	if got := kvState(s2); got != modelState(want) {
		t.Fatalf("RECOVERY_SEED=%d (from env: %v): recovered table differs from the acknowledged commits\n got  %s\n want %s",
			seed, fromEnv, got, modelState(want))
	}
}

// TestRecoveryTortureWithCheckpoints is the same crash simulation with
// checkpoints forced mid-workload: recovery must stitch the newest
// checkpoint image together with the log records behind it.
func TestRecoveryTortureWithCheckpoints(t *testing.T) {
	seed, fromEnv := recoverySeed()
	rnd := rand.New(rand.NewSource(seed + 1))
	fail := func(format string, args ...any) {
		t.Fatalf("RECOVERY_SEED=%d (from env: %v): %s", seed, fromEnv, fmt.Sprintf(format, args...))
	}

	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	states := []string{"NOTABLE"}
	model := map[int64]int64{}
	record := func() { states = append(states, modelState(model)) }

	mustExec(t, s, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
	record()
	ckptFloor := 0 // index of the newest state guaranteed by a checkpoint
	for i := int64(0); i < 40; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*7))
		model[i] = i * 7
		record()
		if i%13 == 12 {
			if err := db.Checkpoint(); err != nil {
				fail("checkpoint: %v", err)
			}
			ckptFloor = len(states) - 1
		}
	}
	s.Close()
	if err := db.Close(); err != nil {
		fail("close: %v", err)
	}

	stateIdx := map[string]int{}
	for j, st := range states {
		if _, ok := stateIdx[st]; !ok {
			stateIdx[st] = j
		}
	}
	for trial := 0; trial < 12; trial++ {
		tdir := t.TempDir()
		copyDir(t, dir, tdir)
		ents, _ := os.ReadDir(tdir)
		var segs []string
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".owl") {
				segs = append(segs, e.Name())
			}
		}
		sort.Strings(segs)
		if trial > 0 && len(segs) > 0 {
			idx := rnd.Intn(len(segs))
			path := filepath.Join(tdir, segs[idx])
			fi, err := os.Stat(path)
			if err != nil {
				fail("trial %d: %v", trial, err)
			}
			if err := os.Truncate(path, rnd.Int63n(fi.Size()+1)); err != nil {
				fail("trial %d: %v", trial, err)
			}
			for _, later := range segs[idx+1:] {
				os.Remove(filepath.Join(tdir, later))
			}
		}
		db2 := openDurable(t, tdir)
		s2 := db2.NewSession()
		got := kvState(s2)
		j, ok := stateIdx[got]
		if !ok {
			fail("trial %d: recovered state is not a committed prefix: %q", trial, got)
		}
		// Checkpointed work can never be lost: the log behind the newest
		// checkpoint was only deleted after the snapshot was durable.
		if j < ckptFloor {
			fail("trial %d: recovered prefix %d is older than the checkpoint floor %d", trial, j, ckptFloor)
		}
		if trial == 0 && j != len(states)-1 {
			fail("clean close lost commits: prefix %d of %d", j, len(states)-1)
		}
		s2.Close()
		db2.Close()
	}
}

// TestRecoveredEngineSnapshotIsolation reopens a recovered database and
// runs randomized transaction histories against it, checked by the exact
// snapshot-isolation oracle: recovery must hand back an engine with
// undamaged transactional semantics.
func TestRecoveredEngineSnapshotIsolation(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	o := txntest.Options{Sessions: 3, Keys: 4, Ops: 40}
	for _, stmt := range txntest.SetupSQL(o) {
		mustExec(t, s, stmt)
	}
	mustExec(t, s, "UPDATE kv SET v = 0 WHERE k = 0") // touch the log
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	seed, fromEnv := txntest.Seed()
	histories := 40
	if testing.Short() {
		histories = 10
	}
	for i := 0; i < histories; i++ {
		h := txntest.Generate(rand.New(rand.NewSource(seed+int64(i))), o)
		// Reset the table to the oracle's seeded image between histories.
		rs := db2.NewSession()
		mustExec(t, rs, "TRUNCATE TABLE kv")
		for k := 0; k < o.Keys; k++ {
			mustExec(t, rs, fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", k))
		}
		rs.Close()
		open := func() (txntest.Conn, error) { return recoveredConn{db2.NewSession()}, nil }
		v, err := txntest.RunSequential(open, h, engine.IsSerializationError, o)
		if err != nil {
			t.Fatalf("TXNTEST_SEED=%d (history %d, from env: %v): harness error: %v", seed, i, fromEnv, err)
		}
		if v != nil {
			t.Fatalf("TXNTEST_SEED=%d (history %d): SI violation on recovered engine: %v\n%s",
				seed, i, v, txntest.Format(h))
		}
	}
}

type recoveredConn struct{ s *engine.Session }

func (c recoveredConn) Exec(sql string) ([][]int64, error) {
	res, err := c.s.Exec(sql)
	if err != nil {
		return nil, err
	}
	out := make([][]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		row := make([]int64, len(r))
		for i, v := range r {
			row[i] = v.I
		}
		out = append(out, row)
	}
	return out, nil
}

func (c recoveredConn) Close() error { return c.s.Close() }

// TestRecoveryDDLSurface: every DDL object class round-trips through
// close/reopen — tables with PKs and defaults, secondary indexes, plain
// views, a table created and filled by CREATE TABLE AS SELECT (once: IF
// NOT EXISTS on it is a no-op), and dropped objects staying dropped.
func TestRecoveryDDLSurface(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE a (id INTEGER PRIMARY KEY, name TEXT NOT NULL, n INTEGER)")
	mustExec(t, s, "CREATE INDEX a_n ON a (n)")
	mustExec(t, s, "CREATE TABLE doomed (x INTEGER)")
	mustExec(t, s, "CREATE VIEW big_a AS SELECT id, name FROM a WHERE n > 10")
	mustExec(t, s, "INSERT INTO a VALUES (1, 'one', 5), (2, 'two', 50)")
	mustExec(t, s, "DROP TABLE doomed")
	copyRows := func(s *engine.Session) string {
		return fmt.Sprint(mustExec(t, s, "SELECT id, n FROM a_copy ORDER BY id").Rows)
	}
	if res := mustExec(t, s, "CREATE TABLE a_copy AS SELECT id, n FROM a"); res.RowsAffected != 2 {
		t.Fatalf("CREATE TABLE AS SELECT affected %d rows, want 2", res.RowsAffected)
	}
	wantCopy := copyRows(s)
	mustExec(t, s, "INSERT INTO a VALUES (3, 'three', 7)")
	if res := mustExec(t, s, "CREATE TABLE IF NOT EXISTS a_copy AS SELECT id, n FROM a"); res.RowsAffected != 0 || copyRows(s) != wantCopy {
		t.Fatalf("CREATE TABLE IF NOT EXISTS ... AS SELECT on an existing table: %d rows affected, table now %s, want %s",
			res.RowsAffected, copyRows(s), wantCopy)
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	s2 := db2.NewSession()
	defer s2.Close()
	res := mustExec(t, s2, "SELECT id, name FROM big_a")
	if len(res.Rows) != 1 || res.Rows[0][1].S != "two" {
		t.Fatalf("plain view after recovery = %v", res.Rows)
	}
	if _, err := s2.Exec("SELECT * FROM doomed"); err == nil {
		t.Fatal("dropped table resurrected by recovery")
	}
	if got := copyRows(s2); got != wantCopy {
		t.Fatalf("CREATE TABLE AS SELECT population after recovery = %s, want %s", got, wantCopy)
	}
	// The PK constraint survived (unique index rebuilt).
	if _, err := s2.Exec("INSERT INTO a VALUES (1, 'dup', 0)"); err == nil {
		t.Fatal("primary key not enforced after recovery")
	}
	tbl, err := db2.Catalog().Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Index("a_n"); !ok {
		t.Fatal("secondary index a_n lost in recovery")
	}
}

// TestRecoveryCreateTableAsAtomic: CREATE TABLE AS SELECT is one log
// record, so table and population recover together or not at all. A
// commit that fails or panics leaves no table behind, live or recovered,
// and the statement is refused inside a transaction block, where the
// catalog could neither hide the table until COMMIT nor undo it on
// ROLLBACK.
func TestRecoveryCreateTableAsAtomic(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE a (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, s, "INSERT INTO a VALUES (1, 5), (2, 50)")

	for _, spec := range []string{"error(ctas)", "panic(ctas)"} {
		if err := fault.Activate(fault.EngineCommit, spec); err != nil {
			t.Fatal(err)
		}
		_, err := s.Exec("CREATE TABLE lost AS SELECT id, n FROM a")
		fault.Reset()
		if err == nil {
			t.Fatalf("%s: CREATE TABLE AS SELECT succeeded over a failed commit", spec)
		}
		if db.Catalog().HasTable("lost") {
			t.Fatalf("%s: aborted CREATE TABLE AS SELECT left its table in the catalog", spec)
		}
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO a VALUES (3, 7)")
	if _, err := s.Exec("CREATE TABLE in_txn AS SELECT id, n FROM a"); err == nil || !strings.Contains(err.Error(), "transaction block") {
		t.Fatalf("CREATE TABLE AS SELECT inside BEGIN = %v, want a transaction-block error", err)
	}
	mustExec(t, s, "ROLLBACK")

	records := db.StorageStats().WALRecords
	mustExec(t, s, "CREATE TABLE a_copy AS SELECT id, n FROM a")
	mustExec(t, s, "CREATE TABLE a_none AS SELECT id, n FROM a WHERE n < 0")
	if got := db.StorageStats().WALRecords - records; got != 2 {
		t.Fatalf("two CREATE TABLE AS SELECT wrote %d log records, want one each", got)
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	s2 := db2.NewSession()
	defer s2.Close()
	if got := fmt.Sprint(mustExec(t, s2, "SELECT id, n FROM a_copy ORDER BY id").Rows); got != "[1|5 2|50]" {
		t.Fatalf("CREATE TABLE AS SELECT population after recovery = %s", got)
	}
	if got := len(mustExec(t, s2, "SELECT id FROM a_none").Rows); got != 0 {
		t.Fatalf("empty CREATE TABLE AS SELECT recovered %d rows", got)
	}
	for _, name := range []string{"lost", "in_txn"} {
		if db2.Catalog().HasTable(name) {
			t.Fatalf("table %s, never created, exists after recovery", name)
		}
	}
}

// TestRecoveryUnloggedDerivedState: IVM propagation traffic must not
// grow the log — only base-table commits and the CREATE record appear.
func TestRecoveryUnloggedDerivedState(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	defer db.Close()
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE ev (g TEXT, n INTEGER)")
	mustExec(t, s, "CREATE MATERIALIZED VIEW ev_sum AS SELECT g, SUM(n) AS total FROM ev GROUP BY g")
	mustExec(t, s, "INSERT INTO ev VALUES ('a', 1), ('b', 2)")
	before := db.StorageStats().WALRecords
	mustExec(t, s, "REFRESH MATERIALIZED VIEW ev_sum")
	mustExec(t, s, "SELECT g, total FROM ev_sum ORDER BY g")
	if after := db.StorageStats().WALRecords; after != before {
		t.Fatalf("refresh/select grew the log: %d -> %d records", before, after)
	}
}

// openDurableStore opens a durable OLTP store over dir: the capture
// handler is registered first (recovery re-attaches CREATE TRIGGER ...
// EXECUTE 'ivm_capture' by that name), then the disk backend.
func openDurableStore(t *testing.T, dir string) *oltp.Store {
	t.Helper()
	store := oltp.New("pg")
	b, err := storage.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.DB.AttachBackend(b); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestRecoveryCapturedDeltas: on a durable OLTP store the captured deltas
// are as durable as the writes they describe. After a restart the delta
// table holds exactly the rows captured before it, a drain hands them out
// once, and the capture trigger is still attached — also when the log
// that recorded it has been checkpointed away.
func TestRecoveryCapturedDeltas(t *testing.T) {
	dir := t.TempDir()
	store := openDurableStore(t, dir)
	s := store.DB.NewSession()
	mustExec(t, s, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, amount INTEGER)")
	captureOrders(t, store)
	deltas := func(s *engine.Session) string {
		return fmt.Sprint(mustExec(t, s, "SELECT * FROM delta_orders ORDER BY oid, amount, 3").Rows)
	}
	for _, sql := range []string{
		"INSERT INTO orders VALUES (1, 10), (2, 20)",
		"UPDATE orders SET amount = 11 WHERE oid = 1",
		"BEGIN",
		"INSERT INTO orders VALUES (3, 30)",
		"DELETE FROM orders WHERE oid = 2",
		"COMMIT",
		"BEGIN",
		"INSERT INTO orders VALUES (4, 40)",
		"ROLLBACK",
	} {
		mustExec(t, s, sql)
	}
	want := deltas(s)
	if n := pendingOrders(t, store); n != 6 {
		t.Fatalf("captured %d delta rows before the restart, want 6: %s", n, want)
	}
	s.Close()
	if err := store.DB.Close(); err != nil {
		t.Fatal(err)
	}

	store = openDurableStore(t, dir)
	s = store.DB.NewSession()
	if got := deltas(s); got != want {
		t.Fatalf("delta_orders after recovery:\n got %s\nwant %s", got, want)
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM orders").Rows[0][0].I; got != 2 {
		t.Fatalf("orders after recovery holds %d rows, want 2", got)
	}
	drained, err := s.DrainTable("delta_orders")
	if err != nil || len(drained) != 6 {
		t.Fatalf("drain after recovery returned %d rows (%v), want 6", len(drained), err)
	}
	if again, _ := s.DrainTable("delta_orders"); len(again) != 0 {
		t.Fatalf("second drain returned %d rows again", len(again))
	}
	mustExec(t, s, "INSERT INTO orders VALUES (5, 50)")
	if n := pendingOrders(t, store); n != 1 {
		t.Fatalf("a write after recovery captured %d delta rows, want 1", n)
	}

	// The drain and the trigger survive a checkpoint too.
	if err := store.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := store.DB.Close(); err != nil {
		t.Fatal(err)
	}
	store = openDurableStore(t, dir)
	defer store.DB.Close()
	s = store.DB.NewSession()
	defer s.Close()
	if n := pendingOrders(t, store); n != 1 {
		t.Fatalf("delta_orders holds %d rows after the checkpointed restart, want 1", n)
	}
	mustExec(t, s, "DELETE FROM orders WHERE oid = 5")
	if n := pendingOrders(t, store); n != 2 {
		t.Fatalf("a write after the checkpointed restart left %d delta rows, want 2", n)
	}
}

// TestRecoveryCaptureRidesTheWrite: on a durable OLTP store a captured
// delta is part of the write it describes — one commit record — so wherever
// a crash cuts the log, every recovered version of an orders row has its
// delta_orders rows and every delta row its version: replaying delta_orders
// (nothing drains it) gives exactly the recovered orders table. The log of
// a randomized workload — autocommit and BEGIN … COMMIT writes, rollbacks —
// is cut at evenly spread offsets through every segment.
func TestRecoveryCaptureRidesTheWrite(t *testing.T) {
	seed, fromEnv := recoverySeed()
	rnd := rand.New(rand.NewSource(seed))
	fail := func(format string, args ...any) {
		t.Fatalf("RECOVERY_SEED=%d (from env: %v): %s", seed, fromEnv, fmt.Sprintf(format, args...))
	}
	dir := t.TempDir()
	store := openDurableStore(t, dir)
	s := store.DB.NewSession()
	mustExec(t, s, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, amount INTEGER)")
	captureOrders(t, store)
	next := 0
	write := func() string {
		switch p := rnd.Intn(6); {
		case p < 3 || next == 0:
			next += 2
			return fmt.Sprintf("INSERT INTO orders VALUES (%d, %d), (%d, %d)", next-2, rnd.Intn(100), next-1, rnd.Intn(100))
		case p < 5:
			return fmt.Sprintf("UPDATE orders SET amount = amount + 1 WHERE oid = %d", rnd.Intn(next))
		default:
			return fmt.Sprintf("DELETE FROM orders WHERE oid = %d", rnd.Intn(next))
		}
	}
	for i := 0; i < 40; i++ {
		if rnd.Intn(3) > 0 {
			mustExec(t, s, write())
			continue
		}
		mustExec(t, s, "BEGIN")
		for j := 0; j < 2+rnd.Intn(3); j++ {
			mustExec(t, s, write())
		}
		if rnd.Intn(4) == 0 {
			mustExec(t, s, "ROLLBACK")
		} else {
			mustExec(t, s, "COMMIT")
		}
	}
	s.Close()
	if err := store.DB.Close(); err != nil {
		t.Fatal(err)
	}

	// agree reports where the recovered orders table and the replay of
	// delta_orders differ ("" when they do not).
	agree := func(s *engine.Session) string {
		held := map[string]int{}
		if res, err := s.Exec("SELECT oid, amount FROM orders"); err == nil {
			for _, r := range res.Rows {
				held[r.String()]++
			}
		}
		if res, err := s.Exec("SELECT oid, amount, " + ivm.MultiplicityColumn + " FROM delta_orders"); err == nil {
			for _, r := range res.Rows {
				if r[2].IsTrue() {
					held[r[:2].String()]--
				} else {
					held[r[:2].String()]++
				}
			}
		}
		var diff []string
		for row, n := range held {
			if n != 0 {
				diff = append(diff, fmt.Sprintf("%s:%+d", row, n))
			}
		}
		sort.Strings(diff)
		return strings.Join(diff, " ")
	}

	var segs []string
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".owl") {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	const cuts = 48
	for idx, seg := range segs {
		fi, err := os.Stat(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c <= cuts; c++ {
			off := fi.Size() * int64(c) / cuts
			if c > 0 && c < cuts {
				off += rnd.Int63n(fi.Size()/cuts + 1)
			}
			tdir := t.TempDir()
			copyDir(t, dir, tdir)
			if err := os.Truncate(filepath.Join(tdir, seg), off); err != nil {
				t.Fatal(err)
			}
			for _, later := range segs[idx+1:] {
				os.Remove(filepath.Join(tdir, later))
			}
			store := openDurableStore(t, tdir)
			s := store.DB.NewSession()
			if diff := agree(s); diff != "" {
				fail("log %s cut at byte %d of %d: orders and the replay of delta_orders differ by (row:count) %s", seg, off, fi.Size(), diff)
			}
			s.Close()
			if err := store.DB.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRecoveryUnknownTriggerHandler: a logged trigger whose handler the
// reopened process did not register is a recovery error that names it,
// not a store that has silently stopped capturing.
func TestRecoveryUnknownTriggerHandler(t *testing.T) {
	dir := t.TempDir()
	store := openDurableStore(t, dir)
	if _, err := store.DB.Exec("CREATE TABLE orders (oid INTEGER PRIMARY KEY, amount INTEGER)"); err != nil {
		t.Fatal(err)
	}
	captureOrders(t, store)
	if err := store.DB.Close(); err != nil {
		t.Fatal(err)
	}
	db := engine.Open("plain", engine.DialectPostgres) // no ivm_capture handler
	b, err := storage.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	err = db.AttachBackend(b)
	if err == nil || !strings.Contains(err.Error(), "ivm_capture") || engine.Code(err) != "XX001" {
		t.Fatalf("AttachBackend = %v (code %q), want a recovery error naming the handler", err, engine.Code(err))
	}
}
