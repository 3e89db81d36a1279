package engine_test

import (
	"strings"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/enginerr"
	"openivm/internal/fault"
	"openivm/internal/ivmext"
	"openivm/internal/storage"
)

// TestDegradedModeLifecycle walks the full degradation story: a sticky
// WAL failure flips the engine to read-only, writes fail fast with
// SQLSTATE 58030 while reads and stats keep serving, and re-attaching a
// fresh empty backend restores write service with the in-memory state
// reseeded durably.
func TestDegradedModeLifecycle(t *testing.T) {
	defer fault.Reset()
	dir1 := t.TempDir()
	db := openDurable(t, dir1)
	defer db.Close()
	s := db.NewSession()
	defer s.Close()

	mustExec(t, s, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10), (2, 20)")

	// Kill the disk: the next commit's fsync fails and the engine degrades.
	if err := fault.Activate(fault.WALFsync, "error(disk died)"); err != nil {
		t.Fatal(err)
	}
	_, err := s.Exec("INSERT INTO kv VALUES (3, 30)")
	if err == nil {
		t.Fatal("insert on a dead disk succeeded")
	}
	if code := enginerr.CodeOf(err); code != enginerr.CodeIOFailure {
		t.Fatalf("insert error code = %q, want %q (err: %v)", code, enginerr.CodeIOFailure, err)
	}
	if !db.Degraded() {
		t.Fatal("engine did not enter degraded mode after a WAL fsync failure")
	}
	if db.DegradedReason() == nil {
		t.Fatal("degraded mode has no recorded reason")
	}

	// The failpoint is gone, but the backend's sticky flushErr — and the
	// engine's degraded flag — keep writes failing fast.
	fault.Reset()
	if _, err := s.Exec("INSERT INTO kv VALUES (4, 40)"); enginerr.CodeOf(err) != enginerr.CodeIOFailure {
		t.Fatalf("degraded write not rejected with 58030: %v", err)
	}
	if _, err := s.Exec("CREATE TABLE other (x INTEGER)"); enginerr.CodeOf(err) != enginerr.CodeIOFailure {
		t.Fatalf("degraded DDL not rejected with 58030: %v", err)
	}

	// Reads and stats still serve from the authoritative in-memory state.
	// That state INCLUDES the statement that observed the failure: the
	// MVCC commit published before the fsync failed, so its outcome was
	// indeterminate from the client's view — exactly like an erroring
	// COMMIT — and the engine keeps the committed version.
	res := mustExec(t, s, "SELECT count(*) FROM kv")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("degraded read count = %d, want 3", res.Rows[0][0].I)
	}
	_ = db.StorageStats() // must not panic or block

	// Operator intervention: re-attach a fresh, empty backend.
	dir2 := t.TempDir()
	b2, err := storage.OpenDisk(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachBackend(b2); err != nil {
		t.Fatalf("degraded re-attach: %v", err)
	}
	if db.Degraded() {
		t.Fatal("engine still degraded after a successful re-attach")
	}
	mustExec(t, s, "INSERT INTO kv VALUES (5, 50)")

	// The replacement directory carries the reseeded state: a fresh
	// engine recovering it sees everything.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDurable(t, dir2)
	defer db2.Close()
	s2 := db2.NewSession()
	defer s2.Close()
	if got := kvState(s2); got != "1=10;2=20;3=30;5=50;" {
		t.Fatalf("recovered state after re-attach = %q, want %q", got, "1=10;2=20;3=30;5=50;")
	}
}

// TestDegradedReattachRefusesNonEmpty: the in-memory state is
// authoritative after degradation, so a replacement backend that
// already holds durable state must be refused — silently merging two
// histories would fork the database.
func TestDegradedReattachRefusesNonEmpty(t *testing.T) {
	defer fault.Reset()

	// A populated directory to offer as the (bogus) replacement.
	popDir := t.TempDir()
	pop := openDurable(t, popDir)
	ps := pop.NewSession()
	mustExec(t, ps, "CREATE TABLE junk (x INTEGER)")
	ps.Close()
	if err := pop.Close(); err != nil {
		t.Fatal(err)
	}

	db := openDurable(t, t.TempDir())
	defer db.Close()
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")

	if err := fault.Activate(fault.WALFsync, "enospc"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO kv VALUES (1, 1)"); err == nil {
		t.Fatal("insert with injected ENOSPC succeeded")
	}
	fault.Reset()
	if !db.Degraded() {
		t.Fatal("engine not degraded")
	}

	b, err := storage.OpenDisk(popDir)
	if err != nil {
		t.Fatal(err)
	}
	err = db.AttachBackend(b)
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("re-attach with a non-empty directory = %v, want empty-directory refusal", err)
	}
	if !db.Degraded() {
		t.Fatal("failed re-attach must leave the engine degraded")
	}
	b.Close()
}

// TestPanicIsolationAutocommit: a panic on the commit path of an
// autocommit statement becomes a SQLSTATE XX000 error, the statement's
// transaction is aborted, and the session keeps serving.
func TestPanicIsolationAutocommit(t *testing.T) {
	defer fault.Reset()
	db := engine.Open("panic-auto", engine.DialectDuckDB)
	ivmext.Install(db)
	defer db.Close()
	s := db.NewSession()
	defer s.Close()

	mustExec(t, s, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10)")

	if err := fault.Activate(fault.EngineCommit, "panic(boom)"); err != nil {
		t.Fatal(err)
	}
	_, err := s.Exec("INSERT INTO kv VALUES (2, 20)")
	fault.Reset()
	if err == nil {
		t.Fatal("statement with injected panic succeeded")
	}
	if code := enginerr.CodeOf(err); code != enginerr.CodeInternal {
		t.Fatalf("panic error code = %q, want %q (err: %v)", code, enginerr.CodeInternal, err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic value lost from the error: %v", err)
	}
	if db.Metrics().Snapshot()["server.panicsRecovered"] == 0 {
		t.Fatal("server.panicsRecovered did not count the recovered panic")
	}

	// The panicking statement's write was aborted; the session survives.
	if got := kvState(s); got != "1=10;" {
		t.Fatalf("state after recovered panic = %q, want %q", got, "1=10;")
	}
	mustExec(t, s, "INSERT INTO kv VALUES (3, 30)")
	if got := kvState(s); got != "1=10;3=30;" {
		t.Fatalf("state after follow-up insert = %q, want %q", got, "1=10;3=30;")
	}
}

// TestPanicIsolationExplicitTxn: a panic while committing an explicit
// transaction aborts the WHOLE transaction (partial application would
// otherwise survive) and leaves the session outside any transaction.
func TestPanicIsolationExplicitTxn(t *testing.T) {
	defer fault.Reset()
	db := engine.Open("panic-txn", engine.DialectDuckDB)
	ivmext.Install(db)
	defer db.Close()
	s := db.NewSession()
	defer s.Close()

	mustExec(t, s, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10)")
	mustExec(t, s, "INSERT INTO kv VALUES (2, 20)")

	if err := fault.Activate(fault.EngineCommit, "panic(commit panic)"); err != nil {
		t.Fatal(err)
	}
	_, err := s.Exec("COMMIT")
	fault.Reset()
	if code := enginerr.CodeOf(err); code != enginerr.CodeInternal {
		t.Fatalf("COMMIT panic error code = %q, want %q (err: %v)", code, enginerr.CodeInternal, err)
	}

	// The transaction is gone: COMMIT reports no transaction, and none of
	// its writes are visible.
	if _, err := s.Exec("COMMIT"); err == nil || !strings.Contains(err.Error(), "no transaction") {
		t.Fatalf("second COMMIT after recovered panic = %v, want no-transaction error", err)
	}
	if got := kvState(s); got != "" {
		t.Fatalf("state after aborted transaction = %q, want empty", got)
	}
	mustExec(t, s, "INSERT INTO kv VALUES (9, 90)")
	if got := kvState(s); got != "9=90;" {
		t.Fatalf("state after follow-up insert = %q, want %q", got, "9=90;")
	}
}

// TestDegradedReattachRequiresDurable: degraded re-attach with a
// non-durable backend is refused outright.
func TestDegradedReattachRequiresDurable(t *testing.T) {
	defer fault.Reset()
	db := openDurable(t, t.TempDir())
	defer db.Close()
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
	if err := fault.Activate(fault.WALWrite, "error(dead)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO kv VALUES (1, 1)"); err == nil {
		t.Fatal("insert with injected write failure succeeded")
	}
	fault.Reset()
	if !db.Degraded() {
		t.Fatal("engine not degraded")
	}
	if err := db.AttachBackend(storage.MemBackend{}); err == nil {
		t.Fatal("degraded re-attach accepted a non-durable backend")
	}
}
