package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"openivm/internal/enginerr"
	"openivm/internal/sqltypes"
)

// TestUpsertMatchesOracle replays random INSERT OR REPLACE and INSERT … ON
// CONFLICT statements against a Go map: a DO UPDATE SET that reads both the
// existing row and EXCLUDED, DO NOTHING, and keys repeated within one
// statement, which apply in order. It runs on the quiescent in-place path
// (autocommit, nobody else looking) and on the versioned one (inside a
// transaction; beside another session's open snapshot, which must go on
// reading the table as it was when the snapshot began).
func TestUpsertMatchesOracle(t *testing.T) {
	for _, path := range []string{"quiescent", "in_txn", "beside_snapshot"} {
		t.Run(path, func(t *testing.T) {
			db := Open("upsert", DialectPostgres)
			mustExec(t, db, "CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER, b VARCHAR)")
			s := db.NewSession()
			defer s.Close()
			exec := func(sql string) *Result {
				t.Helper()
				res, err := s.Exec(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				return res
			}
			var reader *Session
			switch path {
			case "in_txn":
				exec("BEGIN")
			case "beside_snapshot":
				reader = db.NewSession()
				defer reader.Close()
				for _, sql := range []string{"BEGIN", "SELECT * FROM t"} {
					if _, err := reader.Exec(sql); err != nil {
						t.Fatal(err)
					}
				}
			}

			type row struct {
				a int64
				b string
			}
			model := map[int64]row{}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 300; i++ {
				var vals []string
				var rows []sqltypes.Row
				for n := 1 + rng.Intn(4); n > 0; n-- {
					k, a, b := int64(rng.Intn(8)), int64(rng.Intn(100)), fmt.Sprint("s", i, "_", n)
					vals = append(vals, fmt.Sprintf("(%d, %d, '%s')", k, a, b))
					rows = append(rows, sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewInt(a), sqltypes.NewString(b)})
				}
				sql := "INSERT INTO t VALUES " + strings.Join(vals, ", ")
				kind := rng.Intn(3)
				switch kind {
				case 0:
					sql = "INSERT OR REPLACE INTO t VALUES " + strings.Join(vals, ", ")
				case 1:
					sql += " ON CONFLICT (k) DO UPDATE SET a = t.a - EXCLUDED.a, b = CASE WHEN t.a > EXCLUDED.a THEN t.b ELSE EXCLUDED.b END"
				case 2:
					sql += " ON CONFLICT (k) DO NOTHING"
				}
				affected := 0
				for _, r := range rows {
					k, in := r[0].I, row{r[1].I, r[2].S}
					old, taken := model[k]
					switch {
					case !taken || kind == 0:
						model[k] = in
					case kind == 1:
						b := in.b
						if old.a > in.a {
							b = old.b
						}
						model[k] = row{old.a - in.a, b}
					default:
						continue
					}
					affected++
				}
				if got := exec(sql).RowsAffected; got != affected {
					t.Fatalf("%s: %d rows affected, want %d", sql, got, affected)
				}
				keys := make([]int64, 0, len(model))
				for k := range model {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				var want []string
				for _, k := range keys {
					want = append(want, fmt.Sprintf("%d|%d|%s", k, model[k].a, model[k].b))
				}
				if got := sortedStrings(exec("SELECT k, a, b FROM t ORDER BY k").Rows); !slices.Equal(got, want) {
					t.Fatalf("after %s:\n got %q\nwant %q", sql, got, want)
				}
				if path == "in_txn" && i%50 == 49 {
					exec("COMMIT")
					exec("BEGIN")
				}
			}
			if reader != nil {
				res, err := reader.Exec("SELECT * FROM t")
				if err != nil || len(res.Rows) != 0 {
					t.Fatalf("a snapshot older than every upsert reads %v, %v", res, err)
				}
			}
		})
	}
}

// TestOnConflictTarget: the conflict target is the primary key, named in
// any order, or left out; any other column list is refused with SQLSTATE
// 42P10 and an unknown column with 42703, as PostgreSQL refuses them.
// DO UPDATE cannot move a row to another key; a refused statement keeps
// nothing. A SET that reads the table it writes through a subquery runs it
// before the upsert locks the table, so it does not wait on itself.
func TestOnConflictTarget(t *testing.T) {
	db := Open("target", DialectPostgres)
	mustExec(t, db, "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "CREATE TABLE c (x INTEGER, y VARCHAR, v INTEGER, PRIMARY KEY (x, y))")
	mustExec(t, db, "CREATE TABLE n (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10)")
	mustExec(t, db, "INSERT INTO c VALUES (1, 'a', 10)")
	for _, c := range []struct{ sql, code string }{
		{"INSERT INTO t VALUES (1, 5) ON CONFLICT (v) DO UPDATE SET v = 0", enginerr.CodeInvalidColumnReference},
		{"INSERT INTO t VALUES (1, 5) ON CONFLICT (k, v) DO NOTHING", enginerr.CodeInvalidColumnReference},
		{"INSERT INTO t VALUES (1, 5) ON CONFLICT (nosuch) DO NOTHING", enginerr.CodeUndefinedColumn},
		{"INSERT INTO t VALUES (1, 5) ON CONFLICT (k) DO UPDATE SET nosuch = 1", enginerr.CodeUndefinedColumn},
		{"INSERT INTO t VALUES (1, 5) ON CONFLICT (k) DO UPDATE SET k = 2", enginerr.CodeFeatureNotSupported},
		{"INSERT INTO c VALUES (1, 'a', 5) ON CONFLICT (x) DO UPDATE SET v = 0", enginerr.CodeInvalidColumnReference},
		{"INSERT INTO n VALUES (1) ON CONFLICT (a) DO NOTHING", enginerr.CodeInvalidColumnReference},
		{"INSERT INTO n VALUES (1) ON CONFLICT DO UPDATE SET a = 2", enginerr.CodeInvalidColumnReference},
	} {
		if _, err := db.Exec(c.sql); enginerr.CodeOf(err) != c.code {
			t.Errorf("%s: err %v (SQLSTATE %s), want SQLSTATE %s", c.sql, err, enginerr.CodeOf(err), c.code)
		}
	}
	mustExec(t, db, "INSERT INTO t VALUES (1, 5), (2, 7) ON CONFLICT DO UPDATE SET v = t.v + EXCLUDED.v")
	mustExec(t, db, "INSERT INTO c VALUES (1, 'a', 5) ON CONFLICT (y, x) DO UPDATE SET v = c.v + EXCLUDED.v")
	mustExec(t, db, "INSERT INTO n VALUES (1) ON CONFLICT DO NOTHING")
	mustExec(t, db, "INSERT INTO t VALUES (2, 1) ON CONFLICT (k) DO UPDATE SET v = (SELECT MAX(v) FROM t) + EXCLUDED.v")
	for table, want := range map[string]string{"t": "1|15 2|16", "c": "1|a|15", "n": "1"} {
		rows := sortedStrings(queryRows(t, db, "SELECT * FROM "+table))
		slices.Sort(rows)
		if got := strings.Join(rows, " "); got != want {
			t.Errorf("%s reads %q, want %q", table, got, want)
		}
	}
}

// TestUpsertBesideFailingTrigger: an upsert into a table whose named
// triggers will fire writes row versions, not rows in place, so a snapshot
// taken while a handler runs — which then fails, and the statement with
// it — never sees the statement's rows.
func TestUpsertBesideFailingTrigger(t *testing.T) {
	db := Open("trig", DialectPostgres)
	mustExec(t, db, "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10)")
	var seen []string
	db.RegisterTriggerHandler("peek", func(*Session, string, TriggerEvent, []sqltypes.Row, []sqltypes.Row) error {
		r := db.NewSession()
		defer r.Close()
		res, err := r.Exec("SELECT k, v FROM t")
		if err != nil {
			return err
		}
		seen = append(seen, strings.Join(sortedStrings(res.Rows), " "))
		return errors.New("handler fails")
	})
	mustExec(t, db, "CREATE TRIGGER peek AFTER INSERT OR UPDATE ON t FOR EACH ROW EXECUTE 'peek'")
	for _, sql := range []string{
		"INSERT OR REPLACE INTO t VALUES (1, 20), (2, 30)",
		"INSERT INTO t VALUES (1, 5), (3, 1) ON CONFLICT (k) DO UPDATE SET v = t.v + EXCLUDED.v",
	} {
		seen = nil
		if _, err := db.Exec(sql); err == nil {
			t.Fatalf("%s: the failing handler did not fail it", sql)
		}
		if len(seen) != 1 || seen[0] != "1|10" {
			t.Errorf("%s: a snapshot beside its handler read %q, want the table before it", sql, seen)
		}
		if got := strings.Join(sortedStrings(queryRows(t, db, "SELECT k, v FROM t")), " "); got != "1|10" {
			t.Errorf("%s: the aborted statement left %q", sql, got)
		}
	}
}
