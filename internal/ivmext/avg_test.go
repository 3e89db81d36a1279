package ivmext

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"openivm/internal/engine"
)

// Tests for AVG decomposition: the paper notes AVG is not directly
// maintainable; the compiler decomposes it into hidden SUM and COUNT
// storage columns and exposes the declared schema through a plain view.

func TestAvgViewBasics(t *testing.T) {
	db, ext := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 10), ('a', 20), ('b', 5)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW avgs AS SELECT group_index,
		AVG(group_value) AS mean, COUNT(*) AS n FROM groups GROUP BY group_index`)

	// The storage table and the exposed view both exist.
	if !db.Catalog().HasTable("avgs_ivm_storage") {
		t.Fatal("storage table missing")
	}
	if _, ok := db.Catalog().View("avgs"); !ok {
		t.Fatal("exposed view missing")
	}
	comp, _ := ext.Compilation("avgs")
	if comp.Storage != "avgs_ivm_storage" {
		t.Fatalf("compilation = %+v", comp)
	}

	rows := mustExec(t, db, "SELECT group_index, mean, n FROM avgs ORDER BY group_index").Rows
	if len(rows) != 2 || rows[0][1].Float() != 15 || rows[1][1].Float() != 5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAvgIncrementalMaintenance(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 10)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW avgs AS SELECT group_index,
		AVG(group_value) AS mean FROM groups GROUP BY group_index`)

	mustExec(t, db, "INSERT INTO groups VALUES ('a', 30), ('b', 7)")
	rows := mustExec(t, db, "SELECT group_index, mean FROM avgs ORDER BY group_index").Rows
	if rows[0][1].Float() != 20 || rows[1][1].Float() != 7 {
		t.Fatalf("rows = %v", rows)
	}

	mustExec(t, db, "DELETE FROM groups WHERE group_value = 10")
	rows = mustExec(t, db, "SELECT group_index, mean FROM avgs ORDER BY group_index").Rows
	if len(rows) != 2 || rows[0][1].Float() != 30 {
		t.Fatalf("after delete: %v", rows)
	}

	// Emptying a group removes it.
	mustExec(t, db, "DELETE FROM groups WHERE group_index = 'b'")
	rows = mustExec(t, db, "SELECT group_index FROM avgs").Rows
	if len(rows) != 1 {
		t.Fatalf("emptied group remains: %v", rows)
	}
}

func TestAvgPropertyWorkload(t *testing.T) {
	db := propertyDB(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW va AS SELECT k,
		AVG(v) AS mean, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k`)
	rng := rand.New(rand.NewSource(77))
	keys := []string{"a", "b", "c", "d"}
	for i := 0; i < 150; i++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(6) {
		case 0, 1, 2, 3:
			mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES ('%s', %d)", k, rng.Intn(100)))
		case 4:
			mustExec(t, db, fmt.Sprintf("DELETE FROM t WHERE k = '%s' AND v < %d", k, rng.Intn(50)))
		case 5:
			mustExec(t, db, fmt.Sprintf("UPDATE t SET v = v + 1 WHERE k = '%s'", k))
		}
		if rng.Intn(9) == 0 {
			compareAvg(t, db, i)
		}
	}
	compareAvg(t, db, 150)
}

func compareAvg(t *testing.T, db *engine.DB, step int) {
	t.Helper()
	got := mustExec(t, db, "SELECT k, mean, s, n FROM va ORDER BY k").Rows
	want := mustExec(t, db, "SELECT k, AVG(v), SUM(v), COUNT(*) FROM t GROUP BY k ORDER BY k").Rows
	if len(got) != len(want) {
		t.Fatalf("step %d: %d vs %d groups", step, len(got), len(want))
	}
	for i := range got {
		if got[i][0].S != want[i][0].S || got[i][2].I != want[i][2].I || got[i][3].I != want[i][3].I {
			t.Fatalf("step %d row %d: got %v want %v", step, i, got[i], want[i])
		}
		if math.Abs(got[i][1].AsFloat()-want[i][1].AsFloat()) > 1e-9 {
			t.Fatalf("step %d row %d: avg %v vs %v", step, i, got[i][1], want[i][1])
		}
	}
}

func TestAvgJoinAggregate(t *testing.T) {
	db := engine.Open("avg", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE c (cid INTEGER, region VARCHAR)")
	mustExec(t, db, "CREATE TABLE o (oid INTEGER, cid INTEGER, amt INTEGER)")
	mustExec(t, db, "INSERT INTO c VALUES (1, 'eu'), (2, 'us')")
	mustExec(t, db, "INSERT INTO o VALUES (10, 1, 100), (11, 1, 200), (12, 2, 50)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW ra AS SELECT c.region,
		AVG(o.amt) AS mean, COUNT(*) AS n FROM o JOIN c ON o.cid = c.cid GROUP BY c.region`)
	mustExec(t, db, "INSERT INTO o VALUES (13, 2, 150)")
	rows := mustExec(t, db, "SELECT region, mean, n FROM ra ORDER BY region").Rows
	if len(rows) != 2 || rows[0][1].Float() != 150 || rows[1][1].Float() != 100 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAvgDropCleansUp(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW avgs AS SELECT group_index,
		AVG(group_value) AS mean FROM groups GROUP BY group_index`)
	mustExec(t, db, "DROP VIEW avgs")
	if db.Catalog().HasTable("avgs_ivm_storage") {
		t.Error("storage table not dropped")
	}
	if _, ok := db.Catalog().View("avgs"); ok {
		t.Error("exposed view not dropped")
	}
}

func TestAvgScriptsMentionDecomposition(t *testing.T) {
	db, ext := setup(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW avgs AS SELECT group_index,
		AVG(group_value) AS mean FROM groups GROUP BY group_index`)
	setupSQL, prop, err := ext.Scripts("avgs")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mean_ivm_sum", "mean_ivm_cnt"} {
		if !strings.Contains(setupSQL, want) || !strings.Contains(prop, want) {
			t.Errorf("decomposed columns missing from scripts:\n%s", setupSQL)
		}
	}
	if want := "CREATE VIEW avgs AS SELECT group_index, CASE WHEN mean_ivm_cnt = 0 THEN NULL ELSE CAST(mean_ivm_sum AS DOUBLE PRECISION) / mean_ivm_cnt END AS mean FROM avgs_ivm_storage;"; !strings.Contains(setupSQL, want) {
		t.Errorf("setup does not expose the view as %q:\n%s", want, setupSQL)
	}
}
