package ivm

import (
	"fmt"
	"strings"
	"testing"

	"openivm/internal/duckast"
	"openivm/internal/engine"
	"openivm/internal/expr"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// newDB builds an engine preloaded with the paper's Listing 1 schema.
func newDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.Open("compile", engine.DialectDuckDB)
	if _, err := db.Exec("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)"); err != nil {
		t.Fatal(err)
	}
	return db
}

func compile(t *testing.T, db *engine.DB, sql string) *Compilation {
	t.Helper()
	comp, err := NewCompiler(db, DefaultOptions()).CompileSQL(sql)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return comp
}

const listing1View = `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
	SUM(group_value) AS total_value FROM groups GROUP BY group_index`

// TestListing2Golden pins the compiler output for the paper's Listing 1
// input. The shape follows Listing 2: the signed delta folded into the
// view by an upsert; deletion of emptied rows; delta truncation. Seven places
// differ from Listing 2 as printed. It fills a table ΔV (delta_query_groups)
// with ΔT grouped by (key, multiplicity) for the next two steps to read
// back, where the upsert's SELECT groups ΔT itself and step 3 reads its
// keys from ΔT, so there is no ΔV to create or empty. It LEFT JOINs a CTE
// of the signed totals to the view and INSERT OR REPLACEs the combined
// rows, which finds each group's row twice (once in the join,
// once in the upsert), where we insert the grouped delta itself, with no
// CTE, and fold a group the view holds through ON CONFLICT DO UPDATE, whose
// key probe is the only one — and which also finds a NULL group key, where
// the join's `=` never matches one. Its step 3 deletes a group whose SUM is
// 0, which drops a group whose values net to 0 but still has rows, where we
// keep a hidden row count in the storage table, behind a plain view of the
// declared columns, and delete a group when it reaches 0. Step 3 names the
// keys ΔT retracts a row of — the only groups whose count can have reached
// zero — so it finds those rows through the key index. The storage is
// keyed UNIQUE NULLS NOT DISTINCT, not by a PRIMARY KEY, which DuckDB and
// PostgreSQL make NOT NULL: it holds the NULL group. And the SUM is stored
// with the count of its non-NULL arguments, which the plain view reads as
// NULL when it is 0, as the query does, where Listing 2's COALESCE reads 0.
// ΔT is read under the base's name (delta_groups AS groups), so a column
// the view qualifies by it binds.
func TestListing2Golden(t *testing.T) {
	db := newDB(t)
	comp := compile(t, db, listing1View)

	wantSetup := strings.TrimSpace(`
CREATE TABLE IF NOT EXISTS delta_groups (group_index VARCHAR, group_value BIGINT, _duckdb_ivm_multiplicity BOOLEAN);
CREATE TABLE IF NOT EXISTS query_groups_ivm_storage (group_index VARCHAR, total_value_ivm_sum BIGINT, total_value_ivm_cnt BIGINT, _duckdb_ivm_count BIGINT, UNIQUE NULLS NOT DISTINCT (group_index));
CREATE VIEW query_groups AS SELECT group_index, CASE WHEN total_value_ivm_cnt = 0 THEN NULL ELSE total_value_ivm_sum END AS total_value FROM query_groups_ivm_storage;
`)
	if got := strings.TrimSpace(comp.SetupSQL()); got != wantSetup {
		t.Errorf("setup SQL:\n got:\n%s\nwant:\n%s", got, wantSetup)
	}

	wantProp := strings.TrimSpace(`
INSERT INTO query_groups_ivm_storage (group_index, total_value_ivm_sum, total_value_ivm_cnt, _duckdb_ivm_count) SELECT group_index AS group_index, SUM(CASE WHEN _duckdb_ivm_multiplicity = FALSE THEN -group_value ELSE group_value END) AS total_value_ivm_sum, SUM(CASE WHEN group_value IS NULL THEN 0 WHEN _duckdb_ivm_multiplicity = FALSE THEN -1 ELSE 1 END) AS total_value_ivm_cnt, SUM(CASE WHEN _duckdb_ivm_multiplicity = FALSE THEN -1 ELSE 1 END) AS _duckdb_ivm_count FROM delta_groups AS groups GROUP BY group_index ON CONFLICT (group_index) DO UPDATE SET total_value_ivm_sum = COALESCE(query_groups_ivm_storage.total_value_ivm_sum, 0) + COALESCE(EXCLUDED.total_value_ivm_sum, 0), total_value_ivm_cnt = query_groups_ivm_storage.total_value_ivm_cnt + EXCLUDED.total_value_ivm_cnt, _duckdb_ivm_count = query_groups_ivm_storage._duckdb_ivm_count + EXCLUDED._duckdb_ivm_count;
DELETE FROM query_groups_ivm_storage USING (SELECT group_index AS group_index FROM delta_groups AS groups WHERE _duckdb_ivm_multiplicity = FALSE) AS ivm_del WHERE query_groups_ivm_storage.group_index IS NOT DISTINCT FROM ivm_del.group_index AND _duckdb_ivm_count = 0;
DELETE FROM delta_groups;
`)
	if got := strings.TrimSpace(comp.PropagateSQL()); got != wantProp {
		t.Errorf("propagate SQL:\n got:\n%s\nwant:\n%s", got, wantProp)
	}

	wantPopulate := strings.TrimSpace(`
INSERT INTO query_groups_ivm_storage SELECT group_index AS group_index, SUM(group_value) AS total_value_ivm_sum, COUNT(group_value) AS total_value_ivm_cnt, COUNT(*) AS _duckdb_ivm_count FROM groups GROUP BY group_index;
`)
	if got := strings.TrimSpace(comp.PopulateSQLText()); got != wantPopulate {
		t.Errorf("populate SQL:\n got:\n%s\nwant:\n%s", got, wantPopulate)
	}
}

const step3Listing1 = "DELETE FROM query_groups_ivm_storage USING (SELECT group_index AS group_index FROM delta_groups AS groups WHERE _duckdb_ivm_multiplicity = FALSE) AS ivm_del WHERE query_groups_ivm_storage.group_index IS NOT DISTINCT FROM ivm_del.group_index AND _duckdb_ivm_count = 0"

// TestListing2PostgresDialect: Listing 2's script is one text, the one
// PostgreSQL runs (TestPostgresOracle runs it there): step 2's ON
// CONFLICT … DO UPDATE is both PostgreSQL's and DuckDB's spelling, there is
// no INSERT OR REPLACE, and the setup spells the engine's 64-bit INTEGER
// as BIGINT.
func TestListing2PostgresDialect(t *testing.T) {
	db := newDB(t)
	comp := compile(t, db, listing1View)
	prop := comp.PropagateSQL()
	if !strings.Contains(prop, "ON CONFLICT (group_index) DO UPDATE SET total_value_ivm_sum = COALESCE(query_groups_ivm_storage.total_value_ivm_sum, 0) + COALESCE(EXCLUDED.total_value_ivm_sum, 0)") {
		t.Errorf("upsert missing:\n%s", prop)
	}
	if strings.Contains(prop, "INSERT OR REPLACE") {
		t.Errorf("script holds INSERT OR REPLACE, which PostgreSQL lacks:\n%s", prop)
	}
	if !strings.Contains(prop, step3Listing1+";") {
		t.Errorf("step 3 is not the keyed delete:\n%s", prop)
	}
	setup := comp.SetupSQL()
	if !strings.Contains(setup, "total_value_ivm_sum BIGINT") {
		t.Errorf("setup does not spell INTEGER as BIGINT:\n%s", setup)
	}
}

func TestClassification(t *testing.T) {
	db := engine.Open("cls", engine.DialectDuckDB)
	for _, ddl := range []string{
		"CREATE TABLE t (a VARCHAR, b INTEGER)",
		"CREATE TABLE u (a VARCHAR, c INTEGER)",
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		sql  string
		want QueryClass
	}{
		{"CREATE MATERIALIZED VIEW v1 AS SELECT a, b FROM t", ClassProjection},
		{"CREATE MATERIALIZED VIEW v2 AS SELECT a FROM t WHERE b > 0", ClassProjection},
		{"CREATE MATERIALIZED VIEW v3 AS SELECT a, SUM(b) AS s FROM t GROUP BY a", ClassAggregate},
		{"CREATE MATERIALIZED VIEW v4 AS SELECT t.a, t.b, u.c FROM t JOIN u ON t.a = u.a", ClassJoin},
		{"CREATE MATERIALIZED VIEW v5 AS SELECT t.a, SUM(u.c) AS s FROM t JOIN u ON t.a = u.a GROUP BY t.a", ClassJoinAggregate},
	}
	for _, c := range cases {
		comp, err := NewCompiler(db, DefaultOptions()).CompileSQL(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if comp.Class != c.want {
			t.Errorf("%q: class = %v, want %v", c.sql, comp.Class, c.want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if ClassProjection.String() != "projection" || ClassJoinAggregate.String() != "join_aggregate" {
		t.Error("class names")
	}
}

// TestHiddenCountSetup: a view that declares no COUNT(*) keeps the hidden
// one in its storage table, beside its SUM's sum and non-NULL count, and
// exposes only its declared columns under its own name.
func TestHiddenCountSetup(t *testing.T) {
	db := newDB(t)
	comp := compile(t, db, listing1View)
	setup := comp.SetupSQL()
	for _, want := range []string{
		"CREATE TABLE IF NOT EXISTS query_groups_ivm_storage (group_index VARCHAR, total_value_ivm_sum BIGINT, total_value_ivm_cnt BIGINT, " + HiddenCountColumn + " BIGINT,",
		"CREATE VIEW query_groups AS SELECT group_index, CASE WHEN total_value_ivm_cnt = 0 THEN NULL ELSE total_value_ivm_sum END AS total_value FROM query_groups_ivm_storage;",
	} {
		if !strings.Contains(setup, want) {
			t.Errorf("setup lacks %q:\n%s", want, setup)
		}
	}
}

// TestStep3Golden pins step 3 for every shape of group key: one keyed form
// for every view class, DELETE … USING the keys of the retractions in ΔT
// or in the join delta, matched NULL-safely. A view without GROUP BY has
// none (want ""): it is one row that stays, and emptied its COUNTs read 0
// and its SUMs NULL through their counts, so nothing follows its combine
// but a MIN/MAX view's repair.
func TestStep3Golden(t *testing.T) {
	db := engine.Open("s3", engine.DialectDuckDB)
	for _, ddl := range []string{
		"CREATE TABLE a (x VARCHAR, y INTEGER, v INTEGER)",
		"CREATE TABLE b (x VARCHAR, w INTEGER)",
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct{ view, want string }{
		{"CREATE MATERIALIZED VIEW one AS SELECT x, SUM(v) AS s, COUNT(*) AS n FROM a GROUP BY x",
			"DELETE FROM one_ivm_storage USING (SELECT x AS x FROM delta_a AS a WHERE _duckdb_ivm_multiplicity = FALSE) AS ivm_del WHERE one_ivm_storage.x IS NOT DISTINCT FROM ivm_del.x AND n = 0;"},
		{"CREATE MATERIALIZED VIEW two AS SELECT x, y, SUM(v) AS s, COUNT(*) AS n FROM a GROUP BY x, y",
			"DELETE FROM two_ivm_storage USING (SELECT x AS x, y AS y FROM delta_a AS a WHERE _duckdb_ivm_multiplicity = FALSE) AS ivm_del WHERE two_ivm_storage.x IS NOT DISTINCT FROM ivm_del.x AND two_ivm_storage.y IS NOT DISTINCT FROM ivm_del.y AND n = 0;"},
		{"CREATE MATERIALIZED VIEW tot AS SELECT SUM(v) AS s, COUNT(*) AS n FROM a", ""},
		{"CREATE MATERIALIZED VIEW tot2 AS SELECT SUM(v) AS s, MAX(v) AS hi FROM a", ""},
		{"CREATE MATERIALIZED VIEW ja AS SELECT a.x, SUM(b.w) AS s FROM a JOIN b ON a.x = b.x GROUP BY a.x",
			"DELETE FROM ja_ivm_storage USING (SELECT x AS x FROM delta_join_ja WHERE _duckdb_ivm_multiplicity = FALSE) AS ivm_del WHERE ja_ivm_storage.x IS NOT DISTINCT FROM ivm_del.x AND _duckdb_ivm_count = 0;"},
		{"CREATE MATERIALIZED VIEW ja2 AS SELECT a.x, a.y, COUNT(*) AS n FROM a JOIN b ON a.x = b.x GROUP BY a.x, a.y",
			"DELETE FROM ja2 USING (SELECT x AS x, y AS y FROM delta_join_ja2 WHERE _duckdb_ivm_multiplicity = FALSE) AS ivm_del WHERE ja2.x IS NOT DISTINCT FROM ivm_del.x AND ja2.y IS NOT DISTINCT FROM ivm_del.y AND n = 0;"},
		// A projection or join view is grouped by all its columns (these have
		// no key): a row leaves when its weight reaches 0, and not before.
		{"CREATE MATERIALIZED VIEW pv AS SELECT x, v + 1 AS w FROM a WHERE y > 0",
			"DELETE FROM pv_ivm_storage USING (SELECT x AS x, w AS w FROM (SELECT x AS x, (v + 1) AS w, _duckdb_ivm_multiplicity FROM delta_a AS a WHERE (y > 0)) AS ivm_rows WHERE _duckdb_ivm_multiplicity = FALSE) AS ivm_del WHERE pv_ivm_storage.x IS NOT DISTINCT FROM ivm_del.x AND pv_ivm_storage.w IS NOT DISTINCT FROM ivm_del.w AND _duckdb_ivm_count = 0;"},
		{"CREATE MATERIALIZED VIEW jv AS SELECT a.x, b.w FROM a JOIN b ON a.x = b.x",
			"DELETE FROM jv_ivm_storage USING (SELECT x AS x, w AS w FROM delta_join_jv WHERE _duckdb_ivm_multiplicity = FALSE) AS ivm_del WHERE jv_ivm_storage.x IS NOT DISTINCT FROM ivm_del.x AND jv_ivm_storage.w IS NOT DISTINCT FROM ivm_del.w AND _duckdb_ivm_count = 0;"},
	}
	for _, c := range cases {
		comp := compile(t, db, c.view)
		prop := comp.PropagateSQL()
		if c.want == "" {
			n := 1
			if comp.hasMinMax() {
				n = 3 // the repair's delete and insert
			}
			if _, ok := comp.Body.Stmts[0].(*duckast.Update); !ok || len(comp.Body.Stmts) != n {
				t.Errorf("%s: the body is not its combine and repair alone:\n%s", comp.ViewName, comp.Body.SQL())
			}
		} else if !strings.Contains(prop, "\n"+c.want+"\n") {
			t.Errorf("step 3 is not %q:\n%s", c.want, prop)
		}
		// No NULL disjunct, no tagged string key: the USING form is the one
		// NULL-safe lookup.
		if strings.Contains(prop, "IS NULL OR") || strings.Contains(prop, "LENGTH(CAST(") {
			t.Errorf("the script still spells a NULL key by hand:\n%s", prop)
		}
	}
}

// TestMinMaxRepairSQL: after the combine, the groups a deletion touched
// leave V — found by keyedDelete, which matches a NULL-keyed group too —
// and are recomputed from the base joined to their keys with IS NOT DISTINCT FROM;
// a group whose last row went is not recomputed and stays out, so no step
// 3 follows the repair. The keys
// come from ΔT, through the view's WHERE, grouped: ΔT may delete several
// rows of one group, and the join must not repeat its base rows.
func TestMinMaxRepairSQL(t *testing.T) {
	db := newDB(t)
	comp := compile(t, db, `CREATE MATERIALIZED VIEW mm AS
		SELECT group_index, MIN(group_value) AS lo FROM groups GROUP BY group_index`)
	prop := comp.PropagateSQL()
	const deleted = "FROM delta_groups AS groups WHERE _duckdb_ivm_multiplicity = FALSE"
	for _, want := range []string{
		"MIN(CASE WHEN _duckdb_ivm_multiplicity = TRUE THEN group_value END) AS lo",
		"LEAST(COALESCE(",
		"\nDELETE FROM mm_ivm_storage USING (SELECT group_index AS group_index " + deleted +
			") AS ivm_del WHERE mm_ivm_storage.group_index IS NOT DISTINCT FROM ivm_del.group_index;\n",
		"\nINSERT INTO mm_ivm_storage (group_index, lo, _duckdb_ivm_count) SELECT group_index AS group_index, MIN(group_value) AS lo, COUNT(*) AS _duckdb_ivm_count FROM groups JOIN (SELECT group_index AS ivm_g0 " +
			deleted + " GROUP BY group_index) AS ivm_deleted ON group_index IS NOT DISTINCT FROM ivm_deleted.ivm_g0 GROUP BY group_index;\n",
	} {
		if !strings.Contains(prop, want) {
			t.Errorf("min/max repair missing %q:\n%s", want, prop)
		}
	}
	// The repair leaves no group for step 3: the body ends with its insert.
	if last := comp.Body.Stmts[len(comp.Body.Stmts)-1].SQL(); !strings.HasPrefix(last, "INSERT INTO mm_ivm_storage (group_index, lo, _duckdb_ivm_count) SELECT group_index AS group_index, MIN(group_value)") {
		t.Errorf("the body does not end with the repair's insert:\n%s", comp.Body.SQL())
	}
	// A composite group key joins on every key column; a join view's
	// recompute joins its keys to the view's own join.
	db.Exec("CREATE TABLE a (x VARCHAR, y INTEGER, v INTEGER)")
	db.Exec("CREATE TABLE b (x VARCHAR, w INTEGER)")
	prop = compile(t, db, `CREATE MATERIALIZED VIEW mm2 AS
		SELECT x, y, MAX(v) AS hi FROM a GROUP BY x, y`).PropagateSQL()
	if want := "FROM a JOIN (SELECT x AS ivm_g0, y AS ivm_g1 FROM delta_a AS a WHERE _duckdb_ivm_multiplicity = FALSE GROUP BY x, y) AS ivm_deleted " +
		"ON x IS NOT DISTINCT FROM ivm_deleted.ivm_g0 AND y IS NOT DISTINCT FROM ivm_deleted.ivm_g1 GROUP BY x, y;"; !strings.Contains(prop, want) {
		t.Errorf("composite min/max repair missing %q:\n%s", want, prop)
	}
	prop = compile(t, db, `CREATE MATERIALIZED VIEW mm3 AS
		SELECT b.x, MIN(a.v) AS lo, COUNT(*) AS n FROM a JOIN b ON a.x = b.x WHERE a.v > 0 GROUP BY b.x`).PropagateSQL()
	if want := "FROM a JOIN b ON (a.x = b.x) JOIN (SELECT x AS ivm_g0 FROM delta_join_mm3 WHERE _duckdb_ivm_multiplicity = FALSE GROUP BY x) AS ivm_deleted " +
		"ON b.x IS NOT DISTINCT FROM ivm_deleted.ivm_g0 WHERE (a.v > 0) GROUP BY b.x;"; !strings.Contains(prop, want) {
		t.Errorf("join min/max repair missing %q:\n%s", want, prop)
	}
	prop = compile(t, db, `CREATE MATERIALIZED VIEW mm4 AS
		SELECT t.x AS k, MAX(t.v) AS hi FROM a AS t WHERE t.v > 0 GROUP BY t.x`).PropagateSQL()
	if want := "FROM a AS t JOIN (SELECT t.x AS ivm_g0 FROM delta_a AS t WHERE (t.v > 0) AND _duckdb_ivm_multiplicity = FALSE GROUP BY t.x) AS ivm_deleted " +
		"ON t.x IS NOT DISTINCT FROM ivm_deleted.ivm_g0 WHERE (t.v > 0) GROUP BY t.x;"; !strings.Contains(prop, want) {
		t.Errorf("filtered min/max repair missing %q:\n%s", want, prop)
	}
}

// TestEmptyGroupPrefersCountStar: a view's row count is its declared
// COUNT(*), and then it keeps no hidden one; otherwise it keeps exactly
// one hidden count. Step 3 tests that count and never a SUM or a
// COUNT(col), which reach zero in a group that still has rows. A view
// without GROUP BY, or with a MIN or MAX, has no step 3.
func TestEmptyGroupPrefersCountStar(t *testing.T) {
	db := engine.Open("count", engine.DialectDuckDB)
	for _, ddl := range []string{"CREATE TABLE t (k VARCHAR, v INTEGER)", "CREATE TABLE u (k VARCHAR, w INTEGER)"} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for view, want := range map[string]string{
		"SELECT k, COUNT(v) AS c, COUNT(*) AS n FROM t GROUP BY k":                         "n",
		"SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k":                           "n",
		"SELECT COUNT(*) AS n, SUM(v) AS s FROM t":                                         "n",
		"SELECT k, SUM(v) AS s, COUNT(v) AS c FROM t GROUP BY k":                           HiddenCountColumn,
		"SELECT k, SUM(v) AS s FROM t GROUP BY k":                                          HiddenCountColumn,
		"SELECT k, COUNT(v) AS c FROM t GROUP BY k":                                        HiddenCountColumn,
		"SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k":                           HiddenCountColumn,
		"SELECT k, AVG(v) AS m FROM t GROUP BY k":                                          HiddenCountColumn,
		"SELECT SUM(v) AS s FROM t":                                                        HiddenCountColumn,
		"SELECT t.k, SUM(u.w) AS s FROM t JOIN u ON t.k = u.k GROUP BY t.k":                HiddenCountColumn,
		"SELECT t.k, SUM(u.w) AS s, COUNT(*) AS n FROM t JOIN u ON t.k = u.k GROUP BY t.k": "n",
	} {
		comp := compile(t, db, "CREATE MATERIALIZED VIEW cv AS "+view)
		counts := 0
		for _, col := range comp.StorageColumns() {
			if col.HasAgg && col.Agg == expr.AggCountStar {
				counts++
			}
		}
		hidden := strings.Contains(comp.SetupSQL(), HiddenCountColumn)
		if counts != 1 || hidden != (want == HiddenCountColumn) {
			t.Errorf("%s: %d row counts, hidden %v:\n%s", view, counts, hidden, comp.SetupSQL())
		}
		prop := comp.PropagateSQL()
		step3 := len(comp.GroupColumns()) > 0 && !comp.hasMinMax()
		if strings.Contains(prop, " "+want+" = 0;\n") != step3 {
			t.Errorf("%s: step 3 (want %v) does not test %s:\n%s", view, step3, want, prop)
		}
		for _, other := range []string{" s_ivm_sum = 0", " s_ivm_cnt = 0", " c = 0", " lo = 0", " hi = 0", " m_ivm_cnt = 0"} {
			if strings.Contains(prop, other) {
				t.Errorf("%s: step 3 tests%s:\n%s", view, other, prop)
			}
		}
	}
}

func TestJoinCompilationSQL(t *testing.T) {
	db := engine.Open("j", engine.DialectDuckDB)
	db.Exec("CREATE TABLE a (x VARCHAR, v INTEGER)")
	db.Exec("CREATE TABLE b (x VARCHAR, w INTEGER)")
	comp := compile(t, db, `CREATE MATERIALIZED VIEW jv AS
		SELECT a.x, a.v, b.w FROM a JOIN b ON a.x = b.x`)
	prop := comp.PropagateSQL()
	// The three DBSP product-rule terms.
	for _, want := range []string{
		"FROM delta_a AS a JOIN b ON",
		"FROM a JOIN delta_b AS b ON",
		"FROM delta_a AS a JOIN delta_b AS b ON",
		"a._duckdb_ivm_multiplicity <> b._duckdb_ivm_multiplicity",
	} {
		if !strings.Contains(prop, want) {
			t.Errorf("join propagation missing %q:\n%s", want, prop)
		}
	}
	// The join delta folds into V grouped by all its columns (the view has
	// no key), each row's weight its signed count, and V is read through a
	// plain view that repeats each row as many times as its weight.
	for _, want := range []string{
		"CREATE TABLE IF NOT EXISTS jv_ivm_storage (x VARCHAR, v BIGINT, w BIGINT, _duckdb_ivm_count BIGINT, UNIQUE NULLS NOT DISTINCT (x, v, w));",
		"CREATE VIEW jv AS SELECT x, v, w FROM jv_ivm_storage, generate_series(1, _duckdb_ivm_count);",
	} {
		if !strings.Contains(comp.SetupSQL(), want) {
			t.Errorf("join setup missing %q:\n%s", want, comp.SetupSQL())
		}
	}
	if want := "INSERT INTO jv_ivm_storage (x, v, w, _duckdb_ivm_count) SELECT x AS x, v AS v, w AS w, " +
		"SUM(CASE WHEN _duckdb_ivm_multiplicity = FALSE THEN -1 ELSE 1 END) AS _duckdb_ivm_count FROM delta_join_jv GROUP BY x, v, w " +
		"ON CONFLICT (x, v, w) DO UPDATE SET _duckdb_ivm_count = jv_ivm_storage._duckdb_ivm_count + EXCLUDED._duckdb_ivm_count;\n"; !strings.Contains(prop, want) {
		t.Errorf("join combine is not\n%s\nin:\n%s", want, prop)
	}
	// A row leaves when its weight reaches 0, found NULL-safely by every
	// column of the key.
	if want := "\nDELETE FROM jv_ivm_storage USING (SELECT x AS x, v AS v, w AS w FROM delta_join_jv WHERE _duckdb_ivm_multiplicity = FALSE) AS ivm_del " +
		"WHERE jv_ivm_storage.x IS NOT DISTINCT FROM ivm_del.x AND jv_ivm_storage.v IS NOT DISTINCT FROM ivm_del.v " +
		"AND jv_ivm_storage.w IS NOT DISTINCT FROM ivm_del.w AND _duckdb_ivm_count = 0;\n"; !strings.Contains(prop, want) {
		t.Errorf("join step 3 is not\n%s\nin:\n%s", want, prop)
	}
}

func TestJoinAggregateIntermediateTable(t *testing.T) {
	db := engine.Open("j", engine.DialectDuckDB)
	db.Exec("CREATE TABLE a (x VARCHAR, v INTEGER)")
	db.Exec("CREATE TABLE b (x VARCHAR, w INTEGER)")
	comp := compile(t, db, `CREATE MATERIALIZED VIEW ja AS
		SELECT a.x, SUM(b.w) AS s FROM a JOIN b ON a.x = b.x GROUP BY a.x`)
	if comp.JoinDelta == "" {
		t.Fatal("join aggregate should declare an intermediate table")
	}
	if !strings.Contains(comp.SetupSQL(), "CREATE TABLE IF NOT EXISTS "+comp.JoinDelta) {
		t.Errorf("intermediate table DDL missing:\n%s", comp.SetupSQL())
	}
	if !strings.Contains(comp.PropagateSQL(), "INSERT INTO "+comp.JoinDelta) {
		t.Errorf("intermediate fill missing:\n%s", comp.PropagateSQL())
	}
}

func TestCompilationAccessors(t *testing.T) {
	db := newDB(t)
	comp := compile(t, db, listing1View)
	if comp.DeltaFor("groups") != "delta_groups" {
		t.Errorf("DeltaFor = %q", comp.DeltaFor("groups"))
	}
	if comp.DeltaFor("zzz") != "" {
		t.Error("DeltaFor on unknown table")
	}
	if len(comp.GroupColumns()) != 1 || len(comp.AggColumns()) != 1 {
		t.Errorf("columns = %+v", comp.Columns)
	}
	if got := comp.BaseTableNames(); len(got) != 1 || got[0] != "groups" {
		t.Errorf("bases = %v", got)
	}
}

// DeltaFor returns the delta-table name for a base table ("" if the table
// is not referenced).
func (c *Compilation) DeltaFor(base string) string {
	for _, b := range c.Bases {
		if strings.EqualFold(b.Name, base) {
			return b.Delta
		}
	}
	return ""
}

func TestCompileErrors(t *testing.T) {
	db := newDB(t)
	c := NewCompiler(db, DefaultOptions())
	for _, bad := range []string{
		"CREATE VIEW v AS SELECT 1", // not materialized
		"SELECT 1",                  // not a view at all
		"CREATE MATERIALIZED VIEW v AS SELECT group_index FROM missing",                                                                   // unknown table
		"CREATE MATERIALIZED VIEW v AS SELECT SUM(group_value) + 1 AS x FROM groups GROUP BY group_index",                                 // agg expr item
		"CREATE MATERIALIZED VIEW v AS SELECT group_index, SUM(group_value) AS s FROM groups GROUP BY group_index, group_value",           // group col not selected
		"CREATE MATERIALIZED VIEW v AS SELECT group_value FROM (SELECT * FROM groups) AS s",                                               // derived table
		"CREATE MATERIALIZED VIEW v AS SELECT g1.group_index FROM groups AS g1 LEFT JOIN groups AS g2 ON g1.group_index = g2.group_index", // outer join
	} {
		if _, err := c.CompileSQL(bad); err == nil {
			t.Errorf("CompileSQL(%q) should fail", bad)
		}
	}
}

// TestCompiledScriptsReparse guarantees the emitted SQL round-trips through
// our own parser — the essence of a SQL-to-SQL compiler.
func TestCompiledScriptsReparse(t *testing.T) {
	db := engine.Open("rt", engine.DialectDuckDB)
	db.Exec("CREATE TABLE a (x VARCHAR, v INTEGER)")
	db.Exec("CREATE TABLE b (x VARCHAR, w INTEGER)")
	views := []string{
		"CREATE MATERIALIZED VIEW m1 AS SELECT x, v FROM a WHERE v > 0",
		"CREATE MATERIALIZED VIEW m2 AS SELECT x, SUM(v) AS s, COUNT(*) AS n FROM a GROUP BY x",
		"CREATE MATERIALIZED VIEW m3 AS SELECT x, MIN(v) AS lo, MAX(v) AS hi FROM a GROUP BY x",
		"CREATE MATERIALIZED VIEW m4 AS SELECT a.x, a.v, b.w FROM a JOIN b ON a.x = b.x",
		"CREATE MATERIALIZED VIEW m5 AS SELECT a.x, SUM(b.w) AS s FROM a JOIN b ON a.x = b.x GROUP BY a.x",
		"CREATE MATERIALIZED VIEW m6 AS SELECT x, v, COUNT(*) AS n, MIN(v) AS lo FROM a GROUP BY x, v",
		// A negative literal argument: its negation must not read as "--".
		"CREATE MATERIALIZED VIEW m7 AS SELECT x, SUM(-1) AS neg, SUM(-v) AS nv FROM a GROUP BY x",
	}
	for _, v := range views {
		comp, err := NewCompiler(db, DefaultOptions()).CompileSQL(v)
		if err != nil {
			t.Fatalf("%q: %v", v, err)
		}
		for name, script := range map[string]*duckast.Script{
			"setup":     comp.Setup,
			"populate":  comp.Populate,
			"propagate": comp.Propagate,
		} {
			for _, st := range script.Stmts {
				if _, err := sqlparser.Parse(st.SQL()); err != nil {
					t.Errorf("%s of %q does not re-parse: %v\nSQL: %s", name, v, err, st.SQL())
				}
			}
		}
	}
}

// TestBodiesCompiledOnce: Body's statements are Propagate's own leading
// nodes rather than a second compilation of them, and what follows them is
// step 4.
func TestBodiesCompiledOnce(t *testing.T) {
	db := newDB(t)
	comp := compile(t, db, listing1View)
	for i, st := range comp.Body.Stmts {
		if comp.Propagate.Stmts[i] != st {
			t.Errorf("Body statement %d is not Propagate's node", i)
		}
	}
	// Step 4 of the listing-1 view: DELETE FROM ΔT.
	if got, want := len(comp.Body.Stmts), len(comp.Propagate.Stmts)-1; got != want {
		t.Errorf("Body has %d statements, want Propagate's first %d", got, want)
	}
}

func TestDeltaRows(t *testing.T) {
	row := func(vals ...int64) sqltypes.Row {
		r := make(sqltypes.Row, len(vals))
		for i, v := range vals {
			r[i] = sqltypes.NewInt(v)
		}
		return r
	}
	olds, news := []sqltypes.Row{row(1, 10), row(2, 20)}, []sqltypes.Row{row(1, 11), row(2, 21)}
	for _, c := range []struct {
		ev   engine.TriggerEvent
		want string
	}{
		{engine.TrigInsert, "1,11,true 2,21,true"},
		{engine.TrigDelete, "1,10,false 2,20,false"},
		{engine.TrigUpdate, "1,10,false 2,20,false 1,11,true 2,21,true"},
	} {
		var got []string
		for _, r := range DeltaRows(c.ev, olds, news) {
			got = append(got, fmt.Sprintf("%d,%d,%v", r[0].I, r[1].I, r[2].IsTrue()))
		}
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("%s: delta rows %q, want %q", c.ev, s, c.want)
		}
	}
	if len(olds[0]) != 2 {
		t.Error("DeltaRows grew its input rows in place")
	}
}
