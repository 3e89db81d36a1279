package ivm

import (
	"strings"
	"testing"

	"openivm/internal/duckast"
	"openivm/internal/engine"
	"openivm/internal/sqlparser"
)

// keyedDB holds keyed and keyless base tables: orders and customers with a
// column-level (NOT NULL) primary key, lines with a composite NOT NULL key,
// loose with a table-level key that admits a NULL, t with no key.
func keyedDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.Open("keyed", engine.DialectDuckDB)
	for _, ddl := range []string{
		"CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)",
		"CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)",
		"CREATE TABLE lines (oid INTEGER NOT NULL, ln INTEGER NOT NULL, qty INTEGER, PRIMARY KEY (oid, ln))",
		"CREATE TABLE loose (k INTEGER, v INTEGER, PRIMARY KEY (k))",
		"CREATE TABLE t (a VARCHAR, b INTEGER)",
		"CREATE TABLE codes (code VARCHAR PRIMARY KEY, label VARCHAR)",
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestViewKey pins the key rule: a projection or join view is keyed by the
// view columns that name its bases' keys, a join leaving out a base whose
// whole key ON equates to the other side's columns; anything less is
// keyless.
func TestViewKey(t *testing.T) {
	db := keyedDB(t)
	for _, c := range []struct{ def, want string }{
		// Projection: the key present, renamed, composite; missing; a
		// keyless base; a key that admits a NULL.
		{"SELECT oid, cid, amount FROM orders WHERE amount >= 250", "oid"},
		{"SELECT o.amount, o.oid AS id FROM orders AS o", "id"},
		{"SELECT ln, qty, oid FROM lines", "oid, ln"},
		{"SELECT cid, amount FROM orders", "-"},
		{"SELECT ln, qty FROM lines", "-"},
		{"SELECT oid + 0 AS oid, amount FROM orders", "-"},
		{"SELECT a, b FROM t", "-"},
		{"SELECT k, v FROM loose", "-"},
		// Join, FK→PK: customers' key is equated by ON, so orders' key alone
		// keys the view — through ON, USING, either order of the tables.
		{"SELECT o.oid, c.region, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid", "oid"},
		{"SELECT c.region, o.oid FROM customers AS c JOIN orders AS o ON c.cid = o.cid AND o.amount > 0", "oid"},
		{"SELECT orders.oid, customers.region FROM orders JOIN customers USING (cid)", "oid"},
		{"SELECT c.region, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid", "-"},
		// The key named through an ON equality: orders' key equals l.oid, so
		// lines' key (l.oid, l.ln) keys the view with o.oid naming l.oid.
		{"SELECT o.oid, l.ln, l.qty FROM lines AS l JOIN orders AS o ON l.oid = o.oid", "oid, ln"},
		{"SELECT o.amount, l.qty FROM lines AS l JOIN orders AS o ON l.oid = o.oid", "-"},
		// One-to-one: either key serves; the left one is taken.
		{"SELECT c.cid, c.region, o.amount FROM customers AS c JOIN orders AS o ON c.cid = o.oid", "cid"},
		{"SELECT o.oid, c.region FROM customers AS c JOIN orders AS o ON c.cid = o.oid", "oid"},
		// Neither key equated: both keys, every column named.
		{"SELECT o.oid, l.oid AS loid, l.ln FROM orders AS o JOIN lines AS l ON o.cid = l.qty", "oid, loid, ln"},
		{"SELECT o.oid, l.ln FROM orders AS o JOIN lines AS l ON o.cid = l.qty", "-"},
		// A keyless side: an order may match many rows of t.
		{"SELECT o.oid, t.a FROM orders AS o JOIN t ON o.cid = t.b", "-"},
		{"SELECT t.a, t.b, c.region FROM t JOIN customers AS c ON t.b = c.cid", "-"},
		// An equality between columns of different types does not equate
		// ('01' and '1' could both match customer 1), so neither base is
		// left out.
		{"SELECT x.code, c.region FROM codes AS x JOIN customers AS c ON x.label = c.cid", "-"},
		{"SELECT c.cid, x.label FROM codes AS x JOIN customers AS c ON x.code = c.cid", "-"},
		{"SELECT x.code, c.cid FROM codes AS x JOIN customers AS c ON x.label = c.cid", "code, cid"},
	} {
		comp, err := NewCompiler(db, DefaultOptions()).Compile("kv", parseSelect(t, c.def), c.def)
		if err != nil {
			t.Fatalf("%s: %v", c.def, err)
		}
		got := "-"
		if comp.Key != nil {
			got = strings.Join(comp.Key, ", ")
		}
		if got != c.want {
			t.Errorf("%s: key %s, want %s", c.def, got, c.want)
		}
		// A keyed view declares its key and deletes through it; a keyless one
		// declares none and keeps the row-value delete (rowIn).
		wantPK, wantDelete := "", "COALESCE(LENGTH(CAST("
		if comp.Key != nil {
			delta := "delta_join_kv"
			if len(comp.Bases) == 1 {
				delta = "(SELECT "
			}
			wantPK, wantDelete = "PRIMARY KEY ("+got+")", "DELETE FROM kv WHERE "+groupKey(comp.Key)+" IN (SELECT "+got+" FROM "+delta
		}
		if setup := comp.SetupSQL(); strings.Contains(setup, "PRIMARY KEY") != (wantPK != "") || !strings.Contains(setup, wantPK) {
			t.Errorf("%s: setup does not declare the key %s:\n%s", c.def, got, setup)
		}
		if prop := comp.PropagateSQL(); !strings.Contains(prop, wantDelete) {
			t.Errorf("%s: the script does not hold %q:\n%s", c.def, wantDelete, prop)
		}
	}
	// Aggregate classes keep their group key and no row key.
	comp := compile(t, db, DefaultOptions(), "CREATE MATERIALIZED VIEW agg AS SELECT cid, SUM(amount) AS s FROM orders GROUP BY cid")
	if comp.Key != nil {
		t.Errorf("aggregate view has a row key %v", comp.Key)
	}
}

func parseSelect(t *testing.T, def string) *sqlparser.SelectStmt {
	t.Helper()
	st, err := sqlparser.Parse(def)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparser.SelectStmt)
}

// TestKeyedGolden pins the whole compilation of a keyed projection view and
// a keyed FK→PK join view in both dialects: V declares the key, the join
// view fills its join delta with the product rule's three terms, and steps
// 2–3 are the keyed combine — delete the keys whose row nets below zero,
// then insert the rows that net above it. The projection view's combine
// reads its query over ΔT as a derived table, so that GROUP BY names
// columns rather than expressions.
func TestKeyedGolden(t *testing.T) {
	db := keyedDB(t)
	const net = "SUM(CASE WHEN _duckdb_ivm_multiplicity = TRUE THEN 1 ELSE -1 END)"
	const bigDelta = "(SELECT oid AS oid, cid AS cid, amount AS amount, _duckdb_ivm_multiplicity FROM delta_orders WHERE (amount >= 250)) AS ivm_delta"
	cases := []struct{ view, setup, prop string }{
		{"CREATE MATERIALIZED VIEW big_orders AS SELECT oid, cid, amount FROM orders WHERE amount >= 250",
			`CREATE TABLE IF NOT EXISTS delta_orders (oid INTEGER, cid INTEGER, amount INTEGER, _duckdb_ivm_multiplicity BOOLEAN);
CREATE TABLE IF NOT EXISTS big_orders (oid INTEGER, cid INTEGER, amount INTEGER, PRIMARY KEY (oid));`,
			`DELETE FROM big_orders WHERE oid IN (SELECT oid FROM ` + bigDelta + ` GROUP BY oid, cid, amount HAVING NET < 0);
INSERT INTO big_orders SELECT oid, cid, amount FROM ` + bigDelta + ` GROUP BY oid, cid, amount HAVING NET > 0;
DELETE FROM delta_orders;`},
		{"CREATE MATERIALIZED VIEW order_regions AS SELECT o.oid, c.region, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid",
			`CREATE TABLE IF NOT EXISTS delta_orders (oid INTEGER, cid INTEGER, amount INTEGER, _duckdb_ivm_multiplicity BOOLEAN);
CREATE TABLE IF NOT EXISTS delta_customers (cid INTEGER, region VARCHAR, _duckdb_ivm_multiplicity BOOLEAN);
CREATE TABLE IF NOT EXISTS order_regions (oid INTEGER, region VARCHAR, amount INTEGER, PRIMARY KEY (oid));
CREATE TABLE IF NOT EXISTS delta_join_order_regions (oid INTEGER, region VARCHAR, amount INTEGER, _duckdb_ivm_multiplicity BOOLEAN);`,
			`INSERT INTO delta_join_order_regions SELECT o.oid AS oid, c.region AS region, o.amount AS amount, o._duckdb_ivm_multiplicity AS _duckdb_ivm_multiplicity FROM delta_orders AS o JOIN customers AS c ON (o.cid = c.cid);
INSERT INTO delta_join_order_regions SELECT o.oid AS oid, c.region AS region, o.amount AS amount, c._duckdb_ivm_multiplicity AS _duckdb_ivm_multiplicity FROM orders AS o JOIN delta_customers AS c ON (o.cid = c.cid);
INSERT INTO delta_join_order_regions SELECT o.oid AS oid, c.region AS region, o.amount AS amount, o._duckdb_ivm_multiplicity <> c._duckdb_ivm_multiplicity AS _duckdb_ivm_multiplicity FROM delta_orders AS o JOIN delta_customers AS c ON (o.cid = c.cid);
DELETE FROM order_regions WHERE oid IN (SELECT oid FROM delta_join_order_regions GROUP BY oid, region, amount HAVING NET < 0);
INSERT INTO order_regions SELECT oid, region, amount FROM delta_join_order_regions GROUP BY oid, region, amount HAVING NET > 0;
DELETE FROM delta_join_order_regions;
DELETE FROM delta_orders;
DELETE FROM delta_customers;`},
	}
	for _, dialect := range []duckast.Dialect{duckast.DialectDuckDB, duckast.DialectPostgres} {
		for _, c := range cases {
			opts := DefaultOptions()
			opts.Dialect = dialect
			comp := compile(t, db, opts, c.view)
			setup := c.setup
			if dialect == duckast.DialectPostgres {
				setup = strings.ReplaceAll(setup, "VARCHAR", "TEXT")
			}
			if got := strings.TrimSpace(comp.SetupSQL()); got != setup {
				t.Errorf("[%v] setup of %s:\n got:\n%s\nwant:\n%s", dialect, comp.ViewName, got, setup)
			}
			prop := strings.ReplaceAll(c.prop, "NET", net)
			if got := strings.TrimSpace(comp.PropagateSQL()); got != prop {
				t.Errorf("[%v] propagate of %s:\n got:\n%s\nwant:\n%s", dialect, comp.ViewName, got, prop)
			}
		}
	}
}
