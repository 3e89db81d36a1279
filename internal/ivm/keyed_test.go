package ivm

import (
	"strings"
	"testing"

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
		// Every view is grouped by its key, or by all its columns when it has
		// none: the setup declares that key, step 2 folds into it and step 3
		// deletes through it. Only a keyed view has other columns, which it
		// carries from the delta's surviving rows (ivm_new).
		key := viewColNames(comp.GroupColumns())
		if comp.Key == nil && len(key) != len(comp.Columns) || len(key) != len(comp.Key) && comp.Key != nil {
			t.Errorf("%s: grouped by %v, key %v", c.def, key, comp.Key)
		}
		list := strings.Join(key, ", ")
		items := make([]string, len(key))
		for i, k := range key {
			items[i] = k + " AS " + k
		}
		if setup := comp.SetupSQL(); !strings.Contains(setup, "_count BIGINT, UNIQUE NULLS NOT DISTINCT ("+list+"));") {
			t.Errorf("%s: setup does not declare the key %s:\n%s", c.def, list, setup)
		}
		prop := comp.PropagateSQL()
		for _, want := range []string{
			"ON CONFLICT (" + list + ") DO UPDATE SET ",
			"DELETE FROM kv_ivm_storage USING (SELECT " + strings.Join(items, ", ") + " FROM (SELECT ",
			"kv_ivm_storage." + key[0] + " IS NOT DISTINCT FROM ivm_del." + key[0],
		} {
			if !strings.Contains(prop, want) {
				t.Errorf("%s: the script does not hold %q:\n%s", c.def, want, prop)
			}
		}
		if carried := len(key) < len(comp.Columns); strings.Contains(prop, ") AS ivm_new ON ") != carried || strings.Contains(prop, "COALESCE(LENGTH(") {
			t.Errorf("%s: carries other columns %v, and the combine is not that:\n%s", c.def, carried, prop)
		}
	}
	// Aggregate classes keep their group key and no row key.
	comp := compile(t, db, "CREATE MATERIALIZED VIEW agg AS SELECT cid, SUM(amount) AS s FROM orders GROUP BY cid")
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
// a keyed FK→PK join view: V's storage is grouped by the key with the row's
// weight beside it (1 for every row the population inserts: the key is
// unique), the join view reads its delta as the product rule's three terms
// UNION ALL (its step 3 each term's retractions alone), and step 2 is the
// one combine — the delta grouped by
// the key, its signed weight added through ON CONFLICT, the other columns
// taken from the key's surviving row (the rows that net above zero), a key
// whose rows all net to zero left out — and step 3 deletes the retracted
// keys whose weight reached zero. The projection view reads its query over
// ΔT as a derived table, so that GROUP BY names columns rather than
// expressions. Both plain views read V as stored, each row once (no lateral
// generate_series: every weight is 1), and the join view's setup indexes
// orders(cid), by which ΔC finds its orders.
func TestKeyedGolden(t *testing.T) {
	db := keyedDB(t)
	const net = "SUM(CASE WHEN _duckdb_ivm_multiplicity = FALSE THEN -1 ELSE 1 END)"
	const signed = "SUM(CASE WHEN _duckdb_ivm_multiplicity = FALSE THEN -1 ELSE 1 END) AS _duckdb_ivm_count"
	const bigDelta = "(SELECT oid AS oid, cid AS cid, amount AS amount, _duckdb_ivm_multiplicity FROM delta_orders AS orders WHERE (amount >= 250)) AS ivm_rows"
	const cols = "SELECT o.oid AS oid, c.region AS region, o.amount AS amount, "
	const terms = "(" + cols + "o._duckdb_ivm_multiplicity AS _duckdb_ivm_multiplicity FROM delta_orders AS o JOIN customers AS c ON (o.cid = c.cid) UNION ALL " +
		cols + "c._duckdb_ivm_multiplicity AS _duckdb_ivm_multiplicity FROM orders AS o JOIN delta_customers AS c ON (o.cid = c.cid) UNION ALL " +
		cols + "o._duckdb_ivm_multiplicity <> c._duckdb_ivm_multiplicity AS _duckdb_ivm_multiplicity FROM delta_orders AS o JOIN delta_customers AS c ON (o.cid = c.cid)) AS ivm_terms"
	const retracted = "(" + cols + "o._duckdb_ivm_multiplicity AS _duckdb_ivm_multiplicity FROM delta_orders AS o JOIN customers AS c ON (o.cid = c.cid) WHERE o._duckdb_ivm_multiplicity = FALSE UNION ALL " +
		cols + "c._duckdb_ivm_multiplicity AS _duckdb_ivm_multiplicity FROM orders AS o JOIN delta_customers AS c ON (o.cid = c.cid) WHERE c._duckdb_ivm_multiplicity = FALSE UNION ALL " +
		cols + "o._duckdb_ivm_multiplicity <> c._duckdb_ivm_multiplicity AS _duckdb_ivm_multiplicity FROM delta_orders AS o JOIN delta_customers AS c ON (o.cid = c.cid) WHERE o._duckdb_ivm_multiplicity = c._duckdb_ivm_multiplicity) AS ivm_terms"
	cases := []struct{ view, setup, populate, prop string }{
		{"CREATE MATERIALIZED VIEW big_orders AS SELECT oid, cid, amount FROM orders WHERE amount >= 250",
			`CREATE TABLE IF NOT EXISTS delta_orders (oid BIGINT, cid BIGINT, amount BIGINT, _duckdb_ivm_multiplicity BOOLEAN);
CREATE TABLE IF NOT EXISTS big_orders_ivm_storage (oid BIGINT, cid BIGINT, amount BIGINT, _duckdb_ivm_count BIGINT, UNIQUE NULLS NOT DISTINCT (oid));
CREATE VIEW big_orders AS SELECT oid, cid, amount FROM big_orders_ivm_storage;`,
			`INSERT INTO big_orders_ivm_storage SELECT oid AS oid, cid AS cid, amount AS amount, 1 AS _duckdb_ivm_count FROM orders WHERE (amount >= 250);`,
			`INSERT INTO big_orders_ivm_storage (oid, cid, amount, _duckdb_ivm_count) SELECT ivm_delta.oid, ivm_new.cid, ivm_new.amount, ivm_delta._duckdb_ivm_count FROM (SELECT oid AS oid, SIGNED FROM ` + bigDelta + ` GROUP BY oid) AS ivm_delta LEFT JOIN (SELECT oid, cid, amount FROM ` + bigDelta + ` GROUP BY oid, cid, amount HAVING NET > 0) AS ivm_new ON ivm_new.oid = ivm_delta.oid WHERE ivm_delta._duckdb_ivm_count <> 0 OR ivm_new.oid IS NOT NULL ON CONFLICT (oid) DO UPDATE SET cid = EXCLUDED.cid, amount = EXCLUDED.amount, _duckdb_ivm_count = big_orders_ivm_storage._duckdb_ivm_count + EXCLUDED._duckdb_ivm_count;
DELETE FROM big_orders_ivm_storage USING (SELECT oid AS oid FROM ` + bigDelta + ` WHERE _duckdb_ivm_multiplicity = FALSE) AS ivm_del WHERE big_orders_ivm_storage.oid IS NOT DISTINCT FROM ivm_del.oid AND _duckdb_ivm_count = 0;
DELETE FROM delta_orders;`},
		{"CREATE MATERIALIZED VIEW order_regions AS SELECT o.oid, c.region, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid",
			`CREATE INDEX IF NOT EXISTS orders_cid_ivm_idx ON orders (cid);
CREATE TABLE IF NOT EXISTS delta_orders (oid BIGINT, cid BIGINT, amount BIGINT, _duckdb_ivm_multiplicity BOOLEAN);
CREATE TABLE IF NOT EXISTS delta_customers (cid BIGINT, region VARCHAR, _duckdb_ivm_multiplicity BOOLEAN);
CREATE TABLE IF NOT EXISTS order_regions_ivm_storage (oid BIGINT, region VARCHAR, amount BIGINT, _duckdb_ivm_count BIGINT, UNIQUE NULLS NOT DISTINCT (oid));
CREATE VIEW order_regions AS SELECT oid, region, amount FROM order_regions_ivm_storage;`,
			`INSERT INTO order_regions_ivm_storage SELECT o.oid AS oid, c.region AS region, o.amount AS amount, 1 AS _duckdb_ivm_count FROM orders AS o JOIN customers AS c ON (o.cid = c.cid);`,
			`INSERT INTO order_regions_ivm_storage (oid, region, amount, _duckdb_ivm_count) SELECT ivm_delta.oid, ivm_new.region, ivm_new.amount, ivm_delta._duckdb_ivm_count FROM (SELECT oid AS oid, SIGNED FROM ` + terms + ` GROUP BY oid) AS ivm_delta LEFT JOIN (SELECT oid, region, amount FROM ` + terms + ` GROUP BY oid, region, amount HAVING NET > 0) AS ivm_new ON ivm_new.oid = ivm_delta.oid WHERE ivm_delta._duckdb_ivm_count <> 0 OR ivm_new.oid IS NOT NULL ON CONFLICT (oid) DO UPDATE SET region = EXCLUDED.region, amount = EXCLUDED.amount, _duckdb_ivm_count = order_regions_ivm_storage._duckdb_ivm_count + EXCLUDED._duckdb_ivm_count;
DELETE FROM order_regions_ivm_storage USING (SELECT oid AS oid FROM ` + retracted + `) AS ivm_del WHERE order_regions_ivm_storage.oid IS NOT DISTINCT FROM ivm_del.oid AND _duckdb_ivm_count = 0;
DELETE FROM delta_orders;
DELETE FROM delta_customers;`},
	}
	for _, c := range cases {
		comp := compile(t, db, c.view)
		if got := strings.TrimSpace(comp.SetupSQL()); got != c.setup {
			t.Errorf("setup of %s:\n got:\n%s\nwant:\n%s", comp.ViewName, got, c.setup)
		}
		if got := strings.TrimSpace(comp.PopulateSQLText()); got != c.populate {
			t.Errorf("populate of %s:\n got:\n%s\nwant:\n%s", comp.ViewName, got, c.populate)
		}
		prop := strings.NewReplacer("NET", net, "SIGNED", signed).Replace(c.prop)
		if got := strings.TrimSpace(comp.PropagateSQL()); got != prop {
			t.Errorf("propagate of %s:\n got:\n%s\nwant:\n%s", comp.ViewName, got, prop)
		}
	}
}
