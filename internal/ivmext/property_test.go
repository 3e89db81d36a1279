package ivmext

import (
	"fmt"
	"strings"
	"testing"

	"openivm/internal/txntest"
)

// The TestProperty* tests are the view oracle (TestViewOracle) pinned to
// one class of view each: the tables' keys and the views are fixed, and
// some scripts lead the drawn writes with the case they are named after.
// Each runs pinnedHistories histories from TXNTEST_SEED on; the oracle's
// check, compare, access-path assertions and shrinking are theirs too.

const pinnedHistories = 3

// keyless are the tables of a pinned history without a key or an index.
var keyless = []string{"", ""}

// pinned runs the oracle on histories over keys and defs, led by then and
// followed by ops drawn writes, in r's arm.
func pinned(t *testing.T, keys []string, defs, then []string, ops int, r replay) {
	t.Helper()
	oracle(t, pinnedHistories, txntest.ViewOptions{Ops: ops, Keys: keys, Defs: defs, Then: then}, r)
}

// TestPropertySumCount: a SUM/COUNT(*) view, grouped (Listing 2's upsert,
// whose left join finds each group's row) and without GROUP BY (one row,
// folded in place), lazy and eager.
func TestPropertySumCount(t *testing.T) {
	for _, arm := range []string{"lazy", "eager"} {
		for name, def := range map[string]string{
			"upsert_left_join_": "SELECT k, SUM(v) AS s, COUNT(*) AS cnt FROM t GROUP BY k",
			"no_group_by_":      "SELECT SUM(v) AS s, COUNT(*) AS cnt FROM t",
		} {
			t.Run(name+arm, func(t *testing.T) {
				pinned(t, keyless, []string{def}, nil, 120, replay{arm: arm})
			})
		}
	}
}

// TestPropertyMinMax: MIN/MAX views grouped with a declared COUNT(*) and
// with the hidden count (step 3 tests either), and without GROUP BY, whose
// one row keeps no count and is recomputed whole on a deletion.
func TestPropertyMinMax(t *testing.T) {
	pinned(t, keyless, []string{
		"SELECT k, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS cnt FROM t GROUP BY k",
		"SELECT k, MAX(v) AS hi FROM t GROUP BY k",
		"SELECT MIN(v) AS lo, MAX(v) AS hi FROM t",
	}, nil, 150, replay{arm: "lazy"})
}

// TestPropertyFilteredAggregate: rows cross an aggregate view's WHERE both
// ways.
func TestPropertyFilteredAggregate(t *testing.T) {
	pinned(t, keyless, []string{"SELECT k, SUM(v) AS s, COUNT(*) AS cnt FROM t WHERE v > 0 GROUP BY k"}, nil, 150, replay{arm: "lazy"})
}

// TestPropertyProjectionDistinctRows: a filtered projection of a table
// whose rows its primary key keeps distinct.
func TestPropertyProjectionDistinctRows(t *testing.T) {
	pinned(t, []string{"pk", ""}, []string{"SELECT id, k, v FROM t WHERE v >= 1"}, nil, 150, replay{arm: "lazy", key: "keyed"})
}

// TestPropertyJoin: a join view while both sides change, rows of either
// side join many rows of the other, and joined rows lose their partner.
func TestPropertyJoin(t *testing.T) {
	pinned(t, keyless, []string{"SELECT t.id, u.g, t.v FROM t JOIN u ON t.fk = u.uid"}, nil, 150, replay{arm: "lazy"})
}

// TestPropertyFilteredJoin: a join view with WHERE conjuncts on both sides
// (its delta terms filter each side before they join), lazy and eager;
// updates move rows across both conjuncts' boundaries.
func TestPropertyFilteredJoin(t *testing.T) {
	for _, arm := range []string{"lazy", "eager"} {
		t.Run(arm, func(t *testing.T) {
			pinned(t, keyless, []string{"SELECT t.id, u.g, t.v FROM t JOIN u ON t.fk = u.uid WHERE u.g <> 'x' AND t.v >= 1"}, nil, 150, replay{arm: arm})
		})
	}
}

// TestPropertyJoinAggregate: a join-aggregate view under Listing 2's
// upsert-left-join combine.
func TestPropertyJoinAggregate(t *testing.T) {
	t.Run("upsert_left_join", func(t *testing.T) {
		pinned(t, keyless, []string{"SELECT u.g, SUM(t.v) AS total, COUNT(*) AS cnt FROM t JOIN u ON t.fk = u.uid GROUP BY u.g"}, nil, 120, replay{arm: "lazy"})
	})
}

// TestPropertyTwoViewsSharedBase: two views over one table, refreshed
// apart, share its delta.
func TestPropertyTwoViewsSharedBase(t *testing.T) {
	pinned(t, keyless, []string{
		"SELECT k, SUM(v) AS s, COUNT(*) AS cnt FROM t GROUP BY k",
		"SELECT k, MAX(v) AS hi, COUNT(*) AS cnt FROM t GROUP BY k",
	}, nil, 120, replay{arm: "lazy"})
}

// groupShapes are grouped aggregate views on a single and a composite
// key, with a declared COUNT(*) and (sum_only) with the hidden one, whose
// group's SUM often nets to 0 while it has rows.
var groupShapes = []struct{ name, def string }{
	{"single", "SELECT k, SUM(v) AS s, COUNT(*) AS cnt FROM t GROUP BY k"},
	{"composite", "SELECT k, d, SUM(v) AS s, COUNT(*) AS cnt FROM t GROUP BY k, d"},
	{"sum_only", "SELECT k, SUM(v) AS s FROM t GROUP BY k"},
}

// TestPropertyEmptiedGroups is the invariant for step 3 — groups whose
// count reaches zero leave the view, found through V's key — lazy and
// eager, with no NULL-keyed group in V (upsert_left_join) and with NULL
// keys (null_key: the NULL-safe lookup finds them through the key too).
// A script empties a group, empties and refills one inside one window,
// refills one and empties it again, and empties the table; drawn writes
// that delete whole groups follow.
func TestPropertyEmptiedGroups(t *testing.T) {
	nullRow := "INSERT INTO t VALUES (999, 0, NULL, NULL, 1, NULL)"
	for arm, nullKey := range map[string]bool{"upsert_left_join": false, "null_key": true} {
		then := []string{
			"DELETE FROM t WHERE k = 'b'", txntest.CheckViews,
			"DELETE FROM t WHERE k = 'a'", "INSERT INTO t VALUES (1000, 0, 'a', 0.5, 3, 1)", txntest.CheckViews,
			"INSERT INTO t VALUES (1001, 0, 'b', 1.5, 1, 2), (1002, 0, 'a|', -1.5, 2, 3)", "DELETE FROM t WHERE k = 'b'", txntest.CheckViews,
			"DELETE FROM t", txntest.CheckViews,
		}
		if nullKey {
			then = append([]string{nullRow}, append(then, nullRow)...)
		}
		for _, mode := range []string{"lazy", "eager"} {
			for _, sh := range groupShapes {
				t.Run(arm+"_"+mode+"_"+sh.name, func(t *testing.T) {
					def := sh.def
					if !nullKey {
						def = strings.Replace(def, " GROUP BY", " WHERE k IS NOT NULL AND d IS NOT NULL GROUP BY", 1)
					}
					pinned(t, keyless, []string{def}, then, 120, replay{arm: mode})
				})
			}
		}
	}
}

// TestPropertyNullGroups: groups whose key holds a NULL are maintained like
// any other — step 2 finds their row of V through IS NOT DISTINCT FROM,
// the MIN/MAX repair recomputes them, and step 3 removes them once emptied
// — on a single and a composite key, a MIN/MAX view and a join-aggregate
// view, each declaring COUNT(*) (count_star) and not (hidden_count). A
// subtest is named <count>_duckdb_<shape>: the extension in the engine,
// the paper's DuckDB mode. A script grows NULL groups, takes their least
// and greatest rows, empties them beside a whole-keyed one, and refills
// and empties one again.
func TestPropertyNullGroups(t *testing.T) {
	shapes := []struct{ name, def string }{
		{"single", "SELECT k, SUM(v) AS s, COUNT(*) AS cnt FROM t GROUP BY k"},
		{"composite", "SELECT k, d, SUM(v) AS s, COUNT(*) AS cnt FROM t GROUP BY k, d"},
		{"minmax", "SELECT k, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS cnt FROM t GROUP BY k"},
		{"join", "SELECT t.k, SUM(t.v) AS s, COUNT(*) AS cnt FROM t JOIN u ON t.fk = u.uid GROUP BY t.k"},
	}
	then := []string{
		"INSERT INTO t VALUES (1000, 0, NULL, 1.5, 5, 1), (1001, 0, NULL, 1.5, 6, 1), (1002, 0, 'd', NULL, 7, 1), (1003, 0, NULL, NULL, 1, 2)", txntest.CheckViews,
		"INSERT INTO t VALUES (1004, 0, NULL, 1.5, 7, 1), (1005, 0, NULL, 0.5, 2, 2)", txntest.CheckViews,
		"DELETE FROM t WHERE k IS NULL AND (v = 2 OR v = 7)", txntest.CheckViews,
		"DELETE FROM t WHERE k IS NULL OR d IS NULL OR k = 'b'", txntest.CheckViews,
		"INSERT INTO t VALUES (1006, 0, NULL, 1.5, 3, 1), (1007, 0, 'a', 1.5, 1, 1)", txntest.CheckViews,
		"DELETE FROM t WHERE k IS NULL OR k = 'a'",
	}
	for _, count := range []string{"count_star", "hidden_count"} {
		for _, sh := range shapes {
			def := sh.def
			if count == "hidden_count" {
				def = strings.Replace(def, ", COUNT(*) AS cnt", "", 1)
			}
			t.Run(count+"_duckdb_"+sh.name, func(t *testing.T) {
				pinned(t, keyless, []string{def}, then, 0, replay{arm: "lazy"})
			})
		}
	}
}

// TestPropertyNullRows: a projection or join view finds the rows it must
// delete through its key, all its columns, and a row holding a NULL is
// found too (a plain IN never matches it). Values that concatenate alike
// stay apart: ('a|', 'x') is not ('a', '|x').
func TestPropertyNullRows(t *testing.T) {
	for _, c := range []struct {
		name, def string
		then      []string
	}{
		{"projection", "SELECT k, v FROM t WHERE k <> 'zz'", []string{
			"INSERT INTO t VALUES (1000, 0, 'b', NULL, NULL, NULL)", txntest.CheckViews,
			"DELETE FROM t WHERE k = 'b'", txntest.CheckViews,
			"INSERT INTO t VALUES (1001, 0, NULL, NULL, 2, NULL), (1002, 0, 'c', NULL, NULL, NULL), (1003, 0, 'a|', NULL, 3, NULL), (1004, 0, 'a', NULL, 4, NULL)", txntest.CheckViews,
			"DELETE FROM t WHERE v IS NULL OR v = 4",
		}},
		{"separator", "SELECT t.k, u.g FROM t JOIN u ON t.fk = u.uid", []string{
			"INSERT INTO u VALUES (10, 0, 'x', 1), (11, 0, '|x', 1), (12, 0, '11', 1), (13, 0, '1', 1)",
			"INSERT INTO t VALUES (1000, 0, 'a|', NULL, 1, 10), (1001, 0, 'a', NULL, 1, 11), (1002, 0, '1', NULL, 1, 12), (1003, 0, '11', NULL, 1, 13)", txntest.CheckViews,
			"DELETE FROM t WHERE k = 'a|' OR k = '11'",
		}},
		{"join", "SELECT t.id, u.g, t.v FROM t JOIN u ON t.fk = u.uid", []string{
			"INSERT INTO u VALUES (10, 0, NULL, 1), (11, 0, 'eu', 1)",
			"INSERT INTO t VALUES (1000, 0, 'a', NULL, 5, 10), (1001, 0, 'a', NULL, NULL, 11), (1002, 0, 'a', NULL, 7, 11)", txntest.CheckViews,
			"DELETE FROM t WHERE id = 1001", txntest.CheckViews,
			"DELETE FROM u WHERE uid = 10",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			pinned(t, keyless, []string{c.def}, c.then, 0, replay{arm: "lazy"})
		})
	}
}

// TestPropertyPointReads: reading a grouped view one group at a time gives
// the query's row for the group, or nothing for an absent one — in the lazy
// arm straight after the writes that left the view stale (the point read
// refreshes it). A read that names the key goes through V's key index
// (index=true); one over an expression of the key columns (`k || ”`,
// `d + 0`) scans (index=false); checkAccessPaths asserts both plans.
func TestPropertyPointReads(t *testing.T) {
	for _, index := range []bool{true, false} {
		for _, mode := range []string{"lazy", "eager"} {
			for _, sh := range groupShapes[:2] {
				t.Run(fmt.Sprintf("index=%v_%s_%s", index, mode, sh.name), func(t *testing.T) {
					pinned(t, keyless, []string{sh.def}, nil, 120, replay{arm: mode, reads: []bool{!index}})
				})
			}
		}
	}
}

// TestPropertyDuplicateRows: keyless projection and join views over
// keyless tables, whose rows repeat, hold NULLs in every column, and are
// copied, changed and deleted one copy at a time (by an id the views do
// not select) or all at once (by value), some inside one transaction.
func TestPropertyDuplicateRows(t *testing.T) {
	for _, arm := range []string{"eager", "lazy"} {
		t.Run(arm, func(t *testing.T) {
			pinned(t, keyless, []string{
				"SELECT k, v FROM t WHERE v IS NULL OR v < 2",
				"SELECT k, v + 1 AS v1, 7 AS seven FROM t",
				"SELECT t.k, u.w, t.v FROM t JOIN u ON t.fk = u.uid",
			}, nil, 200, replay{arm: arm, key: "keyless"})
		})
	}
}

// TestPropertyKeyedViews: keyed projection views — composite and single
// key — and a keyed FK→PK join view, under key-changing UPDATEs, INSERT OR
// REPLACE of unchanged and of changed rows, a delete and re-insert of one
// row in one transaction, rows crossing the WHERE threshold both ways,
// statements that break a primary key, and u rows that move, vanish and
// change their key.
func TestPropertyKeyedViews(t *testing.T) {
	for _, arm := range []string{"eager", "lazy"} {
		t.Run(arm, func(t *testing.T) {
			pinned(t, []string{"pk2", "pk"}, []string{
				"SELECT id, n, k, v, fk FROM t WHERE v >= 1",
				"SELECT uid, g, w FROM u WHERE w > 0",
				"SELECT t.id, t.n, u.g, t.v FROM t JOIN u ON t.fk = u.uid WHERE t.v >= 0",
			}, nil, 200, replay{arm: arm, key: "keyed"})
		})
	}
}
