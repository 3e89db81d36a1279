package engine_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/ivmext"
	"openivm/internal/sqlparser"
)

// statementKeywords are the first keywords of the texts the corpus takes
// from the test sources; anything else (a WHERE fragment, a message) is
// not a statement.
var statementKeywords = map[string]bool{
	"SELECT": true, "WITH": true, "VALUES": true, "INSERT": true, "UPDATE": true, "DELETE": true,
	"CREATE": true, "DROP": true, "BEGIN": true, "COMMIT": true, "ROLLBACK": true,
	"EXPLAIN": true, "REFRESH": true, "TRUNCATE": true,
}

// formatVerb marks a string literal that is a fmt template, not SQL.
var formatVerb = regexp.MustCompile(`%[-+# 0-9.]*[a-zA-Z]`)

// statementCorpus returns, per test function of the Go test files in
// dirs, the SQL statements its string literals spell, in source order —
// a call to a function of the same package (a setup helper) contributing
// that function's statements where it is made.
func statementCorpus(t *testing.T, dirs ...string) map[string][]string {
	t.Helper()
	corpus := map[string][]string{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		// items holds each function's statements and, as "call:name", the
		// calls it makes, in source order.
		items := map[string][]string{}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || fn.Recv != nil {
					continue
				}
				name := fn.Name.Name
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.CallExpr:
						if id, ok := x.Fun.(*ast.Ident); ok {
							items[name] = append(items[name], "call:"+id.Name)
						}
					case *ast.BasicLit:
						if sql, ok := statementText(x); ok {
							items[name] = append(items[name], sql)
						}
					}
					return true
				})
			}
		}
		var expand func(name string, depth int) []string
		expand = func(name string, depth int) []string {
			var out []string
			for _, it := range items[name] {
				if callee, ok := strings.CutPrefix(it, "call:"); ok {
					if depth < 3 && callee != name {
						out = append(out, expand(callee, depth+1)...)
					}
					continue
				}
				out = append(out, it)
			}
			return out
		}
		for name := range items {
			if strings.HasPrefix(name, "Test") {
				if stmts := expand(name, 0); len(stmts) > 0 {
					corpus[filepath.Base(dir)+"."+name] = stmts
				}
			}
		}
	}
	return corpus
}

// statementText is the SQL a string literal spells, if it is a statement.
func statementText(lit *ast.BasicLit) (string, bool) {
	if lit.Kind != token.STRING {
		return "", false
	}
	sql, err := strconv.Unquote(lit.Value)
	if err != nil || formatVerb.MatchString(sql) {
		return "", false
	}
	toks, err := sqlparser.Tokenize(sql)
	if err != nil || toks[0].Kind != sqlparser.TokKeyword || !statementKeywords[toks[0].Text] {
		return "", false
	}
	return strings.TrimSpace(sql), true
}

// outcomeOf renders what a statement returned: its error, or its columns,
// rows affected and rows (sorted: plans may differ in the order a scan
// delivers rows, never in the rows).
func outcomeOf(res *engine.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r.String()
	}
	sort.Strings(rows)
	return fmt.Sprintf("%v affected=%d %v", res.Columns, res.RowsAffected, rows)
}

// strategyWords are the EXPLAIN operator names that say how a statement
// finds its rows.
var strategyWords = regexp.MustCompile(`\b(KeyedScan|Scan|IndexJoin|HashJoin|NestedLoop|KeyedDelete|ScanDelete|KeyedUpdate|ScanUpdate|Truncate|Insert|Upsert)\b`)

func strategies(plan string) string {
	return strings.Join(strategyWords.FindAllString(plan, -1), " ")
}

// TestLiftedMatchesVerbatim is the differential test of literal lifting:
// every statement of the engine and ivmext test corpora — the SQL string
// literals of each test function, replayed in order on two fresh
// databases, one lifting literals and one keeping them in the text — gives
// the same columns, rows, rows affected and error both ways, and EXPLAIN
// of each SELECT, INSERT, UPDATE and DELETE names the same strategies.
func TestLiftedMatchesVerbatim(t *testing.T) {
	corpus := statementCorpus(t, ".", "../ivmext")
	names := make([]string, 0, len(corpus))
	total := 0
	for name, stmts := range corpus {
		names = append(names, name)
		total += len(stmts)
	}
	sort.Strings(names)
	if total < 1000 {
		t.Fatalf("the corpus holds %d statements of %d test functions: the extraction broke", total, len(names))
	}
	for _, name := range names {
		lifted, verbatim := engine.Open("lifted", engine.DialectDuckDB), engine.Open("verbatim", engine.DialectDuckDB)
		ivmext.Install(lifted)
		ivmext.Install(verbatim)
		engine.SetVerbatim(verbatim, true)
		ls, vs := lifted.NewSession(), verbatim.NewSession()
		for _, sql := range corpus[name] {
			if ks, err := sqlparser.Lift(sql, true); err == nil && len(ks) == 1 {
				switch first := strings.Fields(string(ks[0].Key) + " x")[0]; first {
				case "SELECT", "WITH", "INSERT", "UPDATE", "DELETE":
					lp, lerr := engine.ExplainLifted(ls, sql)
					vr, verr := vs.Exec("EXPLAIN " + sql)
					var vp string
					if verr == nil {
						for _, r := range vr.Rows {
							vp += r[0].S + "\n"
						}
					}
					if (lerr == nil) != (verr == nil) || strategies(lp) != strategies(vp) {
						t.Errorf("%s: EXPLAIN %s\n lifted   %v\n%s\n verbatim %v\n%s", name, sql, lerr, lp, verr, vp)
					}
				}
			}
			got, want := outcomeOf(ls.Exec(sql)), outcomeOf(vs.Exec(sql))
			if got != want {
				t.Errorf("%s: %s\n lifted   %s\n verbatim %s", name, sql, got, want)
			}
		}
		ls.Close()
		vs.Close()
		lifted.Close()
		verbatim.Close()
	}
	t.Logf("%d statements of %d test functions", total, len(names))
}

// TestLiftEdgeCases runs statements whose literals sit where lifting is
// delicate — signs, casts, kinds against key columns, IN lists, LIMIT and
// ordinals, VALUES lists that lift whole or cell by cell, conflict
// clauses, subqueries, a maintained view. TestLiftedMatchesVerbatim, which
// takes every test function's statements for its corpus, compares each of
// them lifted and verbatim; here each must simply run.
func TestLiftEdgeCases(t *testing.T) {
	db := engine.Open("edge", engine.DialectDuckDB)
	ivmext.Install(db)
	s := db.NewSession()
	defer s.Close()
	for _, sql := range []string{
		"CREATE TABLE e (k INTEGER PRIMARY KEY, d DOUBLE, s VARCHAR, b BOOLEAN)",
		"CREATE MATERIALIZED VIEW ev AS SELECT b, SUM(d) AS sd, COUNT(*) AS n FROM e GROUP BY b",
		"INSERT INTO e VALUES (1, -1.5, 'a', TRUE), (2, 0.0, 'b''c', FALSE), (3, -0.0, NULL, NULL)",
		"INSERT INTO e VALUES (4, 2.5e3, 'x', TRUE)",
		"INSERT INTO e (k, s) VALUES (5, 'only')",
		"INSERT INTO e VALUES (6, -7, 'neg', FALSE), (7, +8, 'pos', TRUE)",
		"INSERT INTO e VALUES (8, 1 + 1, 'sum', TRUE), (10, -2::DOUBLE, 'cast', FALSE)",
		"SELECT sd, n FROM ev WHERE b = TRUE",
		"SELECT k FROM e WHERE d < -1 ORDER BY k",
		"SELECT k, d - 1 FROM e WHERE k - 1 = 2",
		"SELECT k FROM e WHERE d = -0.0 ORDER BY k",
		"SELECT k FROM e WHERE k IN (1, 3, -2, 7) ORDER BY k",
		"SELECT k FROM e WHERE k BETWEEN 2 AND 5 AND s LIKE 'b_c' ORDER BY k",
		"SELECT CASE WHEN d > 0 THEN 'pos' ELSE 'neg' END, k FROM e WHERE k <> 5 ORDER BY 2",
		"SELECT k FROM e WHERE d = -5::DOUBLE - -3",
		"SELECT k FROM e WHERE k = 2 + 3",
		"SELECT k FROM e WHERE k = '3'",
		"SELECT k FROM e WHERE k = 3.0",
		"SELECT k FROM e WHERE k = 9223372036854775807",
		"SELECT COUNT(*) FROM e WHERE b = TRUE",
		"SELECT k, 10 FROM e WHERE k > 1 ORDER BY k LIMIT 2",
		"SELECT k FROM e ORDER BY 1 DESC LIMIT 3 OFFSET 1",
		"SELECT d, COUNT(*) FROM e WHERE k < 4 GROUP BY 1 HAVING COUNT(*) > 0 ORDER BY 1",
		"SELECT k FROM e WHERE NOT (k = 1) AND k < 5 ORDER BY k",
		"SELECT k FROM e WHERE 1 = 1 AND k = 1",
		"SELECT COALESCE(s, 'none') FROM e WHERE k = 3",
		"SELECT k, d FROM e WHERE d BETWEEN -10 AND -0.5 ORDER BY k",
		"UPDATE e SET d = d * -2, s = s || '!' WHERE k IN (1, 2)",
		"UPDATE e SET s = 'k=5' WHERE k = 5",
		"DELETE FROM e WHERE k = 7 OR d > 1000",
		"INSERT INTO e VALUES (9, 1, 'x', TRUE) ON CONFLICT (k) DO UPDATE SET d = 99",
		"INSERT INTO e VALUES (9, 2, 'y', FALSE) ON CONFLICT (k) DO UPDATE SET d = excluded.d + 100",
		"INSERT OR REPLACE INTO e VALUES (9, -3, 'z', TRUE)",
		"SELECT * FROM e WHERE k = 9",
		"SELECT e1.k, e2.k FROM e AS e1 JOIN e AS e2 ON e1.k = e2.k + 1 AND e2.d > -100 ORDER BY 1",
		"SELECT k FROM e WHERE k IN (SELECT k FROM e WHERE d < 0) ORDER BY k",
		"SELECT (SELECT MAX(k) FROM e WHERE d < 5) FROM e LIMIT 1",
		"WITH c AS (SELECT k FROM e WHERE k > 2) SELECT COUNT(*) FROM c",
		"INSERT INTO e SELECT k + 100, d, s, b FROM e WHERE k < 3",
		"SELECT sd, n FROM ev WHERE b = FALSE",
		"DELETE FROM e WHERE s IS NULL",
		"SELECT b, sd, n FROM ev ORDER BY 1",
		"SELECT SUM(col0), MAX(col1) FROM (VALUES (1, 'a'), (2, 'b')) AS v",
		"SELECT SUM(col0), MAX(col1) FROM (VALUES (1.5, 'a'), (2.25, 'b')) AS v",
		"SELECT k, GREATEST(k, 2) FROM e WHERE GREATEST(k, 2) = 2 ORDER BY k",
		"SELECT k, GREATEST(k, 2.5) FROM e WHERE GREATEST(k, 2.5) = 2.5 ORDER BY k",
	} {
		if _, err := s.Exec(sql); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
}

// TestLiftConcurrentSameShape: sessions run statements of one shape at
// once, each with literals of its own — point reads, range reads,
// multi-row inserts and keyed updates — and each sees only its own values
// (run under -race in CI).
func TestLiftConcurrentSameShape(t *testing.T) {
	db := engine.Open("concurrent", engine.DialectDuckDB)
	ivmext.Install(db)
	admin := db.NewSession()
	defer admin.Close()
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for k := 0; k < 400; k++ {
		if k > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, 'v%d')", k, k)
	}
	for _, sql := range []string{
		"CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR)",
		sb.String(),
		"CREATE TABLE w (owner INTEGER, n INTEGER, s VARCHAR)",
		"CREATE MATERIALIZED VIEW wv AS SELECT owner, SUM(n) AS total, COUNT(*) AS c FROM w GROUP BY owner",
	} {
		if _, err := admin.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	const sessions, rounds = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			check := func(sql, want string) bool {
				res, err := s.Exec(sql)
				if got := outcomeOf(res, err); got != want {
					t.Errorf("session %d: %s\n got  %s\n want %s", g, sql, got, want)
					return false
				}
				return true
			}
			for i := 0; i < rounds; i++ {
				k := (g*rounds + i) % 400
				lo := (g * 50) % 400
				ok := check(fmt.Sprintf("SELECT v FROM t WHERE k = %d", k), fmt.Sprintf("[v] affected=0 [v%d]", k)) &&
					check(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE k >= %d AND k < %d", lo, lo+g+1), fmt.Sprintf("[count(*)] affected=0 [%d]", g+1)) &&
					check(fmt.Sprintf("INSERT INTO w VALUES (%d, %d, 's%d'), (%d, -1, 'x')", g, i, g, g), "[] affected=2 []") &&
					check(fmt.Sprintf("SELECT total, c FROM wv WHERE owner = %d", g),
						fmt.Sprintf("[total c] affected=0 [%d|%d]", i*(i+1)/2-(i+1), 2*(i+1))) &&
					check(fmt.Sprintf("UPDATE w SET s = 'u%d' WHERE owner = %d AND n = %d", g, g, i), "[] affected=1 []")
				if !ok {
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
