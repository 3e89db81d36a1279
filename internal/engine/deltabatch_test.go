package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"openivm/internal/sqltypes"
)

// deltaReplica is one engine the property test replays a delta stream
// into, with a trigger that records the captured ΔT as (row, mult) lines.
type deltaReplica struct {
	db     *DB
	s      *Session
	deltaT []string
}

func newDeltaReplica(t *testing.T, keyed bool) *deltaReplica {
	t.Helper()
	r := &deltaReplica{db: Open("replica", DialectDuckDB)}
	ddl := "CREATE TABLE m (k INTEGER, v INTEGER)"
	if keyed {
		ddl = "CREATE TABLE m (k INTEGER, v INTEGER, PRIMARY KEY (k))"
	}
	mustExec(t, r.db, ddl)
	r.db.AddTrigger("m", "capture", []TriggerEvent{TrigInsert, TrigDelete, TrigUpdate},
		func(_ *Session, _ string, ev TriggerEvent, oldRows, newRows []sqltypes.Row) error {
			if ev == TrigUpdate {
				return fmt.Errorf("delta replay fired an UPDATE event")
			}
			for _, row := range oldRows {
				r.deltaT = append(r.deltaT, row.String()+"|-")
			}
			for _, row := range newRows {
				r.deltaT = append(r.deltaT, row.String()+"|+")
			}
			return nil
		})
	r.s = r.db.NewSession()
	return r
}

func (r *deltaReplica) contents(t *testing.T) string {
	t.Helper()
	res, err := r.s.Exec("SELECT k, v FROM m")
	if err != nil {
		t.Fatal(err)
	}
	return sortedLines(rowStrings(res.Rows))
}

func rowStrings(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func sortedLines(lines []string) string {
	sorted := append([]string(nil), lines...)
	sort.Strings(sorted)
	return strings.Join(sorted, ";")
}

// zsetModel is the oracle: a multiset of rows, with the key constraint of
// a keyed table. apply mutates a copy and reports whether the whole batch
// is legal — any illegal op makes the batch a no-op.
type zsetModel struct {
	keyed bool
	count map[[2]int64]int
}

func (m *zsetModel) apply(rows []sqltypes.Row, insert []bool) bool {
	next := make(map[[2]int64]int, len(m.count))
	for k, n := range m.count {
		next[k] = n
	}
	for i, r := range rows {
		kv := [2]int64{r[0].I, r[1].I}
		if !insert[i] {
			if next[kv] == 0 {
				return false
			}
			next[kv]--
			continue
		}
		if m.keyed {
			for other, n := range next {
				if other[0] == kv[0] && n > 0 {
					return false
				}
			}
		}
		next[kv]++
	}
	m.count = next
	return true
}

func (m *zsetModel) contents() string {
	var lines []string
	for kv, n := range m.count {
		for ; n > 0; n-- {
			lines = append(lines, sqltypes.Row{sqltypes.NewInt(kv[0]), sqltypes.NewInt(kv[1])}.String())
		}
	}
	return sortedLines(lines)
}

// TestApplyDeltaBatchMatchesRowAtATime: over random delta streams —
// duplicates, insert-then-retract and retract-then-reinsert of one key
// inside a batch, retractions with no matching row — ApplyDeltaBatch
// leaves the table and the captured ΔT exactly as row-at-a-time replay
// does, and a batch with an illegal op leaves both untouched.
func TestApplyDeltaBatchMatchesRowAtATime(t *testing.T) {
	for _, keyed := range []bool{true, false} {
		keyed := keyed
		t.Run(fmt.Sprintf("keyed=%v", keyed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			for trial := 0; trial < 60; trial++ {
				batched, single := newDeltaReplica(t, keyed), newDeltaReplica(t, keyed)
				model := &zsetModel{keyed: keyed, count: map[[2]int64]int{}}
				var wantDeltaT []string
				for b := 0; b < 25; b++ {
					rows, insert := randomDeltaBatch(rng, model)
					legal := model.apply(rows, insert)

					err := batched.s.ApplyDeltaBatch("m", rows, insert)
					if (err == nil) != legal {
						t.Fatalf("trial %d batch %d %s: ApplyDeltaBatch error = %v, oracle says legal = %v",
							trial, b, describeBatch(rows, insert), err, legal)
					}

					// Row-at-a-time reference: one ApplyDeltaRow per delta,
					// inside a transaction so an illegal batch rolls back.
					mustSess(t, single.s, "BEGIN")
					var rerr error
					for i := range rows {
						if rerr = single.s.ApplyDeltaRow("m", rows[i], insert[i]); rerr != nil {
							break
						}
					}
					if (rerr == nil) != legal {
						t.Fatalf("trial %d batch %d %s: row-at-a-time error = %v, oracle says legal = %v",
							trial, b, describeBatch(rows, insert), rerr, legal)
					}
					if legal {
						mustSess(t, single.s, "COMMIT")
						for i, r := range rows {
							sign := "|-"
							if insert[i] {
								sign = "|+"
							}
							wantDeltaT = append(wantDeltaT, r.String()+sign)
						}
					} else {
						mustSess(t, single.s, "ROLLBACK")
					}

					want := model.contents()
					if got := batched.contents(t); got != want {
						t.Fatalf("trial %d batch %d %s: batched table\n got  %s\n want %s", trial, b, describeBatch(rows, insert), got, want)
					}
					if got := single.contents(t); got != want {
						t.Fatalf("trial %d batch %d %s: row-at-a-time table\n got  %s\n want %s", trial, b, describeBatch(rows, insert), got, want)
					}
					wantDT := sortedLines(wantDeltaT)
					if got := sortedLines(batched.deltaT); got != wantDT {
						t.Fatalf("trial %d batch %d %s: batched ΔT\n got  %s\n want %s", trial, b, describeBatch(rows, insert), got, wantDT)
					}
					if got := sortedLines(single.deltaT); got != wantDT {
						t.Fatalf("trial %d batch %d: row-at-a-time ΔT\n got  %s\n want %s", trial, b, got, wantDT)
					}
				}
			}
		})
	}
}

func mustSess(t *testing.T, s *Session, sql string) {
	t.Helper()
	if _, err := s.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// randomDeltaBatch draws 1..10 deltas over a small domain, biased toward
// legal ones: most retractions name a row the table (or the batch so far)
// holds, a few name none.
func randomDeltaBatch(rng *rand.Rand, m *zsetModel) ([]sqltypes.Row, []bool) {
	scratch := &zsetModel{keyed: m.keyed, count: map[[2]int64]int{}}
	for k, n := range m.count {
		scratch.count[k] = n
	}
	n := 1 + rng.Intn(10)
	rows := make([]sqltypes.Row, 0, n)
	insert := make([]bool, 0, n)
	add := func(kv [2]int64, ins bool) {
		r := sqltypes.Row{sqltypes.NewInt(kv[0]), sqltypes.NewInt(kv[1])}
		rows = append(rows, r)
		insert = append(insert, ins)
		scratch.apply([]sqltypes.Row{r}, []bool{ins}) // best effort: tracks the legal prefix
	}
	for len(rows) < n {
		var present [][2]int64
		for kv, c := range scratch.count {
			if c > 0 {
				present = append(present, kv)
			}
		}
		sort.Slice(present, func(i, j int) bool {
			return present[i][0] < present[j][0] || (present[i][0] == present[j][0] && present[i][1] < present[j][1])
		})
		switch p := rng.Intn(100); {
		case p < 40 || len(present) == 0:
			add([2]int64{int64(rng.Intn(6)), int64(rng.Intn(3))}, true)
		case p < 75:
			add(present[rng.Intn(len(present))], false)
		case p < 90: // an upsert as the OLTP side captures it: retract, reinsert
			kv := present[rng.Intn(len(present))]
			add(kv, false)
			add([2]int64{kv[0], int64(rng.Intn(3))}, true)
		case p < 95: // insert, then retract the same row
			kv := [2]int64{int64(6 + rng.Intn(3)), int64(rng.Intn(3))}
			add(kv, true)
			add(kv, false)
		default:
			add([2]int64{int64(rng.Intn(9)), int64(rng.Intn(3))}, false)
		}
	}
	return rows, insert
}

func describeBatch(rows []sqltypes.Row, insert []bool) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, r := range rows {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if insert[i] {
			sb.WriteByte('+')
		} else {
			sb.WriteByte('-')
		}
		sb.WriteString(r.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// TestApplyDeltaBatchRejectsMismatchedLengths covers the argument check.
func TestApplyDeltaBatchRejectsMismatchedLengths(t *testing.T) {
	r := newDeltaReplica(t, true)
	row := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(1)}
	if err := r.s.ApplyDeltaBatch("m", []sqltypes.Row{row}, nil); err == nil {
		t.Fatal("batch with one row and no multiplicities was accepted")
	}
}
