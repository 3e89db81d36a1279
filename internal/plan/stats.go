package plan

import (
	"slices"

	"openivm/internal/catalog"
	"openivm/internal/sqlparser"
)

// SourceRows returns how many rows n reads from its source, when that is
// known before n runs: n is a Scan or a Values, reached through
// single-input nodes that never add rows (Filter, Project, Aggregate,
// Distinct, Sort, Limit). The count is the table's RowCount — exact, and
// read without a scan — or the number of literal rows, and it bounds what
// n emits. ok is false for a join or a set operation, whose size is
// learned by draining it. This is the only size the planner and the
// executor reason from; no selectivity is ever guessed.
func SourceRows(n Node) (rows int, ok bool) {
	for {
		switch x := n.(type) {
		case *Scan:
			return x.Table.RowCount(), true
		case *Values:
			return len(x.Rows) + len(x.LiftedRows()), true
		case *Filter:
			n = x.Input
		case *Project:
			n = x.Input
		case *Aggregate:
			n = x.Input
		case *Distinct:
			n = x.Input
		case *Sort:
			n = x.Input
		case *Limit:
			n = x.Input
		default:
			return 0, false
		}
	}
}

// BuildSide says which input of j is drained as the build side: the left
// one when both inputs' SourceRows are known and the left holds fewer,
// otherwise the right. rows is the build side's SourceRows and known
// whether there is one. Building the smaller input wins twice: the build
// side is what gets materialized, and it is what an index join iterates.
// The IVM shape — a delta joined against its base — builds the delta side
// and probes the base's key.
func (j *Join) BuildSide() (left bool, rows int, known bool) {
	l, lok := SourceRows(j.Left)
	r, rok := SourceRows(j.Right)
	if lok && rok && l < r {
		return true, l, true
	}
	return false, r, rok
}

// JoinAlgo is the physical algorithm a Join runs as.
type JoinAlgo uint8

const (
	// NestedLoopJoin pairs every probe row with every build row and leaves
	// the match to the residual predicate (cross and theta joins).
	NestedLoopJoin JoinAlgo = iota
	// HashJoin hashes the build side on the equi keys and streams the whole
	// probe side through it.
	HashJoin
	// IndexJoin never scans the probe side: it probes the probe table's
	// key index once per build row.
	IndexJoin
)

// indexJoinMinFanout is how many times more keys than the drained build
// side has rows the probe table's index must hold for an index join to
// replace the hash join (for a primary key, how many times more rows the
// table must hold). The hash path pays one hash probe per probe-table row,
// the index path one index probe per build row and one fetch per row it
// finds, about build rows × rows per key; so the index wins once the table
// outnumbers what the index path reads by the ratio of the per-row costs.
// Counting keys rather than rows keeps a build side that covers most of a
// non-unique key's values (a view's population joining all customers to
// their orders) on the hash path: through per-tag chains, with 4 to 64 rows
// per key, an index join that finds half the table is 1.2–1.5× slower than
// the hash join, one that finds an eighth 1.4–1.9× faster. Measured
// crossover (unique, all-matching INTEGER keys into a 65 536-row table,
// sweeping |probe|/|build| over 1…512; tables in CHANGES.md): through the
// primary key the index path is ahead from 2× (24.3 vs 28.0 ms); through a
// secondary index's per-tag chains from 2× too (24.7 vs 27.9 ms), level at
// 4× (14.4 vs 14.9 ms), 1.5× ahead at 8× (6.0 vs 8.8 ms). The
// lead below 8× is small, and a bulk delta keeps the hash path, so 8 stays:
// from there the index path's time falls with the build side while the
// hash path's stays at the table scan.
const indexJoinMinFanout = 8

// JoinStrategy is the physical plan of one Join: the algorithm, and for an
// index join how the probe table is reached.
type JoinStrategy struct {
	Algo JoinAlgo
	// Probe is the probe-side table access an index join replaces with key
	// probes; its pushed-down Filter and Projection apply to every fetched
	// row. Index is the key index probed, BuildKeys the build-side
	// positions of the key values, one per Index.Cols entry, and NullSafe
	// which of them match a NULL (Join.EquiNullSafe).
	Probe     *Scan
	Index     catalog.KeyIndex
	BuildKeys []int
	NullSafe  []bool
}

// ChooseJoin picks the strategy for j given which side is built and how
// many rows the build side holds. The executor calls it once the build side
// is drained, with the exact count — the prepared plan is cached across
// refreshes while |ΔT| swings from a few rows to a bulk load, so the choice
// cannot live in the plan; EXPLAIN calls it with the build side's
// SourceRows, the count the executor will drain. It decides from structural
// facts only: an index join needs the probe side to be a bare table scan
// whose equi-key columns are exactly the table's primary key or one
// secondary index, key columns of the same type on both sides, a probe side
// whose unmatched rows the join does not preserve (finding those takes the
// scan), and an index holding at least indexJoinMinFanout times as many
// keys as the build side has rows — the counts are exact or, for a
// secondary index's keys, its hash tags, all O(1), so no estimator is
// involved.
func ChooseJoin(j *Join, buildLeft bool, buildRows int) JoinStrategy {
	s := JoinStrategy{Algo: HashJoin}
	if len(j.EquiLeft) == 0 {
		s.Algo = NestedLoopJoin
		return s
	}
	build, probe := j.Right, j.Left
	buildKeys, probeKeys := j.EquiRight, j.EquiLeft
	probePreserved := j.Kind == sqlparser.JoinLeft
	if buildLeft {
		build, probe = j.Left, j.Right
		buildKeys, probeKeys = j.EquiLeft, j.EquiRight
		probePreserved = j.Kind == sqlparser.JoinRight
	}
	scan, ok := probe.(*Scan)
	if !ok || probePreserved || j.Kind == sqlparser.JoinFull {
		return s
	}
	if buildRows*indexJoinMinFanout > scan.Table.RowCount() {
		return s
	}
	// The probe keys in the table's own column numbering.
	cols := make([]int, len(probeKeys))
	for k, c := range probeKeys {
		if scan.Projection != nil {
			c = scan.Projection[c]
		}
		cols[k] = c
	}
	idx, ok := scan.Table.KeyIndexOn(cols)
	if !ok || buildRows*indexJoinMinFanout > idx.Keys {
		return s
	}
	buildSchema := build.Schema()
	keys := make([]int, len(idx.Cols))
	nullSafe := make([]bool, len(idx.Cols))
	for i, c := range idx.Cols {
		k := slices.Index(cols, c)
		if buildSchema[buildKeys[k]].Type != scan.Table.Columns[c].Type {
			return s
		}
		keys[i], nullSafe[i] = buildKeys[k], j.EquiNullSafe[k]
	}
	s.Algo, s.Probe, s.Index, s.BuildKeys, s.NullSafe = IndexJoin, scan, idx, keys, nullSafe
	return s
}
