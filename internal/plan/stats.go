package plan

import (
	"fmt"
	"slices"

	"openivm/internal/catalog"
	"openivm/internal/sqlparser"
)

// Hint is a semantics-preserving pass-through node carrying executor
// tuning knobs resolved at plan time — the batch size selected by PRAGMA
// batch_size and the scan parallelism selected by PRAGMA workers. The
// engine wraps the optimized plan root with it; the executor unwraps it
// and applies the knobs to the whole subtree.
type Hint struct {
	Input Node
	// BatchSize is the target rows-per-batch for the subtree (0 = executor
	// default).
	BatchSize int
	// Workers is the parallel-scan worker count for the subtree (0 =
	// executor default, one worker per CPU; 1 = serial).
	Workers int
}

// Schema implements Node.
func (h *Hint) Schema() []ColumnInfo { return h.Input.Schema() }

// Children implements Node.
func (h *Hint) Children() []Node { return []Node{h.Input} }

// Describe implements Node.
func (h *Hint) Describe() string {
	d := "Hint"
	if h.BatchSize > 0 {
		d += fmt.Sprintf(" batch_size=%d", h.BatchSize)
	}
	if h.Workers > 0 {
		d += fmt.Sprintf(" workers=%d", h.Workers)
	}
	return d
}

// BuildOnLeft reports whether a join over j should drain its left input as
// the build side and read the right one as the probe side, instead of the
// default right-side build. Building on the smaller input wins twice: the
// build side is what gets materialized, and it is what an index join
// iterates. The common IVM shape — a tiny delta table joined against a
// large base table — is exactly the case where the default right-side build
// is maximally wrong.
func BuildOnLeft(j *Join) bool {
	return EstimateRows(j.Left) < EstimateRows(j.Right)
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

// indexJoinMinFanout is how many times larger than the drained build side
// the probe table must be for an index join to replace the hash join. The
// hash path pays one hash probe per probe-table row, the index path one
// index probe per build row, so the index wins once the table outnumbers
// the build rows by the ratio of the two per-probe costs. Measured
// crossover (all-matching INTEGER keys into a 65 536-row table, sweeping
// |probe|/|build| over 1…512; table in CHANGES.md, PR 16): through the
// primary key the index path is already ahead at 2× (22.4 vs 26.6 ms);
// through a secondary ART index, whose probe costs about three hash
// probes, the two paths meet between 6× and 8×. 8 is the smallest ratio
// in the sweep at which neither kind of index loses; from there the
// index path's time falls with the build side while the hash path's stays
// at the table scan.
const indexJoinMinFanout = 8

// JoinStrategy is the physical plan of one Join: the algorithm, and for an
// index join how the probe table is reached.
type JoinStrategy struct {
	Algo JoinAlgo
	// Probe is the probe-side table access an index join replaces with key
	// probes; its pushed-down Filter and Projection apply to every fetched
	// row. Index is the key index probed, and BuildKeys the build-side
	// positions of the key values, one per Index.Cols entry.
	Probe     *Scan
	Index     catalog.KeyIndex
	BuildKeys []int
}

// ChooseJoin picks the strategy for j given which side is built and how
// many rows the build side holds. The executor calls it once the build side
// is drained, with the exact count — the prepared plan is cached across
// refreshes while |ΔT| swings from a few rows to a bulk load, so the choice
// cannot live in the plan; EXPLAIN calls it with the build side's estimate
// (exact when that side is a bare table scan). It decides from structural
// facts only: an index join needs the probe side to be a bare table scan
// whose equi-key columns are exactly the table's primary key or one
// secondary index, key columns of the same type on both sides, a probe side
// whose unmatched rows the join does not preserve (finding those takes the
// scan), and a probe table at least indexJoinMinFanout times the build
// side's size — both counts are exact and O(1), so no estimator is
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
	if !ok {
		return s
	}
	buildSchema := build.Schema()
	keys := make([]int, len(idx.Cols))
	for i, c := range idx.Cols {
		k := slices.Index(cols, c)
		if buildSchema[buildKeys[k]].Type != scan.Table.Columns[c].Type {
			return s
		}
		keys[i] = buildKeys[k]
	}
	s.Algo, s.Probe, s.Index, s.BuildKeys = IndexJoin, scan, idx, keys
	return s
}

// EstimateRows returns a coarse output-cardinality estimate for the node —
// exact for scans and values, heuristic elsewhere. The executor uses it to
// pre-size hash tables and output buffers; it must be cheap, not precise.
func EstimateRows(n Node) int {
	switch x := n.(type) {
	case *Scan:
		return x.Table.RowCount()
	case *Values:
		return len(x.Rows) + len(x.LiftedRows())
	case *Filter:
		// Selectivity guess: keep a third.
		return EstimateRows(x.Input)/3 + 1
	case *Project:
		return EstimateRows(x.Input)
	case *Hint:
		return EstimateRows(x.Input)
	case *Sort:
		return EstimateRows(x.Input)
	case *Distinct:
		return EstimateRows(x.Input)
	case *Aggregate:
		// Output is one row per group, bounded by the input.
		return EstimateRows(x.Input)
	case *Limit:
		est := EstimateRows(x.Input)
		if x.Limit >= 0 && int(x.Limit) < est {
			est = int(x.Limit)
		}
		return est
	case *Join:
		l, r := EstimateRows(x.Left), EstimateRows(x.Right)
		if len(x.EquiLeft) > 0 {
			// Equi join: assume roughly foreign-key shape.
			if l > r {
				return l
			}
			return r
		}
		// Cross/theta join, with overflow guarding.
		if l > 0 && r > (1<<30)/l {
			return 1 << 30
		}
		return l * r
	case *SetOp:
		return EstimateRows(x.Left) + EstimateRows(x.Right)
	}
	return 0
}
