package exec

import (
	"context"

	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// fusedScan executes a Scan→Filter→Project pipeline as one pass per batch,
// the columnar fast path of the engine:
//
//  1. the columns referenced by the filter predicates are loaded from the
//     row snapshot into typed vectors (only those columns — never the full
//     row);
//  2. the predicates run as compiled vector kernels producing a selection
//     vector of surviving row positions;
//  3. the output is produced for selected rows only: either the original
//     row references (no projection — zero materialization), or typed
//     output vectors gathered/computed by projection kernels (late
//     materialization: filtered-out rows are never lifted out of storage).
//
// No intermediate Batch exists between the fused stages, and every vector
// involved is owned by the iterator and recycled across batches, so the
// steady-state loop is allocation-free. Expressions the kernel compiler
// cannot handle keep the classic operator chain instead (see openBatch).
type fusedScan struct {
	rows []sqltypes.Row // row snapshot taken at open (live rows only)
	pos  int
	size int
	ctx  context.Context

	// Filter stage: full-schema columns to load, the compiled predicate
	// kernels, and their input-vector slice.
	filterLoads []colLoad
	filterVecs  []*sqltypes.Vector
	filters     []expr.Kernel
	sel         []int

	// Output stage. rowsOut emits original row references. Otherwise the
	// batch is columnar: projLoads are gathered by the selection vector and
	// either emitted directly (identity projection, outIdent) or fed to
	// projKernels.
	rowsOut     bool
	projLoads   []colLoad
	projSrc     []*sqltypes.Vector // filter-stage vector for the same column (nil = load from rows)
	projVecs    []*sqltypes.Vector
	projKernels []expr.Kernel
	outCols     []*sqltypes.Vector

	out  Batch
	slab valueSlab
}

// colLoad pairs a full-schema column position with the vector it loads
// into.
type colLoad struct {
	col int
	vec *sqltypes.Vector
}

// loadSet assigns input-vector slots to full-schema columns, one slot per
// distinct column.
type loadSet struct {
	loads  []colLoad
	byCol  map[int]int
	schema []plan.ColumnInfo
}

func newLoadSet(schema []plan.ColumnInfo) *loadSet {
	return &loadSet{byCol: make(map[int]int), schema: schema}
}

// slot returns the input slot for full-schema column col, registering a
// load (and its typed vector) on first use. Columns without a concrete
// vector type (TypeAny, TypeNull) refuse, forcing the classic fallback —
// loading them would silently degrade values to NULL.
func (ls *loadSet) slot(col int) (int, sqltypes.Type, bool) {
	if col < 0 || col >= len(ls.schema) {
		return 0, 0, false
	}
	switch ls.schema[col].Type {
	case sqltypes.TypeInt, sqltypes.TypeFloat, sqltypes.TypeBool, sqltypes.TypeString:
	default:
		return 0, 0, false
	}
	if s, ok := ls.byCol[col]; ok {
		return s, ls.schema[col].Type, true
	}
	s := len(ls.loads)
	ls.byCol[col] = s
	ls.loads = append(ls.loads, colLoad{col: col, vec: &sqltypes.Vector{T: ls.schema[col].Type}})
	return s, ls.schema[col].Type, true
}

func (ls *loadSet) vectors() []*sqltypes.Vector {
	out := make([]*sqltypes.Vector, len(ls.loads))
	for i, ld := range ls.loads {
		out[i] = ld.vec
	}
	return out
}

// newFusedScan compiles the matched pipeline into a fused iterator over a
// fresh snapshot of the whole table (openBatch fuses no keyed scan). ok is
// false when any predicate or projection expression falls outside the
// kernel compiler's reach; the caller then builds the classic chain.
func newFusedScan(scan *plan.Scan, filters []expr.Expr, proj *plan.Project, opts Options) (*fusedScan, bool) {
	full := scan.FullSchema()
	// outCol maps a scan-output column position to its full-schema
	// position (identity without projection pruning).
	outCol := func(c int) int {
		if scan.Projection == nil {
			return c
		}
		if c < 0 || c >= len(scan.Projection) {
			return -1
		}
		return scan.Projection[c]
	}

	it := &fusedScan{size: opts.BatchSize, ctx: opts.Ctx}

	// Predicates: the scan's own pushed-down filter is bound against the
	// full row; stacked Filter nodes are bound against the scan output.
	fl := newLoadSet(full)
	fullResolve := func(c int) (int, sqltypes.Type, bool) { return fl.slot(c) }
	outResolve := func(c int) (int, sqltypes.Type, bool) { return fl.slot(outCol(c)) }
	if scan.Filter != nil {
		k, ok := expr.CompilePredicate(scan.Filter, fullResolve)
		if !ok {
			return nil, false
		}
		it.filters = append(it.filters, k)
	}
	for _, f := range filters {
		k, ok := expr.CompilePredicate(f, outResolve)
		if !ok {
			return nil, false
		}
		it.filters = append(it.filters, k)
	}
	it.filterLoads = fl.loads
	it.filterVecs = fl.vectors()

	// Output: row references when the scan emits full rows unprojected;
	// otherwise typed vectors.
	switch {
	case proj == nil && scan.Projection == nil:
		it.rowsOut = true
	case proj == nil:
		// Identity projection: emit the gathered pruned columns in scan
		// output order (slots dedup repeated columns).
		pl := newLoadSet(full)
		it.outCols = make([]*sqltypes.Vector, len(scan.Projection))
		for i, c := range scan.Projection {
			s, _, ok := pl.slot(c)
			if !ok {
				return nil, false
			}
			it.outCols[i] = pl.loads[s].vec
		}
		it.projLoads = pl.loads
		it.projVecs = pl.vectors()
	default:
		pl := newLoadSet(full)
		projResolve := func(c int) (int, sqltypes.Type, bool) { return pl.slot(outCol(c)) }
		for _, e := range proj.Exprs {
			k, ok := expr.CompileKernel(e, projResolve)
			if !ok {
				return nil, false
			}
			it.projKernels = append(it.projKernels, k)
		}
		it.projLoads = pl.loads
		it.projVecs = pl.vectors()
		it.outCols = make([]*sqltypes.Vector, len(it.projKernels))
	}

	if !it.rowsOut {
		// Columns the filter stage already lifts out of row storage are
		// gathered vector-to-vector in the projection stage instead of
		// being re-boxed from the rows.
		it.projSrc = make([]*sqltypes.Vector, len(it.projLoads))
		for i, ld := range it.projLoads {
			if s, ok := fl.byCol[ld.col]; ok {
				it.projSrc[i] = fl.loads[s].vec
			}
		}
		it.slab = newValueSlab(len(it.outCols), opts.BatchSize)
	}
	it.rows = scanRows(scan, nil, opts)
	return it, true
}

// NextBatch implements BatchIterator.
func (it *fusedScan) NextBatch() (*Batch, error) {
	if err := ctxErr(it.ctx); err != nil {
		return nil, err
	}
	for it.pos < len(it.rows) {
		end := it.pos + it.size
		if end > len(it.rows) {
			end = len(it.rows)
		}
		chunk := it.rows[it.pos:end]
		it.pos = end

		// Filter: load referenced columns for the whole chunk, run each
		// predicate kernel, and keep rows where every predicate is TRUE
		// (NULL rejects, per SQL WHERE semantics).
		sel := it.sel[:0]
		if len(it.filters) == 0 {
			for i := range chunk {
				sel = append(sel, i)
			}
		} else {
			for _, ld := range it.filterLoads {
				ld.vec.LoadRows(chunk, nil, ld.col)
			}
			n := len(chunk)
			first := it.filters[0].EvalVec(it.filterVecs, n)
			for i := 0; i < n; i++ {
				if first.Valid(i) && first.Bools[i] {
					sel = append(sel, i)
				}
			}
			for _, k := range it.filters[1:] {
				if len(sel) == 0 {
					break
				}
				v := k.EvalVec(it.filterVecs, n)
				kept := sel[:0]
				for _, i := range sel {
					if v.Valid(i) && v.Bools[i] {
						kept = append(kept, i)
					}
				}
				sel = kept
			}
		}
		it.sel = sel
		if len(sel) == 0 {
			continue
		}

		it.out.reset()
		if it.rowsOut {
			// Selected snapshot rows pass through by reference: the fused
			// filter never copies a row.
			for _, i := range sel {
				it.out.Rows = append(it.out.Rows, chunk[i])
			}
			return &it.out, nil
		}

		// Late materialization: gather only selected rows of the columns
		// the projection actually reads — from the filter-stage vectors
		// when already loaded, from row storage otherwise.
		for i, ld := range it.projLoads {
			if src := it.projSrc[i]; src != nil {
				ld.vec.GatherFrom(src, sel)
			} else {
				ld.vec.LoadRows(chunk, sel, ld.col)
			}
		}
		if it.projKernels != nil {
			for j, k := range it.projKernels {
				it.outCols[j] = k.EvalVec(it.projVecs, len(sel))
			}
		}
		it.out.setCols(it.outCols, len(sel), &it.slab)
		return &it.out, nil
	}
	return nil, nil
}

// Close implements BatchIterator (leaf: nothing to release).
func (it *fusedScan) Close() {}
