// Package exec implements the physical execution of logical plans with a
// vectorized (batch-at-a-time) engine: operators exchange Batches of ~1024
// rows through the BatchIterator interface instead of single rows, so the
// per-row interpretation overhead of the classic Volcano model is amortized
// across a chunk — the same architectural move DuckDB (the engine OpenIVM
// compiles into) makes.
//
// # Execution model
//
// OpenBatch builds an operator tree over a plan.Node. Each call to
// NextBatch returns a non-empty *Batch or nil at end of stream. A batch is
// owned by its producer and recycled on the next NextBatch call: consumers
// may truncate or reorder the batch's row slice in place (filters compact
// batches this way) but must not retain it across calls. The rows inside a
// batch, however, are durable — producers never reuse row memory — so
// materializing operators (Run, sorts, joins) keep row references without
// cloning.
//
// Operators that create new rows (project, aggregate output, join output)
// carve them out of batch-sized value slabs (see valueSlab): two
// allocations per batch instead of two per row.
//
// # Columnar fast path
//
// Scan→Filter→Project chains whose expressions compile to vector kernels
// (expr.CompileKernel) are collapsed into a single fused operator
// (fusedScan): referenced columns are loaded from row storage into typed
// sqltypes.Vectors, predicates run as tight unboxed loops producing a
// selection vector, and only surviving rows are gathered for the
// projection — no intermediate batch is ever materialized. Fused batches
// carry their payload as Batch.Cols; row-oriented consumers materialize
// rows lazily through Batch.RowView. Pipelines the kernel compiler cannot
// handle fall back to the classic operator chain with identical semantics.
//
// # Parallel partitioned scans
//
// Scan pipelines over large snapshots fan out across worker goroutines:
// the snapshot is split into contiguous partitions, each worker runs its
// own copy of the pipeline, and a merge stage re-emits batches in
// partition order so results match the serial scan row for row.
// Aggregations over such pipelines build thread-local group tables and
// combine them with expr.AggState.Merge. Options.Workers (PRAGMA workers)
// sets the fan-out; the default is one worker per CPU, engaging only past
// a snapshot-size threshold. See parallel.go.
//
// # Allocation-free hash paths
//
// Hash aggregation, hash join, distinct and the set operations key their
// tables through a reusable []byte scratch buffer
// (sqltypes.EncodeKey(buf[:0], ...)) probed in an open-addressing table
// keyed by raw key bytes (byteTable): each distinct key costs its bytes in
// a shared slab — no per-entry key string, no map bucket. The table's
// dense entry indexes address flat side arrays (group states, join
// buckets, multiset counts). Hash tables are pre-sized from the rows a
// build side drained, or else from the input's plan.SourceRows.
//
// # Join strategies
//
// A join drains its build side — the smaller input when both have a known
// plan.SourceRows, else the right one (plan.Join.BuildSide) — and then
// picks how to read the other one (plan.ChooseJoin, called at open with the
// build side's drained row count): stream it through a hash table of the
// build rows, or — when it is a bare scan of a table whose join columns are
// its primary key or a secondary index, and the table is at least 8× the
// build side — probe that index once per build row and never scan it. The
// second is what an IVM refresh runs: ΔT ⋈ base and ivm_cte LEFT JOIN V
// cost O(|ΔT|), not O(|base|). The plan is the same either way, so cached
// prepared plans switch strategy as their delta tables grow and shrink.
// Cross and theta joins run as a nested loop. See batchJoin.
//
// # Close and cancellation
//
// Every iterator must be closed when the caller is done with it, drained
// or not: Close releases operator resources and — crucially — terminates
// the worker goroutines of parallel operators, which otherwise block on
// their bounded output channels. Close is idempotent, propagates through
// the whole operator tree (every wrapping operator closes its inputs,
// including half-drained ones), and returns only after the subtree's
// goroutines have exited. Run/RunOpts close the tree they open; callers
// of OpenBatch own the close.
//
// Options.Ctx carries a cancellation context into the tree: scans and
// joins check it between batches and parallel workers between morsels, so a
// cancelled query surfaces ctx.Err() promptly instead of running to
// completion.
package exec

import (
	"context"
	"fmt"

	"openivm/internal/mvcc"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// DefaultBatchSize is the target number of rows per batch.
const DefaultBatchSize = 1024

// Batch is a reusable chunk of rows exchanged between batch operators. It
// carries one of two payloads:
//
//   - row-major: Rows holds row references. The slice header is recycled by
//     its producer on the next NextBatch call; the rows it references are
//     immutable and durable.
//   - columnar: Cols holds one typed vector per output column (produced by
//     the fused scan pipeline). Row-oriented consumers call RowView, which
//     materializes durable rows from the vectors on demand; columnar-aware
//     consumers read the vectors directly and skip that cost.
//
// Either way the batch itself is owned by its producer and must not be
// retained across NextBatch calls.
type Batch struct {
	Rows []sqltypes.Row

	// Cols is the columnar payload (nil for row-major batches). The
	// vectors are reused by the producer across batches.
	Cols []*sqltypes.Vector

	n    int        // row count when columnar
	slab *valueSlab // materialization arena for RowView (set by producer)
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if b.Cols != nil && len(b.Rows) == 0 {
		return b.n
	}
	return len(b.Rows)
}

// setCols makes the batch columnar with n rows; slab is the arena RowView
// materializes into (owned by the producer so rows stay durable).
func (b *Batch) setCols(cols []*sqltypes.Vector, n int, slab *valueSlab) {
	b.Rows = b.Rows[:0]
	b.Cols, b.n, b.slab = cols, n, slab
}

// RowView returns the batch's rows, materializing them from the columnar
// payload on first call. Materialized rows are carved from the producer's
// value slab, so they are durable like any other batch rows: consumers may
// retain them after the batch is recycled.
func (b *Batch) RowView() []sqltypes.Row {
	if b.Cols == nil || len(b.Rows) > 0 {
		return b.Rows
	}
	for i := 0; i < b.n; i++ {
		r := b.slab.newRow()
		for j, c := range b.Cols {
			r[j] = c.ValueAt(i)
		}
		b.Rows = append(b.Rows, r)
	}
	return b.Rows
}

// reset clears the batch for refilling, keeping capacity.
func (b *Batch) reset() {
	b.Rows = b.Rows[:0]
	b.Cols = nil
	b.n = 0
}

// BatchIterator produces batches of rows. NextBatch returns nil at end of
// stream and never returns a non-nil empty batch. Close releases the
// subtree's resources (terminating any worker goroutines) and must be
// called exactly when the caller is done, drained or not; it is
// idempotent, and NextBatch must not be called after it.
type BatchIterator interface {
	NextBatch() (*Batch, error)
	Close()
}

// Options tunes execution.
type Options struct {
	// BatchSize is the target rows-per-batch (0 = DefaultBatchSize). The
	// engine leaves it at the default; tests set it small to cross batch
	// boundaries with few rows.
	BatchSize int
	// Workers is the scan/aggregation parallelism (0 = one worker per CPU,
	// 1 = serial): the executing session's PRAGMA workers. Parallelism only
	// engages on snapshots large enough to repay the fan-out cost; see
	// internal/exec/parallel.go.
	Workers int
	// Ctx cancels execution: scans check it between batches and parallel
	// workers between morsels, surfacing ctx.Err(). nil means no
	// cancellation (context.Background()).
	Ctx context.Context
	// Snap is the MVCC read snapshot scans filter rows by. The zero
	// snapshot means latest-committed state, which is resolved per scan
	// under the table lock.
	Snap mvcc.Snapshot
}

// ctxErr returns the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Run materializes all rows produced by the plan.
func Run(n plan.Node) ([]sqltypes.Row, error) {
	return RunOpts(n, Options{})
}

// RunOpts is Run with explicit execution options. The iterator tree is
// always closed before returning, so early errors (and cancellation)
// cannot leak parallel workers.
func RunOpts(n plan.Node, opts Options) ([]sqltypes.Row, error) {
	it, err := OpenBatch(n, opts)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []sqltypes.Row
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b.RowView()...)
	}
}

// OpenBatch builds a batch-iterator tree for the plan.
func OpenBatch(n plan.Node, opts Options) (BatchIterator, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	opts.Workers = resolveWorkers(opts.Workers)
	return openBatch(n, opts)
}

// classicChain opens the Project?→Filter* chain of scan pipeline n over
// scan, the iterator of the pipeline's Scan.
func classicChain(n plan.Node, scan BatchIterator, opts Options) BatchIterator {
	switch x := n.(type) {
	case *plan.Project:
		return newBatchProject(classicChain(x.Input, scan, opts), x, opts)
	case *plan.Filter:
		return &batchFilter{in: classicChain(x.Input, scan, opts), pred: x.Pred}
	}
	return scan
}

func openBatch(n plan.Node, opts Options) (BatchIterator, error) {
	// Fused fast path: collapse a Project?→Filter*→Scan chain into one
	// columnar pass when every expression compiles to a vector kernel —
	// partitioned across worker goroutines when the snapshot is large
	// enough (see parallel.go). On a partial match (say the projection is
	// too rich but the filter is simple) the recursion below still fuses
	// the inner sub-chain. A keyed scan takes the classic chain instead,
	// over the rows its key set finds: it reads a handful of rows through
	// the key index, for which compiling kernels costs more than it saves.
	if scan, filters, proj, ok := plan.ScanPipeline(n); ok {
		if keys := plan.PinnedKeys(scan.Table, scan.Filter); keys != nil {
			return classicChain(n, newBatchScanRows(scan, scanRows(scan, keys, opts), opts), opts), nil
		}
		if ps, parallel := newParallelScan(scan, filters, proj, opts); parallel {
			return ps, nil
		}
		if it, compiled := newFusedScan(scan, filters, proj, opts); compiled {
			return it, nil
		}
	}
	switch x := n.(type) {
	case *plan.Scan:
		if ps, parallel := newParallelScan(x, nil, nil, opts); parallel {
			return ps, nil
		}
		return newBatchScan(x, opts), nil
	case *plan.Values:
		return newBatchValues(x, opts), nil
	case *plan.Filter:
		in, err := openBatch(x.Input, opts)
		if err != nil {
			return nil, err
		}
		return &batchFilter{in: in, pred: x.Pred}, nil
	case *plan.Project:
		in, err := openBatch(x.Input, opts)
		if err != nil {
			return nil, err
		}
		return newBatchProject(in, x, opts), nil
	case *plan.Aggregate:
		if pa, parallel := newParallelAgg(x, opts); parallel {
			return pa, nil
		}
		in, err := openBatch(x.Input, opts)
		if err != nil {
			return nil, err
		}
		return newBatchAgg(in, x, opts), nil
	case *plan.Join:
		return newBatchJoin(x, opts)
	case *plan.Distinct:
		in, err := openBatch(x.Input, opts)
		if err != nil {
			return nil, err
		}
		return &batchDistinct{in: in, set: newRowKeySet(sourceRows(x.Input))}, nil
	case *plan.Sort:
		in, err := openBatch(x.Input, opts)
		if err != nil {
			return nil, err
		}
		return &batchSort{in: in, keys: x.Keys, size: opts.BatchSize}, nil
	case *plan.Limit:
		// A LIMIT whose input streams straight from a scan (through any
		// chain of streaming operators — filters, projections, DISTINCT,
		// nested limits) stops pulling after a few rows. The Close
		// protocol would terminate a parallel scan's workers promptly, but
		// they would still have fanned out and scanned O(workers) morsels
		// for a query that needs ~limit rows; keep that subtree serial —
		// strictly less work and lower latency. Pipeline breakers in
		// between (Sort, Aggregate, Join) drain their input fully anyway,
		// so parallelism stays on there.
		if x.Limit >= 0 && streamsFromScan(x.Input) {
			opts.Workers = 1
		}
		in, err := openBatch(x.Input, opts)
		if err != nil {
			return nil, err
		}
		return &batchLimit{in: in, limit: x.Limit, offset: x.Offset}, nil
	case *plan.SetOp:
		return newBatchSetOp(x, opts)
	}
	return nil, fmt.Errorf("exec: unsupported plan node %T", n)
}

// streamsFromScan reports whether n produces rows incrementally straight
// off a table scan: a chain of streaming operators (Filter, Project,
// Distinct, Limit) ending in a Scan, with no pipeline breaker that would
// drain its input regardless of how little the consumer pulls.
func streamsFromScan(n plan.Node) bool {
	for {
		switch x := n.(type) {
		case *plan.Filter:
			n = x.Input
		case *plan.Project:
			n = x.Input
		case *plan.Distinct:
			n = x.Input
		case *plan.Limit:
			n = x.Input
		case *plan.Scan:
			return true
		default:
			return false
		}
	}
}

// sourceRows is plan.SourceRows as a pre-sizing hint: 0 when unknown.
func sourceRows(n plan.Node) int {
	rows, _ := plan.SourceRows(n)
	return rows
}

// drain materializes every row of a batch subtree (build sides, sorts).
// The size hint is a plan.SourceRows, which bounds the rows of a filtered
// source from above, so it is capped like the hash tables' pre-sizing: a
// huge up-front allocation must never precede the actual rows.
func drain(in BatchIterator, sizeHint int) ([]sqltypes.Row, error) {
	var out []sqltypes.Row
	if sizeHint > 0 {
		out = make([]sqltypes.Row, 0, presize(sizeHint))
	}
	for {
		b, err := in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b.RowView()...)
	}
}
