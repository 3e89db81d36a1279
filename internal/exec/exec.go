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
// materializing operators (RunOpts, sorts, joins) keep row references without
// cloning.
//
// Operators that create new rows (project, aggregate output, join output)
// carve them out of batch-sized value slabs (see valueSlab): two
// allocations per batch instead of two per row.
//
// # One row path
//
// Batches are row-major: every operator reads and writes rows, and every
// expression runs through expr.Expr.Eval. There is no columnar path: a
// statement opens its operator tree per execution, so vector kernels would
// be compiled per execution, and an IVM refresh's delta-sized inputs would
// pay that and a row→vector→row round trip for nothing (docs/ARCHITECTURE.md,
// "One row path").
//
// # Allocation-free hash paths
//
// Hash aggregation, hash join, distinct and the set operations key their
// tables through a reusable []byte scratch buffer
// (sqltypes.EncodeKey(buf[:0], ...)) probed in an open-addressing table
// keyed by raw key bytes (byteTable): each distinct key costs its bytes in
// a shared slab — no per-entry key string, no map bucket. The table's
// dense entry indexes address flat side arrays (group rows, join
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
// second is what an IVM refresh runs: ΔT ⋈ base costs O(|ΔT|), not
// O(|base|). The plan is the same either way, so cached
// prepared plans switch strategy as their delta tables grow and shrink.
// Cross and theta joins run as a nested loop. See batchJoin.
//
// # Close and cancellation
//
// A statement runs on its caller's goroutine: no operator starts one of its
// own. Every iterator must be closed when the caller is done with it,
// drained or not: Close releases operator resources, is idempotent, and
// propagates through the whole operator tree (every wrapping operator
// closes its inputs, including half-drained ones). RunOpts closes the
// tree it opens; callers of OpenBatch own the close.
//
// Options.Ctx carries a cancellation context into the tree: scans and
// joins check it between batches, so a cancelled query surfaces ctx.Err()
// promptly instead of running to completion.
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

// Batch is a reusable chunk of rows exchanged between batch operators.
// The Rows slice header is recycled by its producer on the next NextBatch
// call, so the batch must not be retained across calls; the rows it
// references are immutable and durable.
type Batch struct {
	Rows []sqltypes.Row
}

// reset clears the batch for refilling, keeping capacity.
func (b *Batch) reset() { b.Rows = b.Rows[:0] }

// resetFor clears the batch for refilling with n rows, sizing it for them.
func (b *Batch) resetFor(n int) {
	if cap(b.Rows) < n {
		b.Rows = make([]sqltypes.Row, 0, n)
	}
	b.reset()
}

// BatchIterator produces batches of rows. NextBatch returns nil at end of
// stream and never returns a non-nil empty batch. Close releases the
// subtree's resources and must be
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
	// Ctx cancels execution: scans and joins check it between batches,
	// surfacing ctx.Err(). nil means no cancellation
	// (context.Background()).
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

// RunOpts materializes all rows produced by the plan. The iterator tree is
// always closed before returning, early errors and cancellation included.
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
		out = append(out, b.Rows...)
	}
}

// OpenBatch builds a batch-iterator tree for the plan.
func OpenBatch(n plan.Node, opts Options) (BatchIterator, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	return openBatch(n, opts)
}

func openBatch(n plan.Node, opts Options) (BatchIterator, error) {
	switch x := n.(type) {
	case *plan.Scan:
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
		out = append(out, b.Rows...)
	}
}
