package exec

import (
	"context"
	"sort"

	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// valueSlab hands out fixed-width rows carved from shared value blocks: a
// handful of allocations per batch of rows instead of one per row. An
// operator that knows how many rows it will carve says so (expect), and
// the blocks for them are sized exactly, up to the batch size; otherwise
// blocks grow from 16 rows by doubling up to the batch size, so operators
// over tiny inputs (the common IVM delta shapes) don't pay for a full
// block. Rows handed out are never reclaimed, so they stay valid after the
// producing operator recycles its batch.
type valueSlab struct {
	width int
	max   int // rows-per-block cap (the batch size)
	next  int // rows in the next block of unknown count (progressive doubling)
	left  int // rows expected beyond the current block
	block []sqltypes.Value
}

func newValueSlab(width, size int) valueSlab {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return valueSlab{width: width, max: size, next: min(16, size)}
}

// expect tells the slab that n more rows are coming: blocks carved for
// them hold exactly that many, up to the batch size. Rows past n come from
// doubling blocks again.
func (s *valueSlab) expect(n int) {
	if s.width > 0 {
		s.left = n - len(s.block)/s.width
	}
}

// newRow returns a zeroed (all-NULL) row of the slab's width.
func (s *valueSlab) newRow() sqltypes.Row {
	if s.width == 0 {
		return sqltypes.Row{}
	}
	if len(s.block) < s.width {
		rows := s.next
		if s.left > 0 {
			rows = min(s.left, s.max)
			s.left -= rows
		} else if s.next < s.max {
			s.next *= 2
		}
		s.block = make([]sqltypes.Value, s.width*rows)
	}
	r := sqltypes.Row(s.block[:s.width:s.width])
	s.block = s.block[s.width:]
	return r
}

// --- scan ---

type batchScan struct {
	node  *plan.Scan
	rows  []sqltypes.Row // row snapshot taken at open (live rows only)
	pos   int
	size  int
	exact bool // the scan emits every row it reads: no filter, or keyed
	ctx   context.Context
	out   Batch
	slab  valueSlab
}

// newBatchScan opens a scan over the rows of s's table visible to the
// statement's snapshot — all of them, or, when s.Filter pins a key set
// (plan.PinnedKeys), the rows with those keys, found through the key index
// and in the order the scan meets them. The keys are found and resolved per
// execution — parameters are bound per execution and the plan may be a
// cached entry, so nothing is kept on s — and a key subquery runs before
// the table's lock is taken. NextBatch evaluates the whole filter on every
// row it is handed, keyed or not; that is also where a failing key subquery
// reports its error, as it always has: here it only means a scan.
func newBatchScan(s *plan.Scan, opts Options) *batchScan {
	vals, err := plan.PinnedKeys(s.Table, s.Filter).Resolve(s.Table)
	if err != nil {
		vals = nil
	}
	// RowsSnap copies the row pointers under the table lock; concurrent
	// writers replace slots in the underlying storage, so iterating it
	// directly would race (stored Row values themselves are immutable).
	it := &batchScan{node: s, rows: s.Table.RowsSnap(opts.Snap, vals), size: opts.BatchSize, ctx: opts.Ctx,
		exact: s.Filter == nil || vals != nil}
	if s.Projection != nil {
		it.slab = newValueSlab(len(s.Projection), opts.BatchSize)
		if it.exact {
			it.slab.expect(len(it.rows))
		}
	}
	return it
}

// NextBatch implements BatchIterator.
func (it *batchScan) NextBatch() (*Batch, error) {
	if err := ctxErr(it.ctx); err != nil {
		return nil, err
	}
	if it.exact {
		it.out.resetFor(min(len(it.rows)-it.pos, it.size))
	} else {
		it.out.reset()
	}
	for it.pos < len(it.rows) && len(it.out.Rows) < it.size {
		r := it.rows[it.pos]
		it.pos++
		if it.node.Filter != nil {
			v, err := it.node.Filter.Eval(r)
			if err != nil {
				return nil, err
			}
			if !v.IsTrue() {
				continue
			}
		}
		if it.node.Projection != nil {
			out := it.slab.newRow()
			for i, p := range it.node.Projection {
				out[i] = r[p]
			}
			r = out
		}
		it.out.Rows = append(it.out.Rows, r)
	}
	if len(it.out.Rows) == 0 {
		return nil, nil
	}
	return &it.out, nil
}

// Close implements BatchIterator (leaf: nothing to release).
func (it *batchScan) Close() {}

// --- values ---

type batchValues struct {
	node *plan.Values
	pos  int
	size int
	out  Batch
	slab valueSlab
}

func newBatchValues(v *plan.Values, opts Options) *batchValues {
	it := &batchValues{node: v, size: opts.BatchSize, slab: newValueSlab(len(v.Columns), opts.BatchSize)}
	it.slab.expect(len(v.Rows))
	return it
}

// NextBatch implements BatchIterator. A lifted list's rows are already
// values: the batch references them.
func (it *batchValues) NextBatch() (*Batch, error) {
	rows := it.node.LiftedRows()
	it.out.resetFor(min(max(len(rows), len(it.node.Rows))-it.pos, it.size))
	for ; it.pos < len(rows) && len(it.out.Rows) < it.size; it.pos++ {
		it.out.Rows = append(it.out.Rows, rows[it.pos])
	}
	for it.pos < len(it.node.Rows) && len(it.out.Rows) < it.size {
		exprs := it.node.Rows[it.pos]
		it.pos++
		row := it.slab.newRow()
		for i, e := range exprs {
			v, err := e.Eval(nil)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		it.out.Rows = append(it.out.Rows, row)
	}
	if len(it.out.Rows) == 0 {
		return nil, nil
	}
	return &it.out, nil
}

// Close implements BatchIterator (leaf: nothing to release).
func (it *batchValues) Close() {}

// --- filter ---

type batchFilter struct {
	in      BatchIterator
	pred    expr.Expr
	scratch []sqltypes.Value
}

// NextBatch implements BatchIterator.
func (it *batchFilter) NextBatch() (*Batch, error) {
	for {
		b, err := it.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		rows := b.Rows
		vals, err := expr.EvalBatch(it.pred, rows, it.scratch[:0])
		if err != nil {
			return nil, err
		}
		it.scratch = vals
		// Compact the batch in place: the batch is ours until we pull the
		// next one, and the rows themselves are untouched.
		kept := rows[:0]
		for i, r := range rows {
			if vals[i].IsTrue() {
				kept = append(kept, r)
			}
		}
		if len(kept) > 0 {
			b.Rows = kept
			return b, nil
		}
	}
}

// Close implements BatchIterator.
func (it *batchFilter) Close() { it.in.Close() }

// --- project ---

type batchProject struct {
	in    BatchIterator
	exprs []expr.Expr
	out   Batch
	slab  valueSlab
}

func newBatchProject(in BatchIterator, p *plan.Project, opts Options) *batchProject {
	return &batchProject{in: in, exprs: p.Exprs, slab: newValueSlab(len(p.Exprs), opts.BatchSize)}
}

// NextBatch implements BatchIterator.
func (it *batchProject) NextBatch() (*Batch, error) {
	b, err := it.in.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	it.out.resetFor(len(b.Rows))
	it.slab.expect(len(b.Rows))
	for _, r := range b.Rows {
		out := it.slab.newRow()
		for i, e := range it.exprs {
			v, err := e.Eval(r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		it.out.Rows = append(it.out.Rows, out)
	}
	return &it.out, nil
}

// Close implements BatchIterator.
func (it *batchProject) Close() { it.in.Close() }

// --- sort ---

type batchSort struct {
	in   BatchIterator
	keys []plan.SortKey
	size int

	built bool
	rows  []sqltypes.Row
	pos   int
	out   Batch
}

func (it *batchSort) build() error {
	rows, err := drain(it.in, 0)
	if err != nil {
		return err
	}
	// Precompute key tuples to avoid re-evaluating during comparisons.
	keyed := make([]sqltypes.Row, len(rows))
	keySlab := newValueSlab(len(it.keys), it.size)
	keySlab.expect(len(rows))
	for i, r := range rows {
		kr := keySlab.newRow()
		for k, sk := range it.keys {
			v, err := sk.Expr.Eval(r)
			if err != nil {
				return err
			}
			kr[k] = v
		}
		keyed[i] = kr
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keyed[idx[a]], keyed[idx[b]]
		for k, sk := range it.keys {
			c := sqltypes.Compare(ka[k], kb[k])
			if c == 0 {
				continue
			}
			if sk.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]sqltypes.Row, len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	it.rows = sorted
	return nil
}

// NextBatch implements BatchIterator.
func (it *batchSort) NextBatch() (*Batch, error) {
	if !it.built {
		if err := it.build(); err != nil {
			return nil, err
		}
		it.built = true
	}
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	end := it.pos + it.size
	if end > len(it.rows) {
		end = len(it.rows)
	}
	it.out.Rows = it.rows[it.pos:end]
	it.pos = end
	return &it.out, nil
}

// Close implements BatchIterator.
func (it *batchSort) Close() { it.in.Close() }

// --- limit ---

type batchLimit struct {
	in            BatchIterator
	limit, offset int64
	skipped       int64
	emitted       int64
}

// NextBatch implements BatchIterator.
func (it *batchLimit) NextBatch() (*Batch, error) {
	for {
		if it.limit >= 0 && it.emitted >= it.limit {
			return nil, nil
		}
		b, err := it.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		rows := b.Rows
		if it.skipped < it.offset {
			skip := it.offset - it.skipped
			if skip >= int64(len(rows)) {
				it.skipped += int64(len(rows))
				continue
			}
			it.skipped = it.offset
			rows = rows[skip:]
		}
		if it.limit >= 0 {
			remain := it.limit - it.emitted
			if int64(len(rows)) > remain {
				rows = rows[:remain]
			}
		}
		if len(rows) == 0 {
			continue
		}
		it.emitted += int64(len(rows))
		b.Rows = rows
		return b, nil
	}
}

// Close implements BatchIterator.
func (it *batchLimit) Close() { it.in.Close() }
