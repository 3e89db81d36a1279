package exec

import (
	"context"
	"fmt"
	"sort"

	"openivm/internal/catalog"
	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// valueSlab hands out fixed-width rows carved from shared value blocks: a
// handful of allocations per batch of rows instead of one per row. An
// operator that knows how many rows it will carve says so (expect), and
// the blocks for them are sized exactly, up to the batch size; otherwise
// blocks grow from 4 rows by doubling up to the batch size, so operators
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
	return valueSlab{width: width, max: size, next: min(4, size)}
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
	node   *plan.Scan
	cur    catalog.Cursor
	left   int // rows an exact scan still expects (the cursor's estimate, less those emitted)
	size   int
	keep   func(sqltypes.Row) bool // the filter as comparisons (compileCmpFilter), or nil
	ctx    context.Context
	out    Batch
	slab   valueSlab
	more   bool // the cursor may hold rows yet
	exact  bool // the scan emits every row it reads: no filter, or keyed
	prefix bool // the projection is the first columns in order
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
	// The cursor reads the table in place, up to a batch per lock hold:
	// stored rows are immutable, and the cursor holds the slot numbering
	// until it is closed or exhausted.
	it := &batchScan{node: s, more: true, size: opts.BatchSize, ctx: opts.Ctx, exact: s.Filter == nil || vals != nil}
	it.left = s.Table.Open(&it.cur, opts.Snap, vals)
	// Resolving the filter costs allocations, repaid over a batch of rows.
	// Only its comparisons run under the table's lock; any other filter
	// may run a subquery over the same table, so it runs on the batch.
	if !it.exact && it.left >= it.size {
		if cmps := compileCmpFilter(nil, s.Filter, len(s.FullSchema())); cmps != nil {
			it.keep = func(r sqltypes.Row) bool { return holds(cmps, r) }
		}
	}
	if s.Projection != nil {
		if it.prefix = isPrefix(s.Projection); !it.prefix {
			it.slab = newValueSlab(len(s.Projection), opts.BatchSize)
			if it.exact {
				it.slab.expect(it.left)
			}
		}
	}
	return it
}

// isPrefix reports whether cols are the columns 0..len(cols)-1 in order.
func isPrefix(cols []int) bool {
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// NextBatch implements BatchIterator.
func (it *batchScan) NextBatch() (*Batch, error) {
	if err := ctxErr(it.ctx); err != nil {
		return nil, err
	}
	if it.exact {
		it.out.resetFor(min(it.left, it.size))
	} else {
		it.out.reset()
	}
	for it.more && len(it.out.Rows) < it.size {
		from := len(it.out.Rows)
		if it.keep != nil || it.node.Filter == nil {
			it.out.Rows, it.more = it.cur.Next(it.out.Rows, it.size-from, it.keep)
			continue
		}
		// The filter runs on the rows the cursor returns: ask for no more
		// than the batch holds, so that it grows with the rows kept, not
		// with the rows read.
		want := min(it.size-from, max(cap(it.out.Rows)-from, 16))
		it.out.Rows, it.more = it.cur.Next(it.out.Rows, want, nil)
		kept := it.out.Rows[:from]
		for _, r := range it.out.Rows[from:] {
			v, err := it.node.Filter.Eval(r)
			if err != nil {
				return nil, err
			}
			if v.IsTrue() {
				kept = append(kept, r)
			}
		}
		it.out.Rows = kept
	}
	it.left -= len(it.out.Rows)
	if len(it.out.Rows) == 0 {
		return nil, nil
	}
	if proj := it.node.Projection; it.prefix {
		k := len(proj)
		for j, r := range it.out.Rows {
			it.out.Rows[j] = r[:k:k]
		}
	} else if proj != nil {
		for j, r := range it.out.Rows {
			out := it.slab.newRow()
			for i, p := range proj {
				out[i] = r[p]
			}
			it.out.Rows[j] = out
		}
	}
	return &it.out, nil
}

// Close implements BatchIterator: the cursor lets go of the table.
func (it *batchScan) Close() { it.cur.Close() }

// cmpTerm is one conjunct `column <op> constant` of a scan filter: the
// operator as the sqltypes.Compare results it holds on, bit 1<<(cmp+1) for
// each, and the constant as its value.
type cmpTerm struct {
	col    int
	accept uint8
	val    sqltypes.Value
}

// cmpAccept is the Compare results each comparison operator holds on, with
// the column on its left.
var cmpAccept = map[string]uint8{"=": 2, "<>": 5, "<": 1, "<=": 3, ">": 4, ">=": 6}

// compileCmpFilter appends to dst filter f, bound against a row of width
// columns, as comparisons when it is `column <op> literal-or-parameter`
// (either way round) or an AND of such terms, and returns nil for any other
// filter. A parameter is read now, once per execution, and the shared plan
// node is left as it is.
func compileCmpFilter(dst []cmpTerm, f expr.Expr, width int) []cmpTerm {
	b, ok := f.(*expr.Binary)
	if ok && b.Op == "AND" {
		if dst = compileCmpFilter(dst, b.Left, width); dst == nil {
			return nil
		}
		return compileCmpFilter(dst, b.Right, width)
	}
	if !ok {
		return nil
	}
	accept, val := cmpAccept[b.Op], b.Right
	col, ok := b.Left.(*expr.Column)
	if !ok { // constant <op> column: < and > trade places
		col, ok = b.Right.(*expr.Column)
		accept, val = accept&2|accept&1<<2|accept>>2, b.Left
	}
	if !ok || accept == 0 || col.Idx < 0 || col.Idx >= width {
		return nil
	}
	switch val.(type) {
	case *expr.Literal, *expr.Param:
		if v, err := val.Eval(nil); err == nil {
			return append(dst, cmpTerm{col: col.Idx, accept: accept, val: v})
		}
	}
	return nil
}

// holds reports whether every term is TRUE of row r, as expr.Binary.Eval
// finds it: a comparison with a NULL on either side is unknown, not TRUE.
func holds(terms []cmpTerm, r sqltypes.Row) bool {
	for i := range terms {
		t := &terms[i]
		v := r[t.col]
		if v.T == sqltypes.TypeNull || t.val.T == sqltypes.TypeNull ||
			t.accept&(1<<(sqltypes.Compare(v, t.val)+1)) == 0 {
			return false
		}
	}
	return true
}

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
	in     BatchIterator
	exprs  []expr.Expr
	prefix bool // the expressions are the input's first columns in order
	out    Batch
	slab   valueSlab
}

func newBatchProject(in BatchIterator, p *plan.Project, opts Options) *batchProject {
	prefix := true
	for i, e := range p.Exprs {
		c, ok := e.(*expr.Column)
		prefix = prefix && ok && c.Idx == i
	}
	return &batchProject{in: in, exprs: p.Exprs, prefix: prefix, slab: newValueSlab(len(p.Exprs), opts.BatchSize)}
}

// NextBatch implements BatchIterator. A projection onto the input's first
// columns re-slices each row instead of building one: rows are immutable.
func (it *batchProject) NextBatch() (*Batch, error) {
	b, err := it.in.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	it.out.resetFor(len(b.Rows))
	if k := len(it.exprs); it.prefix {
		for _, r := range b.Rows {
			it.out.Rows = append(it.out.Rows, r[:k:k])
		}
		return &it.out, nil
	}
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

// --- generate_series ---

// batchSeries emits each input row once per integer of its series
// (plan.Series), the integer appended, or the row itself for a bare series
// (rows are immutable, so one may stand in a batch many times). A series
// longer than a batch continues in the next one: the operator keeps its
// place in the input batch and in the current row's series.
type batchSeries struct {
	in       BatchIterator
	node     *plan.Series
	size     int
	ctx      context.Context
	cur      []sqltypes.Row // the input batch being expanded
	pos      int            // the next row of cur to start
	row      sqltypes.Row   // the row being expanded, nil between rows
	next, hi int64          // the next integer of row's series, and its last
	out      Batch
	slab     valueSlab
}

// NextBatch implements BatchIterator.
func (it *batchSeries) NextBatch() (*Batch, error) {
	if err := ctxErr(it.ctx); err != nil {
		return nil, err
	}
	it.out.reset()
	for len(it.out.Rows) < it.size {
		if it.row == nil {
			if it.pos == len(it.cur) {
				b, err := it.in.NextBatch()
				if err != nil {
					return nil, err
				}
				if b == nil {
					break
				}
				it.cur, it.pos = b.Rows, 0
			}
			if err := it.start(it.cur[it.pos]); err != nil {
				return nil, err
			}
			it.pos++
			continue
		}
		out := it.row
		if !it.node.Bare {
			out = it.slab.newRow()
			copy(out, it.row)
			out[len(it.row)] = sqltypes.NewInt(it.next)
		}
		it.out.Rows = append(it.out.Rows, out)
		if it.next == it.hi {
			it.row = nil
		} else {
			it.next++
		}
	}
	if len(it.out.Rows) == 0 {
		return nil, nil
	}
	return &it.out, nil
}

// start evaluates the series bounds over r and, unless the series is empty
// (a NULL bound, or lo > hi), makes r the row being expanded.
func (it *batchSeries) start(r sqltypes.Row) error {
	lo, err := it.node.Lo.Eval(r)
	if err != nil {
		return err
	}
	hi, err := it.node.Hi.Eval(r)
	if err != nil {
		return err
	}
	if lo.IsNull() || hi.IsNull() {
		return nil
	}
	if lo.T != sqltypes.TypeInt || hi.T != sqltypes.TypeInt {
		return fmt.Errorf("exec: generate_series bounds must be INTEGER, got %s and %s", lo.T, hi.T)
	}
	if lo.I <= hi.I {
		it.row, it.next, it.hi = r, lo.I, hi.I
	}
	return nil
}

// Close implements BatchIterator.
func (it *batchSeries) Close() { it.in.Close() }

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
