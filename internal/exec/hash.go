package exec

import (
	"context"
	"encoding/binary"
	"fmt"

	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// maxPresize caps hash-table pre-sizing from cardinality hints so a wild
// estimate cannot allocate an absurd table up front.
const maxPresize = 1 << 16

func presize(hint int) int {
	if hint < 0 {
		return 0
	}
	if hint > maxPresize {
		return maxPresize
	}
	return hint
}

// rowKeySet is a seen-set over encoded row keys, backed by the
// open-addressing byteTable: adding a row costs its encoded bytes in the
// shared key slab, never a key-string allocation. It is the one
// key-encoding helper shared by distinct, UNION and INTERSECT (formerly
// three hand-rolled map[string] variants).
type rowKeySet struct {
	t   byteTable
	buf []byte
}

// keyTableHint caps pre-sizing for tables built from a plan.SourceRows:
// the count bounds the keys from above and is routinely 10x high (distinct
// counts, filters), and an oversized sparse slot array costs a cache miss per
// probe. Beyond the cap the table grows itself — slot-array rehashes are
// cheap and never touch key bytes.
func keyTableHint(hint int) int {
	const maxEstimatePresize = 1024
	if hint > maxEstimatePresize {
		return maxEstimatePresize
	}
	return presize(hint)
}

func newRowKeySet(hint int) rowKeySet {
	return rowKeySet{t: newByteTable(keyTableHint(hint))}
}

// add inserts the row's key, reporting whether it was absent.
func (s *rowKeySet) add(r sqltypes.Row) bool {
	s.buf = sqltypes.EncodeKey(s.buf[:0], r...)
	_, inserted := s.t.getOrInsert(s.buf)
	return inserted
}

// rowKeyCounter is a multiset over encoded row keys (EXCEPT/INTERSECT
// bookkeeping). Counts live in a flat slice addressed by the byteTable's
// dense entry index, so existing keys are updated in place.
type rowKeyCounter struct {
	t      byteTable
	counts []int
	buf    []byte
}

func newRowKeyCounter(hint int) rowKeyCounter {
	return rowKeyCounter{t: newByteTable(keyTableHint(hint))}
}

func (c *rowKeyCounter) add(r sqltypes.Row) {
	c.buf = sqltypes.EncodeKey(c.buf[:0], r...)
	idx, inserted := c.t.getOrInsert(c.buf)
	if inserted {
		c.counts = append(c.counts, 1)
		return
	}
	c.counts[idx]++
}

func (c *rowKeyCounter) count(r sqltypes.Row) int {
	c.buf = sqltypes.EncodeKey(c.buf[:0], r...)
	if idx, ok := c.t.get(c.buf); ok {
		return c.counts[idx]
	}
	return 0
}

// take decrements the row's count if positive, reporting whether it did.
func (c *rowKeyCounter) take(r sqltypes.Row) bool {
	c.buf = sqltypes.EncodeKey(c.buf[:0], r...)
	if idx, ok := c.t.get(c.buf); ok && c.counts[idx] > 0 {
		c.counts[idx]--
		return true
	}
	return false
}

// --- hash aggregate ---

// batchAgg is the hash aggregation operator. Each group's output row is
// its own accumulator: the row is carved from a slab when the group first
// appears — its key values, then one cell per aggregate at
// expr.Aggregate.Empty — every input row of the group is folded into its
// cells by expr.Aggregate.Step, and the operator emits those same rows in
// first-seen order. The open-addressing byteTable maps an encoded group key
// to the group's dense index, so a group costs its row in a slab block and
// its key bytes, nothing of its own.
type batchAgg struct {
	in   BatchIterator
	node *plan.Aggregate
	size int
	est  int

	built  bool
	groups []sqltypes.Row // output rows, first-seen order
	// avgN counts, per group and aggregate, the arguments an AVG stepped
	// (its cell holds their sum until emit); nil without an AVG.
	avgN []int64
	// seen is, per DISTINCT aggregate, the set of (group index, argument)
	// pairs stepped; nil without a DISTINCT.
	seen   []byteTable
	keyBuf []byte
	pos    int
	out    Batch
	slab   valueSlab
}

func newBatchAgg(in BatchIterator, node *plan.Aggregate, opts Options) *batchAgg {
	it := &batchAgg{
		in:   in,
		node: node,
		size: opts.BatchSize,
		est:  sourceRows(node.Input),
		slab: newValueSlab(len(node.GroupBy)+len(node.Aggs), opts.BatchSize),
	}
	// The input's row count bounds the groups; a global aggregate has one.
	if len(node.GroupBy) == 0 {
		it.slab.expect(1)
	} else {
		it.slab.expect(it.est)
	}
	for _, a := range node.Aggs {
		if a.Kind == expr.AggAvg && it.avgN == nil {
			it.avgN = []int64{}
		}
		if a.Distinct && it.seen == nil {
			it.seen = make([]byteTable, len(node.Aggs))
		}
	}
	return it
}

func (it *batchAgg) build() error {
	// Group counts are bounded by input cardinality but usually far below
	// it; start from the estimate-capped size and let the table grow.
	table := newByteTable(keyTableHint(it.est / 8))
	keys := make(sqltypes.Row, len(it.node.GroupBy))
	for {
		b, err := it.in.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, r := range b.Rows {
			for i, g := range it.node.GroupBy {
				if keys[i], err = g.Eval(r); err != nil {
					return err
				}
			}
			it.keyBuf = sqltypes.EncodeKey(it.keyBuf[:0], keys...)
			gi, inserted := table.getOrInsert(it.keyBuf)
			if inserted { // gi == len(it.groups): dense first-seen order
				it.newGroup(keys)
			}
			if err := it.fold(int(gi), r); err != nil {
				return err
			}
		}
	}
	// A global aggregate over no rows is one row of empty aggregates.
	if len(it.node.GroupBy) == 0 && len(it.groups) == 0 {
		it.newGroup(nil)
	}
	return nil
}

// newGroup appends the output row of a group first seen with keys.
func (it *batchAgg) newGroup(keys sqltypes.Row) {
	row := it.slab.newRow()
	n := copy(row, keys)
	for i, a := range it.node.Aggs {
		row[n+i] = a.Empty()
	}
	it.groups = append(it.groups, row)
	if it.avgN != nil {
		for range it.node.Aggs {
			it.avgN = append(it.avgN, 0)
		}
	}
}

// fold steps input row r into the cells of group gi.
func (it *batchAgg) fold(gi int, r sqltypes.Row) error {
	nAggs := len(it.node.Aggs)
	cells := it.groups[gi][len(it.node.GroupBy):]
	for i, a := range it.node.Aggs {
		var v sqltypes.Value
		if a.Arg != nil {
			var err error
			if v, err = a.Arg.Eval(r); err != nil {
				return err
			}
		}
		if a.Distinct && (v.IsNull() || !it.firstSeen(i, gi, v)) {
			continue
		}
		if err := a.Step(&cells[i], v); err != nil {
			return err
		}
		if a.Kind == expr.AggAvg && !v.IsNull() {
			it.avgN[gi*nAggs+i]++
		}
	}
	return nil
}

// firstSeen reports whether DISTINCT aggregate i meets v in group gi for
// the first time.
func (it *batchAgg) firstSeen(i, gi int, v sqltypes.Value) bool {
	it.keyBuf = binary.LittleEndian.AppendUint32(it.keyBuf[:0], uint32(gi))
	it.keyBuf = sqltypes.EncodeKey(it.keyBuf, v)
	_, inserted := it.seen[i].getOrInsert(it.keyBuf)
	return inserted
}

// NextBatch implements BatchIterator: the next groups' rows themselves,
// each AVG cell turned from its sum into the average first.
func (it *batchAgg) NextBatch() (*Batch, error) {
	if !it.built {
		if err := it.build(); err != nil {
			return nil, err
		}
		it.built = true
	}
	if it.pos >= len(it.groups) {
		return nil, nil
	}
	end := min(it.pos+it.size, len(it.groups))
	if it.avgN != nil {
		nKeys, nAggs := len(it.node.GroupBy), len(it.node.Aggs)
		for gi := it.pos; gi < end; gi++ {
			for i, a := range it.node.Aggs {
				if a.Kind == expr.AggAvg {
					cell := &it.groups[gi][nKeys+i]
					*cell = expr.Avg(*cell, it.avgN[gi*nAggs+i])
				}
			}
		}
	}
	it.out.Rows = it.groups[it.pos:end:end]
	it.pos = end
	return &it.out, nil
}

// Close implements BatchIterator.
func (it *batchAgg) Close() { it.in.Close() }

// --- hash join ---

// joinBucket holds the build-side row indexes for one key. The first index
// is stored inline so the dominant foreign-key shape — exactly one build
// row per key — costs no per-bucket slice allocation; duplicates spill
// into rest.
type joinBucket struct {
	first int
	rest  []int
}

// batchJoin is the join operator. The build side (plan.Join.BuildSide) is
// drained at open; how the probe side is then read is plan.ChooseJoin's
// decision, taken at open from the build side's exact row count:
//
//   - hash join: the build rows are hashed on the equi-join columns and the
//     whole probe side streams through the table batch by batch;
//   - index join: the probe side is a keyed table far larger than the build
//     side, and is never scanned — its key index is probed once per build
//     row (catalog.Table.ProbeKeys: one lock hold and one snapshot, read at
//     open like the scan it replaces), so the join costs O(|build|). This is
//     what makes an IVM refresh cost what the delta costs: ΔT ⋈ base
//     probes the base's key;
//   - nested loop (cross/theta joins): every build row is a candidate for
//     every probe row and the residual predicate decides.
//
// Output rows are left-then-right whichever side was built. The hash and
// nested-loop paths emit in probe-side order, the index path in build-side
// order.
type batchJoin struct {
	node  *plan.Join
	probe BatchIterator // nil under an index join
	size  int
	ctx   context.Context

	algo plan.JoinAlgo
	// buildLeft records which child was drained as the build side.
	buildLeft bool

	buildRows []sqltypes.Row
	// table is the build-side hash directory: encoded equi key -> dense
	// index into buckets.
	table        byteTable
	buckets      []joinBucket
	cand         []int // reusable candidate scratch
	allBuild     []int // cached candidate list for cross/theta joins
	keyBuf       []byte
	keyScratch   sqltypes.Row
	buildMatched []bool

	// Index join: fetched[fetchEnds[i-1]:fetchEnds[i]] are the probe-table
	// rows carrying buildRows[i]'s key, past the scan's pushed-down filter
	// and projection; bi is the next build row to join.
	fetched   []sqltypes.Row
	fetchEnds []int
	bi        int

	// probePreserve/buildPreserve say whether unmatched rows of that side
	// appear in the output padded with NULLs (LEFT/RIGHT/FULL semantics
	// translated through the build-side choice).
	probePreserve bool
	buildPreserve bool

	buildKeys, probeKeys []int  // equi-key positions in each side's schema
	nullSafe             []bool // per equi key: NULL matches NULL (plan.Join.EquiNullSafe)

	leftWidth int

	prows []sqltypes.Row // current probe-side batch (row view)
	pi    int

	out  Batch
	slab valueSlab

	probeDone   bool
	emittedTail bool
}

func newBatchJoin(j *plan.Join, opts Options) (BatchIterator, error) {
	buildLeft, buildHint, _ := j.BuildSide()
	buildNode, probeNode := j.Right, j.Left
	buildKeys, probeKeys := j.EquiRight, j.EquiLeft
	if buildLeft {
		buildNode, probeNode = j.Left, j.Right
		buildKeys, probeKeys = j.EquiLeft, j.EquiRight
	}
	bi, err := openBatch(buildNode, opts)
	if err != nil {
		return nil, err
	}
	buildRows, err := drain(bi, buildHint)
	bi.Close()
	if err != nil {
		return nil, err
	}
	lw, rw := len(j.Left.Schema()), len(j.Right.Schema())
	it := &batchJoin{
		node:         j,
		size:         opts.BatchSize,
		ctx:          opts.Ctx,
		buildLeft:    buildLeft,
		buildRows:    buildRows,
		buildMatched: make([]bool, len(buildRows)),
		buildKeys:    buildKeys,
		probeKeys:    probeKeys,
		nullSafe:     j.EquiNullSafe,
		leftWidth:    lw,
		slab:         newValueSlab(lw+rw, opts.BatchSize),
	}
	switch j.Kind {
	case sqlparser.JoinLeft:
		it.probePreserve = !buildLeft
		it.buildPreserve = buildLeft
	case sqlparser.JoinRight:
		it.probePreserve = buildLeft
		it.buildPreserve = !buildLeft
	case sqlparser.JoinFull:
		it.probePreserve = true
		it.buildPreserve = true
	}
	// Empty build side: unless the probe side must be preserved, the join
	// can produce no rows at all, so skip reading the probe side entirely.
	// This is the common shape of IVM product-rule terms where one delta
	// table is empty.
	if len(buildRows) == 0 && !it.probePreserve {
		it.probeDone = true
		it.emittedTail = true
		return it, nil
	}
	strategy := plan.ChooseJoin(j, buildLeft, len(buildRows))
	it.algo = strategy.Algo
	if it.algo == plan.IndexJoin {
		it.probeDone = true
		err := it.fetchMatches(strategy, opts)
		it.slab.expect(len(it.fetched)) // a pair per match, and an outer join's unmatched build rows
		return it, err
	}
	it.probe, err = openBatch(probeNode, opts)
	if err != nil {
		return nil, err
	}
	if it.algo == plan.HashJoin {
		it.keyScratch = make(sqltypes.Row, len(buildKeys))
		it.buildHashTable()
	} else {
		it.allBuild = make([]int, len(buildRows))
		for i := range it.allBuild {
			it.allBuild[i] = i
		}
	}
	return it, nil
}

// fetchMatches is the index join's read of the probe side: one key probe
// per build row, then the probe scan's pushed-down filter and projection
// over the rows the probes found.
func (it *batchJoin) fetchMatches(s plan.JoinStrategy, opts Options) error {
	rows, ends := s.Probe.Table.ProbeKeys(opts.Snap, s.Index, it.buildRows, s.BuildKeys, s.NullSafe)
	it.fetched, it.fetchEnds = rows, ends
	scan := s.Probe
	if scan.Filter == nil && scan.Projection == nil {
		return nil
	}
	slab := newValueSlab(len(scan.Projection), opts.BatchSize)
	slab.expect(len(rows))
	kept, lo := rows[:0], 0
	for i, hi := range ends {
		for _, r := range rows[lo:hi] {
			if scan.Filter != nil {
				v, err := scan.Filter.Eval(r)
				if err != nil {
					return err
				}
				if !v.IsTrue() {
					continue
				}
			}
			if scan.Projection != nil {
				out := slab.newRow()
				for c, p := range scan.Projection {
					out[c] = r[p]
				}
				r = out
			}
			kept = append(kept, r)
		}
		lo, ends[i] = hi, len(kept)
	}
	it.fetched = kept
	return nil
}

// buildHashTable builds the equi-key directory over it.buildRows: one
// bucket per distinct key, addressed by the table's dense entry index — no
// per-key allocation, no key string. Buckets list build rows in ascending
// order.
func (it *batchJoin) buildHashTable() {
	rows := it.buildRows
	it.table = newByteTable(presize(len(rows)))
	it.buckets = make([]joinBucket, 0, len(rows))
	for i, r := range rows {
		for k, c := range it.buildKeys {
			it.keyScratch[k] = r[c]
		}
		it.keyBuf = sqltypes.EncodeKey(it.keyBuf[:0], it.keyScratch...)
		// A NULL key is stored like any other value. Under `=` no probe
		// looks it up (matchBuild), so it only reaches the outer tail
		// through buildMatched; under IS NOT DISTINCT FROM a NULL probe
		// finds it.
		if bi, inserted := it.table.getOrInsert(it.keyBuf); inserted {
			it.buckets = append(it.buckets, joinBucket{first: i})
		} else {
			it.buckets[bi].rest = append(it.buckets[bi].rest, i)
		}
	}
}

// matchBuild returns candidate build-row indexes for the probe row (valid
// until the next call).
func (it *batchJoin) matchBuild(p sqltypes.Row) []int {
	if it.algo == plan.NestedLoopJoin {
		return it.allBuild
	}
	if hasNullKey(p, it.probeKeys, it.nullSafe) {
		return nil
	}
	for k, c := range it.probeKeys {
		it.keyScratch[k] = p[c]
	}
	it.keyBuf = sqltypes.EncodeKey(it.keyBuf[:0], it.keyScratch...)
	bi, ok := it.table.get(it.keyBuf)
	if !ok {
		return nil
	}
	b := &it.buckets[bi]
	if len(b.rest) == 0 {
		it.cand = append(it.cand[:0], b.first)
	} else {
		it.cand = append(append(it.cand[:0], b.first), b.rest...)
	}
	return it.cand
}

// hasNullKey reports whether r holds a NULL in a key column compared with
// `=`, which matches no build row.
func hasNullKey(r sqltypes.Row, cols []int, nullSafe []bool) bool {
	for k, c := range cols {
		if r[c].IsNull() && !nullSafe[k] {
			return true
		}
	}
	return false
}

// emit appends the combined (l, r) row; nil sides pad with NULLs (slab
// rows start zeroed, and zero Values are NULL).
func (it *batchJoin) emit(l, r sqltypes.Row) {
	out := it.slab.newRow()
	if l != nil {
		copy(out, l)
	}
	if r != nil {
		copy(out[it.leftWidth:], r)
	}
	it.out.Rows = append(it.out.Rows, out)
}

// pair emits build row bi joined with probe-side row p — their equi keys
// already known equal — if the residual predicate accepts the pair, and
// reports whether it did.
func (it *batchJoin) pair(bi int, p sqltypes.Row) (bool, error) {
	l, r := p, it.buildRows[bi]
	if it.buildLeft {
		l, r = r, l
	}
	it.emit(l, r)
	if it.node.On != nil {
		v, err := it.node.On.Eval(it.out.Rows[len(it.out.Rows)-1])
		if err != nil {
			return false, err
		}
		if !v.IsTrue() {
			// Residual rejected: retract the speculative row. The slab
			// slot is abandoned (never reused), keeping emitted rows
			// durable.
			it.out.Rows = it.out.Rows[:len(it.out.Rows)-1]
			return false, nil
		}
	}
	it.buildMatched[bi] = true
	return true, nil
}

// probeOne joins one probe row against the build side, appending matches.
func (it *batchJoin) probeOne(p sqltypes.Row) error {
	matched := false
	for _, bi := range it.matchBuild(p) {
		ok, err := it.pair(bi, p)
		if err != nil {
			return err
		}
		matched = matched || ok
	}
	if !matched && it.probePreserve {
		if it.buildLeft {
			it.emit(nil, p)
		} else {
			it.emit(p, nil)
		}
	}
	return nil
}

// NextBatch implements BatchIterator.
func (it *batchJoin) NextBatch() (*Batch, error) {
	if err := ctxErr(it.ctx); err != nil {
		return nil, err
	}
	it.out.reset()
	for len(it.out.Rows) < it.size {
		// Index join: the next build row against its fetched matches.
		if it.bi < len(it.fetchEnds) {
			lo := 0
			if it.bi > 0 {
				lo = it.fetchEnds[it.bi-1]
			}
			for _, p := range it.fetched[lo:it.fetchEnds[it.bi]] {
				if _, err := it.pair(it.bi, p); err != nil {
					return nil, err
				}
			}
			it.bi++
			continue
		}
		if it.pi < len(it.prows) {
			p := it.prows[it.pi]
			it.pi++
			if err := it.probeOne(p); err != nil {
				return nil, err
			}
			continue
		}
		if !it.probeDone {
			b, err := it.probe.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				it.probeDone = true
				it.prows = nil
				continue
			}
			it.prows, it.pi = b.Rows, 0
			continue
		}
		// Tail: unmatched build rows for the build-preserving kinds.
		if !it.emittedTail {
			it.emittedTail = true
			if it.buildPreserve {
				for bi, m := range it.buildMatched {
					if !m {
						if it.buildLeft {
							it.emit(it.buildRows[bi], nil)
						} else {
							it.emit(nil, it.buildRows[bi])
						}
					}
				}
			}
			continue
		}
		break
	}
	if len(it.out.Rows) == 0 {
		return nil, nil
	}
	return &it.out, nil
}

// Close implements BatchIterator. The probe side may be half-drained (a
// consumer abandoning the join early) or never opened at all (the
// empty-build short-circuit, an index join); the build side was drained and
// closed during construction.
func (it *batchJoin) Close() {
	if it.probe != nil {
		it.probe.Close()
	}
}

// --- distinct ---

type batchDistinct struct {
	in  BatchIterator
	set rowKeySet
}

// NextBatch implements BatchIterator.
func (it *batchDistinct) NextBatch() (*Batch, error) {
	for {
		b, err := it.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		rows := b.Rows
		kept := rows[:0]
		for _, r := range rows {
			if it.set.add(r) {
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
func (it *batchDistinct) Close() { it.in.Close() }

// --- set operations ---

// batchConcat streams its sources back to back (UNION ALL).
type batchConcat struct {
	srcs []BatchIterator
	pos  int
}

// NextBatch implements BatchIterator.
func (it *batchConcat) NextBatch() (*Batch, error) {
	for it.pos < len(it.srcs) {
		b, err := it.srcs[it.pos].NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		it.pos++
	}
	return nil, nil
}

// Close implements BatchIterator: every source closes, drained or not.
func (it *batchConcat) Close() {
	for _, src := range it.srcs {
		src.Close()
	}
}

// batchKeep streams its input, keeping rows the keep func accepts (the
// EXCEPT/INTERSECT left-side pass; state lives in the closure).
type batchKeep struct {
	in   BatchIterator
	keep func(sqltypes.Row) bool
}

// NextBatch implements BatchIterator.
func (it *batchKeep) NextBatch() (*Batch, error) {
	for {
		b, err := it.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		rows := b.Rows
		kept := rows[:0]
		for _, r := range rows {
			if it.keep(r) {
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
func (it *batchKeep) Close() { it.in.Close() }

func newBatchSetOp(s *plan.SetOp, opts Options) (BatchIterator, error) {
	left, err := openBatch(s.Left, opts)
	if err != nil {
		return nil, err
	}
	right, err := openBatch(s.Right, opts)
	if err != nil {
		left.Close()
		return nil, err
	}
	switch s.Op {
	case sqlparser.SetUnionAll:
		return &batchConcat{srcs: []BatchIterator{left, right}}, nil
	case sqlparser.SetUnion:
		set := newRowKeySet(sourceRows(s.Left) + sourceRows(s.Right))
		return &batchDistinct{in: &batchConcat{srcs: []BatchIterator{left, right}}, set: set}, nil
	case sqlparser.SetExcept, sqlparser.SetExceptAll:
		counts, err := drainCounts(right, sourceRows(s.Right))
		right.Close()
		if err != nil {
			left.Close()
			return nil, err
		}
		if s.Op == sqlparser.SetExcept {
			seen := newRowKeySet(sourceRows(s.Left))
			return &batchKeep{in: left, keep: func(r sqltypes.Row) bool {
				return counts.count(r) == 0 && seen.add(r)
			}}, nil
		}
		return &batchKeep{in: left, keep: func(r sqltypes.Row) bool {
			return !counts.take(r)
		}}, nil
	case sqlparser.SetIntersect:
		counts, err := drainCounts(right, sourceRows(s.Right))
		right.Close()
		if err != nil {
			left.Close()
			return nil, err
		}
		seen := newRowKeySet(sourceRows(s.Left))
		return &batchKeep{in: left, keep: func(r sqltypes.Row) bool {
			return counts.count(r) > 0 && seen.add(r)
		}}, nil
	}
	left.Close()
	right.Close()
	return nil, fmt.Errorf("exec: unsupported set operation")
}

// drainCounts consumes a subtree into a key-count multiset.
func drainCounts(in BatchIterator, hint int) (*rowKeyCounter, error) {
	c := newRowKeyCounter(hint)
	for {
		b, err := in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return &c, nil
		}
		for _, r := range b.Rows {
			c.add(r)
		}
	}
}
