package exec

import (
	"context"
	"fmt"
	"sync"

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

// statePool hands out accumulators for one aggregate in progressively
// doubling blocks (expr.Aggregate.FillStates), so a grouped aggregate pays
// O(1) allocations per block of groups instead of one per group.
type statePool struct {
	agg   *expr.Aggregate
	block []expr.AggState
	pos   int
	next  int
}

func (p *statePool) get() expr.AggState {
	if p.pos == len(p.block) {
		if p.next == 0 {
			p.next = 8
		}
		p.block = make([]expr.AggState, p.next)
		p.agg.FillStates(p.block)
		p.pos = 0
		if p.next < 512 {
			p.next *= 2
		}
	}
	s := p.block[p.pos]
	p.pos++
	return s
}

// batchAgg is the hash aggregation operator. Groups live in index-addressed
// flat arrays (group key rows from a value slab, accumulator states in one
// flat slice, the open-addressing byteTable mapping encoded key -> group
// index), so the per-group allocation cost is amortized block growth only —
// no map entry and no key-string allocation. The parallel aggregation
// wrapper (parallelAgg) runs one batchAgg per snapshot partition as the
// thread-local table and merges them through the retained table field.
type batchAgg struct {
	in   BatchIterator
	node *plan.Aggregate
	size int
	est  int

	built   bool
	table   byteTable       // encoded group key -> dense group index
	groups  []sqltypes.Row  // group key values, first-seen order
	states  []expr.AggState // len(node.Aggs) accumulators per group, flat
	pools   []statePool     // one per aggregate
	keySlab valueSlab
	defRow  sqltypes.Row // pre-rendered row for the empty global aggregate
	pos     int
	out     Batch
	slab    valueSlab

	col colAgg // columnar input path (see colagg.go)

	// First-seen tags, tracked only when the input is a morsel source
	// (dynamic work assignment): tags[g] orders group g by where its first
	// row sits in the serial stream, so the parallel combine can restore
	// the serial operator's first-seen group order. emitOrder, when set,
	// remaps output position -> group index.
	tags      []int64
	batchBase int64 // tag of the current batch's first row (-1 = untagged)
	emitOrder []int32
}

// taggedSource is implemented by inputs that can order their batches
// globally (the morsel source); batchTag returns the serial-stream tag of
// the current batch's first row.
type taggedSource interface {
	batchTag() int64
}

// noteGroup registers a fresh group: its key row, one accumulator per
// aggregate, and — under a tagged input — its first-seen tag.
func (it *batchAgg) noteGroup(kv sqltypes.Row, rowInBatch int64) {
	it.groups = append(it.groups, kv)
	for i := range it.pools {
		it.states = append(it.states, it.pools[i].get())
	}
	if it.batchBase >= 0 {
		it.tags = append(it.tags, it.batchBase+rowInBatch)
	}
}

func newBatchAgg(in BatchIterator, node *plan.Aggregate, opts Options) *batchAgg {
	it := &batchAgg{
		in:      in,
		node:    node,
		size:    opts.BatchSize,
		est:     sourceRows(node.Input),
		keySlab: newValueSlab(len(node.GroupBy), opts.BatchSize),
		slab:    newValueSlab(len(node.GroupBy)+len(node.Aggs), opts.BatchSize),
		pools:   make([]statePool, len(node.Aggs)),
	}
	for i, a := range node.Aggs {
		it.pools[i].agg = a
	}
	return it
}

func (it *batchAgg) build() error {
	// Group counts are bounded by input cardinality but usually far below
	// it; start from the estimate-capped size and let the table grow.
	it.table = newByteTable(keyTableHint(it.est / 8))
	keyScratch := make(sqltypes.Row, len(it.node.GroupBy))
	var keyBuf []byte
	nAggs := len(it.node.Aggs)
	tagSrc, _ := it.in.(taggedSource)
	it.batchBase = -1

	for {
		b, err := it.in.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if tagSrc != nil {
			it.batchBase = tagSrc.batchTag()
		}
		// Columnar fast path: kernel-evaluated keys and arguments (see
		// colagg.go); falls through to the row loop when unavailable.
		if handled, err := it.accumulateColumnar(b); handled || err != nil {
			if err != nil {
				return err
			}
			continue
		}
		for ri, r := range b.RowView() {
			for i, g := range it.node.GroupBy {
				v, err := g.Eval(r)
				if err != nil {
					return err
				}
				keyScratch[i] = v
			}
			keyBuf = sqltypes.EncodeKey(keyBuf[:0], keyScratch...)
			gi, inserted := it.table.getOrInsert(keyBuf)
			if inserted { // gi == len(it.groups): dense first-seen order
				kv := it.keySlab.newRow()
				copy(kv, keyScratch)
				it.noteGroup(kv, int64(ri))
			}
			for _, st := range it.states[int(gi)*nAggs : int(gi)*nAggs+nAggs] {
				if err := st.Add(r); err != nil {
					return err
				}
			}
		}
	}

	// Global aggregate with no groups and no input: one row of defaults.
	if len(it.node.GroupBy) == 0 && len(it.groups) == 0 {
		row := it.slab.newRow()
		for i, a := range it.node.Aggs {
			row[i] = a.NewState().Result()
		}
		it.defRow = row
	}
	return nil
}

// NextBatch implements BatchIterator.
func (it *batchAgg) NextBatch() (*Batch, error) {
	if !it.built {
		if err := it.build(); err != nil {
			return nil, err
		}
		it.built = true
	}
	if it.defRow != nil {
		it.out.reset()
		it.out.Rows = append(it.out.Rows, it.defRow)
		it.defRow = nil
		return &it.out, nil
	}
	if it.pos >= len(it.groups) {
		return nil, nil
	}
	it.out.reset()
	nAggs := len(it.node.Aggs)
	for it.pos < len(it.groups) && len(it.out.Rows) < it.size {
		gi := it.pos
		if it.emitOrder != nil {
			gi = int(it.emitOrder[it.pos])
		}
		kv := it.groups[gi]
		row := it.slab.newRow()
		n := copy(row, kv)
		for i, st := range it.states[gi*nAggs : gi*nAggs+nAggs] {
			row[n+i] = st.Result()
		}
		it.pos++
		it.out.Rows = append(it.out.Rows, row)
	}
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

// joinPart is one radix partition of the build-side hash table: the key
// directory plus its dense-index-addressed buckets. A serial build is the
// degenerate single-partition case.
type joinPart struct {
	table   byteTable
	buckets []joinBucket
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
//     what makes an IVM refresh cost what the delta costs: ΔT ⋈ base and
//     ivm_cte LEFT JOIN V both probe the big side's primary key;
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
	// parts is the build-side hash directory, split by the high bits of the
	// key hash (hash >> radixShift selects the partition). A single
	// partition with radixShift 32 is the serial build; the parallel radix
	// build produces one partition per worker (see buildHashTable).
	parts        []joinPart
	radixShift   uint
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

	buildKeys, probeKeys []int // equi-key positions in each side's schema

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
	// This is the common shape of IVM join-delta terms where one delta
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
		return it, it.fetchMatches(strategy, opts)
	}
	it.probe, err = openBatch(probeNode, opts)
	if err != nil {
		return nil, err
	}
	if it.algo == plan.HashJoin {
		it.keyScratch = make(sqltypes.Row, len(buildKeys))
		it.buildHashTable(opts)
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
	rows, ends := s.Probe.Table.ProbeKeys(opts.Snap, s.Index, it.buildRows, s.BuildKeys)
	it.fetched, it.fetchEnds = rows, ends
	scan := s.Probe
	if scan.Filter == nil && scan.Projection == nil {
		return nil
	}
	slab := newValueSlab(len(scan.Projection), opts.BatchSize)
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

// buildHashTable builds the equi-key directory over it.buildRows. Small
// build sides are built serially into one partition. Past the parallel
// threshold, the build runs two phases across worker goroutines, the
// parallel sibling of parallelAgg's thread-local tables: (A) contiguous
// row chunks are key-encoded and hashed concurrently; (B) each worker owns
// one radix partition — the high radixShift bits of the hash — and builds
// that partition's byteTable from every chunk's pre-hashed keys. Because a
// key's hash pins it to exactly one partition, no two workers ever touch
// the same bucket (no locks, no cross-worker merge), and because each
// partition scans the chunks in order, bucket contents stay in ascending
// build-row order — probe output is row-for-row identical to the serial
// build.
func (it *batchJoin) buildHashTable(opts Options) {
	rows := it.buildRows
	nparts := 1
	if chunks := partitionCount(len(rows), opts.Workers); chunks > 1 {
		for nparts < chunks {
			nparts <<= 1
		}
		// Round DOWN to a power of two: rounding up would exceed the
		// workers knob and drop partitions below the minPartitionRows
		// floor partitionCount just enforced.
		if nparts > chunks {
			nparts >>= 1
		}
	}
	if nparts == 1 {
		it.radixShift = 32 // hash>>32 == 0: everything routes to partition 0
		it.parts = make([]joinPart, 1)
		p := &it.parts[0]
		p.table = newByteTable(presize(len(rows)))
		// One bucket per distinct key, addressed by the table's dense entry
		// index — no per-key allocation, no key string.
		p.buckets = make([]joinBucket, 0, len(rows))
		for i, r := range rows {
			for k, c := range it.buildKeys {
				it.keyScratch[k] = r[c]
			}
			it.keyBuf = sqltypes.EncodeKey(it.keyBuf[:0], it.keyScratch...)
			// SQL equality: NULL keys never match; they stay in the table
			// only via buildMatched for outer-tail emission.
			if bi, inserted := p.table.getOrInsert(it.keyBuf); inserted {
				p.buckets = append(p.buckets, joinBucket{first: i})
			} else {
				p.buckets[bi].rest = append(p.buckets[bi].rest, i)
			}
		}
		return
	}

	shift := uint(32)
	for n := nparts; n > 1; n >>= 1 {
		shift--
	}
	it.radixShift = shift

	// Phase A: encode and hash every build key, one goroutine per
	// contiguous chunk. Each chunk owns its key slab; partition tables copy
	// the bytes they keep into their own slabs during phase B.
	type keyedChunk struct {
		base   int // global row index of the chunk's first row
		hashes []uint32
		offs   []uint32
		keys   []byte
	}
	rowChunks := sqltypes.PartitionRows(rows, nparts)
	keyed := make([]keyedChunk, len(rowChunks))
	var wg sync.WaitGroup
	var pc panicCapture
	base := 0
	for ci, ch := range rowChunks {
		kc := &keyed[ci]
		kc.base = base
		base += len(ch)
		wg.Add(1)
		go func(ch []sqltypes.Row, kc *keyedChunk) {
			defer wg.Done()
			defer pc.capture()
			scratch := make(sqltypes.Row, len(it.buildKeys))
			kc.hashes = make([]uint32, len(ch))
			kc.offs = make([]uint32, len(ch)+1)
			for i, r := range ch {
				for k, c := range it.buildKeys {
					scratch[k] = r[c]
				}
				kc.keys = sqltypes.EncodeKey(kc.keys, scratch...)
				kc.offs[i+1] = uint32(len(kc.keys))
				kc.hashes[i] = hashBytes(kc.keys[kc.offs[i]:])
			}
		}(ch, kc)
	}
	wg.Wait()
	pc.rethrow()

	// Phase B: one goroutine per radix partition inserts its share of every
	// chunk, in chunk (= global row) order.
	it.parts = make([]joinPart, nparts)
	for pi := range it.parts {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			defer pc.capture()
			part := &it.parts[pi]
			part.table = newByteTable(presize(len(rows) / nparts))
			part.buckets = make([]joinBucket, 0, len(rows)/nparts)
			want := uint32(pi)
			for ci := range keyed {
				kc := &keyed[ci]
				for i, h := range kc.hashes {
					if h>>shift != want {
						continue
					}
					key := kc.keys[kc.offs[i]:kc.offs[i+1]]
					if bi, inserted := part.table.getOrInsertHashed(key, h); inserted {
						part.buckets = append(part.buckets, joinBucket{first: kc.base + i})
					} else {
						part.buckets[bi].rest = append(part.buckets[bi].rest, kc.base+i)
					}
				}
			}
		}(pi)
	}
	wg.Wait()
	pc.rethrow()
}

// panicCapture routes a worker panic to the coordinator goroutine: the
// workers here have no error channel, and a panic escaping one of them
// would kill the process instead of reaching the statement-level
// recovery boundary. Workers `defer pc.capture()`; the coordinator
// calls rethrow after wg.Wait, re-raising the first captured value on a
// goroutine the engine's recover covers.
type panicCapture struct {
	mu sync.Mutex
	v  any
}

func (p *panicCapture) capture() {
	if r := recover(); r != nil {
		p.mu.Lock()
		if p.v == nil {
			p.v = r
		}
		p.mu.Unlock()
	}
}

func (p *panicCapture) rethrow() {
	if p.v != nil {
		panic(p.v)
	}
}

// matchBuild returns candidate build-row indexes for the probe row (valid
// until the next call).
func (it *batchJoin) matchBuild(p sqltypes.Row) []int {
	if it.algo == plan.NestedLoopJoin {
		return it.allBuild
	}
	if hasNullKey(p, it.probeKeys) {
		return nil
	}
	for k, c := range it.probeKeys {
		it.keyScratch[k] = p[c]
	}
	it.keyBuf = sqltypes.EncodeKey(it.keyBuf[:0], it.keyScratch...)
	h := hashBytes(it.keyBuf)
	part := &it.parts[h>>it.radixShift]
	bi, ok := part.table.getHashed(it.keyBuf, h)
	if !ok {
		return nil
	}
	b := &part.buckets[bi]
	if len(b.rest) == 0 {
		it.cand = append(it.cand[:0], b.first)
	} else {
		it.cand = append(append(it.cand[:0], b.first), b.rest...)
	}
	return it.cand
}

func hasNullKey(r sqltypes.Row, cols []int) bool {
	for _, c := range cols {
		if r[c].IsNull() {
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
			it.prows, it.pi = b.RowView(), 0
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
		rows := b.RowView()
		kept := rows[:0]
		for _, r := range rows {
			if it.set.add(r) {
				kept = append(kept, r)
			}
		}
		if len(kept) > 0 {
			b.Rows, b.Cols = kept, nil
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
		rows := b.RowView()
		kept := rows[:0]
		for _, r := range rows {
			if it.keep(r) {
				kept = append(kept, r)
			}
		}
		if len(kept) > 0 {
			b.Rows, b.Cols = kept, nil
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
		for _, r := range b.RowView() {
			c.add(r)
		}
	}
}
