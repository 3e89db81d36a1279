package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// Morsel-driven parallel scans.
//
// The fused scan's chunk loop is embarrassingly parallel: the snapshot is
// immutable for the life of the query, every chunk is independent, and the
// pipeline's per-batch state (vectors, selection buffer, slabs) is owned by
// the iterator. Parallel execution slices the snapshot into fixed-size
// contiguous morsels behind a shared atomic cursor; each worker goroutine
// owns one compiled copy of the Scan→Filter→Project pipeline and
// repeatedly claims the next unclaimed morsel, runs its pipeline over it,
// and publishes the morsel's surviving batches tagged with the morsel's
// sequence number. The merge stage reorders completed morsels back into
// sequence order, so the merged stream is row-for-row identical to the
// serial scan and everything downstream (DISTINCT, sorts, golden tests)
// observes the same sequence.
//
// Dynamic claiming is what distinguishes this from the static contiguous
// partitioning it replaced: under a skewed filter (all the surviving rows
// in one region of the table) static partitions leave every other worker
// idle while one crawls, whereas morsels rebalance automatically — workers
// that finish cheap morsels immediately pull the next expensive one. This
// is the morsel-driven scheduling of Leis et al. adapted to a
// snapshot-array storage layout.
//
// Aggregation gets its own parallel operator rather than consuming merged
// batches: each worker aggregates the morsels it claims into a
// thread-local group table (batchAgg over a morselSource) and a combine
// phase folds the locals together with expr.AggState.Merge. Because
// workers claim morsels dynamically, the combined group order is not the
// serial first-seen order by construction; instead every fresh group is
// tagged with its first row's position in the serial stream (morsel
// sequence × morsel size + output offset) and the combined table is
// emitted in tag order — exactly the serial operator's first-seen order.
//
// Safety: worker pipelines either run per-worker compiled kernels (which
// own all their mutable state) or, for expressions the kernel compiler
// rejects, evaluate shared expr.Expr trees concurrently — allowed only
// when every expression involved is expr.ParallelSafe. Expressions with
// shared mutable state — lazy subquery caches (IN (SELECT …)), statement
// parameters — keep the whole pipeline serial. (ScalarFunc's argument
// scratch moves between evaluators by atomic swap, so COALESCE/ABS
// pipelines parallelize like any other.)

const (
	// minParallelRows is the snapshot size that must be exceeded before a
	// scan fans out: below it, goroutine startup and batch re-heading cost
	// more than the scan itself.
	minParallelRows = 4096
	// minPartitionRows bounds how finely the radix join build splits its
	// build side — every build worker gets at least this many rows or the
	// build stays serial (see batchJoin.buildHashTable).
	minPartitionRows = 2048
	// morselRows is the fixed morsel size: the unit of work a scan worker
	// claims from the shared queue. Small enough that a skewed filter
	// cannot strand one worker with most of the work, large enough that
	// the atomic claim and the per-morsel merge bookkeeping stay noise.
	morselRows = 2048
)

// resolveWorkers maps the Options/Hint worker knob to a concrete count
// (0 or negative = one worker per CPU, the PRAGMA workers default).
func resolveWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// partitionCount returns how many contiguous partitions a totalRows-row
// build side should split into for the configured worker count, or 1 when
// the work should stay serial. (The scan path sizes itself from the morsel
// queue instead; this feeds the radix join build.)
func partitionCount(totalRows, workers int) int {
	if workers < 2 || totalRows <= minParallelRows {
		return 1
	}
	parts := workers
	if max := totalRows / minPartitionRows; parts > max {
		parts = max
	}
	if parts < 2 {
		return 1
	}
	return parts
}

// morselSize returns the rows per morsel for the configured batch size: a
// morsel always holds at least one full output batch so the batch-size
// hint keeps its meaning under parallel execution.
func morselSize(opts Options) int {
	if opts.BatchSize > morselRows {
		return opts.BatchSize
	}
	return morselRows
}

// morselQueue hands out fixed-size contiguous slices of the snapshot in
// order behind one atomic cursor. Claiming is wait-free; the sequence
// number identifies the morsel's position for the reorder merge.
type morselQueue struct {
	rows   []sqltypes.Row
	size   int
	cursor atomic.Int64
}

func newMorselQueue(rows []sqltypes.Row, size int) *morselQueue {
	return &morselQueue{rows: rows, size: size}
}

// count returns the total number of morsels the queue will serve.
func (q *morselQueue) count() int {
	return (len(q.rows) + q.size - 1) / q.size
}

// cancel exhausts the queue: no further morsel is ever claimed. Workers
// mid-morsel finish that morsel (bounded work) and exit on their next
// claim — the wait-free half of the Close/cancellation protocol.
func (q *morselQueue) cancel() {
	q.cursor.Store(int64(len(q.rows)))
}

// next claims the next morsel. ok=false when the snapshot is exhausted.
func (q *morselQueue) next() (seq int, rows []sqltypes.Row, ok bool) {
	lo := q.cursor.Add(int64(q.size)) - int64(q.size)
	if lo >= int64(len(q.rows)) {
		return 0, nil, false
	}
	hi := lo + int64(q.size)
	if hi > int64(len(q.rows)) {
		hi = int64(len(q.rows))
	}
	return int(lo) / q.size, q.rows[lo:hi], true
}

// pipelineBuilder returns a factory producing per-worker scan-pipeline
// instances: the iterator plus a bind function that points it at a morsel
// (rebindable any number of times). ok=false means the pipeline cannot run
// concurrently. The fused path always qualifies (each worker compiles its
// own kernels); the classic fallback qualifies only when every expression
// involved is expr.ParallelSafe, since its operators evaluate the shared
// plan expressions directly.
// The factory is not goroutine-safe; the coordinator builds every worker's
// instance before the goroutines start.
func pipelineBuilder(scan *plan.Scan, filters []expr.Expr, proj *plan.Project, opts Options) (func() (BatchIterator, func([]sqltypes.Row)), bool) {
	if probe, ok := compileFusedScan(scan, filters, proj, opts); ok {
		// The compilability probe is a fully usable instance; hand it to
		// the first caller instead of compiling workers+1 times.
		return func() (BatchIterator, func([]sqltypes.Row)) {
			it := probe
			if it == nil {
				it, _ = compileFusedScan(scan, filters, proj, opts)
			}
			probe = nil
			return it, it.bindRows
		}, true
	}
	if !expr.ParallelSafe(scan.Filter) {
		return nil, false
	}
	for _, f := range filters {
		if !expr.ParallelSafe(f) {
			return nil, false
		}
	}
	if proj != nil {
		for _, e := range proj.Exprs {
			if !expr.ParallelSafe(e) {
				return nil, false
			}
		}
	}
	return func() (BatchIterator, func([]sqltypes.Row)) {
		base := newBatchScanRows(scan, nil, opts)
		var it BatchIterator = base
		for _, f := range filters {
			it = &batchFilter{in: it, pred: f}
		}
		if proj != nil {
			it = newBatchProject(it, proj, opts)
		}
		return it, base.bindRows
	}, true
}

// bindRows points the fused scan at a new row slice (a morsel), resetting
// its position; all other per-batch state is safely reusable.
func (it *fusedScan) bindRows(rows []sqltypes.Row) {
	it.rows = rows
	it.pos = 0
}

// bindRows points the classic scan at a new row slice (a morsel).
func (it *batchScan) bindRows(rows []sqltypes.Row) {
	it.rows = rows
	it.pos = 0
}

// morselOut is one completed morsel from a scan worker: every surviving
// batch's rows under fresh slice headers (the rows themselves are durable,
// so only headers are copied), or a worker error.
type morselOut struct {
	seq    int
	chunks [][]sqltypes.Row
	err    error
}

// parallelScan fans the morsel queue out to worker goroutines and merges
// completed morsels back into sequence order. The output channel holds
// O(workers) morsels (each morsel is one message of at most morselRows
// surviving row headers), so a consumer slower than the scan parks the
// workers on their sends — real backpressure — instead of letting the
// whole surviving row set pile up in a full-materialization buffer.
//
// The flip side of a bounded channel is that workers can block forever on
// an abandoned consumer, so the iterator carries the Close half of the
// protocol: Close cancels the morsel queue, closes the done channel (which
// wakes every parked sender), and drains the output channel until the last
// worker has exited — a full barrier, after which the goroutine count is
// back to its pre-query baseline. Options.Ctx cancellation reaches the
// workers between morsels and surfaces as the query error.
//
// The reorder buffer (buf) holds completed morsels that arrived ahead of
// their sequence turn. It is bounded by construction: workers stall
// before processing a morsel whose sequence is more than the claim
// window (2×workers) ahead of the consumer's emit cursor, so even under
// worst-case head-of-line skew — morsel 0 expensive, everything after it
// cheap — at most a window of completed morsels can ever sit buffered,
// never the whole table.
type parallelScan struct {
	queue   *morselQueue
	build   func() (BatchIterator, func([]sqltypes.Row))
	workers int
	window  int // claim window: max morsels processed ahead of nextEmit
	ctx     context.Context
	started bool
	closed  bool

	// nextEmit mirrors the consumer's next-sequence-to-emit cursor for the
	// workers' claim-window check; stallCond parks workers whose claimed
	// sequence is outside the window until the consumer advances it (or
	// shutdown), instead of busy-polling.
	nextEmit  atomic.Int64
	stallMu   sync.Mutex
	stallCond *sync.Cond
	stallStop bool // set under stallMu by Close/error paths; wakes stallers
	maxBuf    int  // high-water mark of the reorder buffer (tests)

	ch        chan morselOut
	done      chan struct{}            // closed by Close: senders drop and exit
	buf       map[int][][]sqltypes.Row // completed morsels ahead of their turn
	next      int                      // next morsel sequence to emit
	cur       [][]sqltypes.Row         // chunks of the morsel being emitted
	curPos    int
	curActive bool  // a morsel is being emitted (it may have zero chunks)
	drained   bool  // workers exited and the channel closed
	err       error // first worker error, surfaced after in-order chunks
	out       Batch
}

// newParallelScan builds the morsel-parallel operator for a matched scan
// pipeline (filters/proj may be nil for a bare scan) over the whole table
// (openBatch runs no keyed scan in parallel). ok=false means the caller
// should run the serial path: too few rows or workers, or a pipeline that
// is not safe to share across goroutines.
func newParallelScan(scan *plan.Scan, filters []expr.Expr, proj *plan.Project, opts Options) (BatchIterator, bool) {
	if opts.Workers < 2 {
		return nil, false
	}
	// Safety gate before the snapshot: a pipeline that cannot run
	// concurrently must not pay for an O(rows) snapshot copy it will
	// immediately discard on the serial fallback.
	build, ok := pipelineBuilder(scan, filters, proj, opts)
	if !ok {
		return nil, false
	}
	rows := scanRows(scan, nil, opts)
	if len(rows) <= minParallelRows {
		return nil, false
	}
	queue := newMorselQueue(rows, morselSize(opts))
	workers := opts.Workers
	if m := queue.count(); workers > m {
		workers = m
	}
	if workers < 2 {
		return nil, false
	}
	return &parallelScan{queue: queue, build: build, workers: workers, window: 2 * workers, ctx: opts.Ctx}, true
}

func (it *parallelScan) start() {
	// O(workers) capacity: enough that workers keep scanning while the
	// consumer processes a morsel, small enough that a slow consumer parks
	// the producers (backpressure) instead of buffering the stream.
	it.ch = make(chan morselOut, it.workers)
	it.done = make(chan struct{})
	it.stallCond = sync.NewCond(&it.stallMu)
	it.buf = make(map[int][][]sqltypes.Row, it.workers*2)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < it.workers; w++ {
		// Built here, not in the goroutine: the builder is single-threaded.
		pipe, bind := it.build()
		wg.Add(1)
		go func(pipe BatchIterator, bind func([]sqltypes.Row)) {
			defer wg.Done()
			send := func(m morselOut) bool {
				select {
				case it.ch <- m:
					return true
				case <-it.done:
					return false
				}
			}
			// A panic in the morsel pipeline becomes a morsel error on the
			// consumer, where the statement-level recovery boundary owns it —
			// a worker goroutine crashing would kill the whole process.
			defer func() {
				if r := recover(); r != nil {
					failed.Store(true)
					it.queue.cancel()
					it.wakeStalled(true)
					send(morselOut{err: fmt.Errorf("exec: panic in parallel scan worker: %v\n%s", r, debug.Stack())})
				}
			}()
			for !failed.Load() {
				if err := ctxErr(it.ctx); err != nil {
					failed.Store(true)
					it.queue.cancel()
					it.wakeStalled(true)
					send(morselOut{err: err})
					return
				}
				seq, rows, ok := it.queue.next()
				if !ok {
					return
				}
				// Claim-window throttle: running ahead of the consumer's
				// emit cursor by more than the window would let the reorder
				// buffer grow toward the whole table when one head-of-line
				// morsel is slow. Park on the condition variable until the
				// consumer advances (or shutdown); the worker holding the
				// next-to-emit morsel is never stalled, so progress is
				// guaranteed.
				if !it.stall(seq) {
					return
				}
				bind(rows)
				var chunks [][]sqltypes.Row
				for {
					b, err := pipe.NextBatch()
					if err != nil {
						failed.Store(true)
						it.wakeStalled(true)
						send(morselOut{seq: seq, err: err})
						return
					}
					if b == nil {
						break
					}
					v := b.RowView()
					// Re-head the batch: the producer recycles the slice on
					// its next NextBatch call, but the rows are durable.
					chunks = append(chunks, append(make([]sqltypes.Row, 0, len(v)), v...))
				}
				if !send(morselOut{seq: seq, chunks: chunks}) {
					return
				}
			}
		}(pipe, bind)
	}
	go func() {
		wg.Wait()
		close(it.ch)
	}()
}

// stall parks the worker until its claimed morsel's sequence falls
// inside the claim window. Returns false when the scan is shutting down
// (Close or a failed sibling) — the worker must exit without processing.
func (it *parallelScan) stall(seq int) bool {
	it.stallMu.Lock()
	defer it.stallMu.Unlock()
	for int64(seq) >= it.nextEmit.Load()+int64(it.window) {
		if it.stallStop {
			return false
		}
		it.stallCond.Wait()
	}
	return !it.stallStop
}

// wakeStalled broadcasts to workers parked in stall; stop additionally
// marks the scan as shutting down so they exit instead of proceeding.
func (it *parallelScan) wakeStalled(stop bool) {
	it.stallMu.Lock()
	if stop {
		it.stallStop = true
	}
	it.stallCond.Broadcast()
	it.stallMu.Unlock()
}

// Close implements BatchIterator: it cancels outstanding morsel claims,
// wakes workers parked on the bounded channel or in the claim-window
// stall, and blocks until the last worker has exited (the channel closes
// only then). Idempotent; safe on a never-started iterator.
func (it *parallelScan) Close() {
	if it.closed {
		return
	}
	it.closed = true
	if !it.started {
		return
	}
	it.queue.cancel()
	close(it.done)
	it.wakeStalled(true)
	for range it.ch {
	}
	it.drained = true
}

// NextBatch implements BatchIterator, emitting morsels in sequence order.
func (it *parallelScan) NextBatch() (*Batch, error) {
	if !it.started {
		it.start()
		it.started = true
	}
	for {
		// Emit the in-progress morsel's chunks first.
		if it.curPos < len(it.cur) {
			it.out.reset()
			it.out.Rows = it.cur[it.curPos]
			it.curPos++
			return &it.out, nil
		}
		if it.curActive {
			it.cur, it.curPos, it.curActive = nil, 0, false
			it.next++
			it.nextEmit.Store(int64(it.next))
			it.wakeStalled(false)
		}
		// Then anything already buffered for the next sequence number (a
		// fully filtered-out morsel legitimately buffers zero chunks).
		if chunks, ok := it.buf[it.next]; ok {
			delete(it.buf, it.next)
			it.cur, it.curPos, it.curActive = chunks, 0, true
			continue
		}
		if it.drained {
			// Workers have exited; anything still missing was dropped on an
			// error, which now surfaces after every in-order predecessor.
			return nil, it.err
		}
		msg, ok := <-it.ch
		if !ok {
			it.drained = true
			continue
		}
		if msg.err != nil {
			if it.err == nil {
				it.err = msg.err
			}
			continue
		}
		it.buf[msg.seq] = msg.chunks
		if len(it.buf) > it.maxBuf {
			it.maxBuf = len(it.buf)
		}
	}
}

// morselSource adapts the morsel queue to a BatchIterator for the
// thread-local aggregation path: one instance per worker, claiming morsels
// through its own pipeline copy. It also implements taggedSource so the
// consuming batchAgg can tag each group's first appearance with its
// serial-stream position.
type morselSource struct {
	queue *morselQueue
	pipe  BatchIterator
	bind  func([]sqltypes.Row)
	ctx   context.Context

	active  bool
	seqBase int64 // tag of the current morsel's first output row
	outPos  int64 // output rows already emitted from the current morsel
	tagBase int64 // tag of the current batch's first row
}

// NextBatch implements BatchIterator.
func (s *morselSource) NextBatch() (*Batch, error) {
	for {
		if s.active {
			b, err := s.pipe.NextBatch()
			if err != nil {
				return nil, err
			}
			if b != nil {
				s.tagBase = s.seqBase + s.outPos
				s.outPos += int64(b.Len())
				return b, nil
			}
			s.active = false
		}
		if err := ctxErr(s.ctx); err != nil {
			return nil, err
		}
		seq, rows, ok := s.queue.next()
		if !ok {
			return nil, nil
		}
		s.bind(rows)
		s.active = true
		// Output offsets within a morsel are bounded by its input size, so
		// seq*size+outPos orders all output rows exactly as the serial
		// stream would.
		s.seqBase = int64(seq) * int64(s.queue.size)
		s.outPos = 0
	}
}

// batchTag implements taggedSource.
func (s *morselSource) batchTag() int64 { return s.tagBase }

// Close implements BatchIterator.
func (s *morselSource) Close() { s.pipe.Close() }

// parallelAgg is two-phase morsel-parallel hash aggregation: each worker
// aggregates the morsels it claims into a thread-local batchAgg, then a
// combine phase folds every local table into the first worker's with
// AggState.Merge and emits groups ordered by their first-seen tags —
// restoring the serial operator's first-seen group order under dynamic
// work assignment.
type parallelAgg struct {
	locals []*batchAgg
	queue  *morselQueue
	base   *batchAgg
	merged bool
	closed bool
}

// newParallelAgg matches an Aggregate whose input is a partitionable scan
// pipeline and whose aggregates can be combined. ok=false falls back to
// the serial operator: DISTINCT aggregates (their states cannot merge),
// unsafe expressions, non-pipeline inputs, or too little data.
func newParallelAgg(node *plan.Aggregate, opts Options) (BatchIterator, bool) {
	scan, filters, proj, ok := plan.ScanPipeline(node.Input)
	if !ok {
		if s, bare := node.Input.(*plan.Scan); bare {
			scan = s
		} else {
			return nil, false
		}
	}
	if opts.Workers < 2 {
		return nil, false
	}
	for _, a := range node.Aggs {
		if !a.Mergeable() || !expr.ParallelSafe(a.Arg) {
			return nil, false
		}
	}
	for _, g := range node.GroupBy {
		if !expr.ParallelSafe(g) {
			return nil, false
		}
	}
	// Safety gate before the snapshot (see newParallelScan).
	build, ok := pipelineBuilder(scan, filters, proj, opts)
	if !ok {
		return nil, false
	}
	rows := scanRows(scan, plan.PinnedKeys(scan.Table, scan.Filter), opts)
	if len(rows) <= minParallelRows {
		return nil, false
	}
	queue := newMorselQueue(rows, morselSize(opts))
	workers := opts.Workers
	if m := queue.count(); workers > m {
		workers = m
	}
	if workers < 2 {
		return nil, false
	}
	locals := make([]*batchAgg, workers)
	for w := range locals {
		pipe, bind := build()
		locals[w] = newBatchAgg(&morselSource{queue: queue, pipe: pipe, bind: bind, ctx: opts.Ctx}, node, opts)
	}
	return &parallelAgg{locals: locals, queue: queue}, true
}

// buildMerge runs every local build concurrently, then combines.
func (it *parallelAgg) buildMerge() error {
	errs := make([]error, len(it.locals))
	var wg sync.WaitGroup
	for w, la := range it.locals {
		wg.Add(1)
		go func(w int, la *batchAgg) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("exec: panic in parallel aggregation worker: %v\n%s", r, debug.Stack())
				}
			}()
			errs[w] = la.build()
			la.built = true
		}(w, la)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	base := it.locals[0]
	nAggs := len(base.node.Aggs)
	for _, la := range it.locals[1:] {
		for gi := range la.groups {
			key := la.table.keyAt(int32(gi))
			bi, inserted := base.table.getOrInsert(key)
			if inserted {
				// New group: adopt the local's key row, states and tag
				// wholesale (all durable — slab rows, block-allocated
				// states, plain ints).
				base.groups = append(base.groups, la.groups[gi])
				base.states = append(base.states, la.states[gi*nAggs:(gi+1)*nAggs]...)
				base.tags = append(base.tags, la.tags[gi])
				continue
			}
			if la.tags[gi] < base.tags[bi] {
				base.tags[bi] = la.tags[gi]
			}
			dst := base.states[int(bi)*nAggs : int(bi)*nAggs+nAggs]
			src := la.states[gi*nAggs : gi*nAggs+nAggs]
			for k := range dst {
				if err := dst[k].Merge(src[k]); err != nil {
					return err
				}
			}
		}
	}
	// Dynamic morsel claiming scrambles first-seen order across locals;
	// emitting in first-seen-tag order restores the serial operator's
	// exact group order.
	if len(base.groups) > 1 {
		order := make([]int32, len(base.groups))
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(a, b int) bool {
			return base.tags[order[a]] < base.tags[order[b]]
		})
		base.emitOrder = order
	}
	// Global aggregate default row: a worker whose morsels filtered down
	// to nothing pre-rendered one; it only stands if every worker came up
	// empty.
	if len(base.groups) > 0 {
		base.defRow = nil
	}
	it.base = base
	return nil
}

// NextBatch implements BatchIterator.
func (it *parallelAgg) NextBatch() (*Batch, error) {
	if !it.merged {
		if err := it.buildMerge(); err != nil {
			return nil, err
		}
		it.merged = true
	}
	return it.base.NextBatch()
}

// Close implements BatchIterator. buildMerge joins its worker goroutines
// before returning, so by the time the consumer can call Close nothing is
// in flight; cancelling the queue stops any morsel claims a concurrent
// Options.Ctx cancellation is still racing through, and the locals release
// their pipeline copies.
func (it *parallelAgg) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.queue.cancel()
	for _, la := range it.locals {
		la.Close()
	}
}
