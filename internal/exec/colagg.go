package exec

import (
	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// colAgg is the columnar input path of the hash aggregation operator: the
// group-by keys and aggregate arguments are compiled to vector kernels
// (expr.CompileKernel) and evaluated once per batch over typed vectors,
// and group keys are encoded column-wise (sqltypes.Vector.EncodeCell)
// straight into the byteTable probe buffer — no Batch.RowView
// materialization, no per-row Eval dispatch, no boxed key scratch row.
//
// Batches carrying Batch.Cols (fused scan pipelines) feed their vectors to
// the kernels directly. Row-major batches are lifted column-by-column into
// the operator's own vectors first (only the columns the keys and
// arguments actually reference), which converts the per-row expression
// interpretation of the classic path into the same tight kernel loops —
// the win the external-memory bisimulation literature gets from
// block-at-a-time hash partitioning.
//
// Compilation is a one-time, best-effort step on the first batch: if any
// key or argument expression falls outside the kernel compiler, the
// operator permanently falls back to the row path (identical semantics).
// A columnar batch whose vector types disagree with the compiled
// signature (possible under UNION ALL mixing producers) falls back for
// that batch only.
type colAgg struct {
	state colAggState

	keyKs []expr.Kernel // one per GROUP BY expression
	argKs []expr.Kernel // one per aggregate; nil = COUNT(*)

	loads   []colLoad          // referenced input columns -> dedup'd slots
	vecs    []*sqltypes.Vector // kernel input, one per slot
	keyVecs []*sqltypes.Vector // per-batch key kernel outputs
	argVecs []*sqltypes.Vector // per-batch argument kernel outputs
	keyBuf  []byte
}

type colAggState uint8

const (
	colAggUncompiled colAggState = iota
	colAggReady
	colAggRefused
)

// compile builds the kernels against the aggregate's input schema,
// deciding once whether the columnar path is available.
func (c *colAgg) compile(node *plan.Aggregate) {
	schema := node.Input.Schema()
	ls := newLoadSet(schema)
	resolve := func(col int) (int, sqltypes.Type, bool) { return ls.slot(col) }

	c.state = colAggRefused
	keyKs := make([]expr.Kernel, len(node.GroupBy))
	for i, g := range node.GroupBy {
		k, ok := expr.CompileKernel(g, resolve)
		if !ok {
			return
		}
		keyKs[i] = k
	}
	argKs := make([]expr.Kernel, len(node.Aggs))
	for i, a := range node.Aggs {
		if a.Arg == nil { // COUNT(*)
			continue
		}
		k, ok := expr.CompileKernel(a.Arg, resolve)
		if !ok {
			return
		}
		argKs[i] = k
	}
	c.state = colAggReady
	c.keyKs, c.argKs = keyKs, argKs
	c.loads = ls.loads
	c.vecs = ls.vectors()
	c.keyVecs = make([]*sqltypes.Vector, len(keyKs))
	c.argVecs = make([]*sqltypes.Vector, len(argKs))
}

// bind points the kernel input slots at the batch's vectors. ok=false
// means this batch cannot take the columnar path (type mismatch against
// the compiled signature).
func (c *colAgg) bind(b *Batch) bool {
	if b.Cols != nil {
		for i, ld := range c.loads {
			if ld.col >= len(b.Cols) || b.Cols[ld.col].T != ld.vec.T {
				return false
			}
			c.vecs[i] = b.Cols[ld.col]
		}
		return true
	}
	// Row-major input: lift only the referenced columns into vectors. The
	// checked load refuses cells whose runtime type diverges from the
	// declared schema type (derived columns — e.g. a mixed-type CASE —
	// can carry them); such batches fall back to the boxed row path
	// rather than silently degrading those cells to NULL.
	for i, ld := range c.loads {
		if !ld.vec.LoadRowsChecked(b.Rows, nil, ld.col) {
			return false
		}
		c.vecs[i] = ld.vec
	}
	return true
}

// accumulate folds one batch into the aggregation tables through the
// columnar path. handled=false means the caller must run the row path for
// this batch.
func (it *batchAgg) accumulateColumnar(b *Batch) (handled bool, err error) {
	c := &it.col
	if c.state == colAggUncompiled {
		c.compile(it.node)
	}
	if c.state == colAggRefused || !c.bind(b) {
		return false, nil
	}

	n := b.Len()
	for k, kn := range c.keyKs {
		c.keyVecs[k] = kn.EvalVec(c.vecs, n)
	}
	for a, kn := range c.argKs {
		if kn != nil {
			c.argVecs[a] = kn.EvalVec(c.vecs, n)
		}
	}

	nAggs := len(it.node.Aggs)
	for i := 0; i < n; i++ {
		key := c.keyBuf[:0]
		for _, kv := range c.keyVecs {
			key = kv.EncodeCell(key, i)
		}
		c.keyBuf = key
		gi, inserted := it.table.getOrInsert(key)
		if inserted {
			kv := it.keySlab.newRow()
			for k, vec := range c.keyVecs {
				kv[k] = vec.ValueAt(i)
			}
			it.noteGroup(kv)
		}
		for a, st := range it.states[int(gi)*nAggs : int(gi)*nAggs+nAggs] {
			if err := st.AddVec(c.argVecs[a], i); err != nil {
				return true, err
			}
		}
	}
	return true, nil
}
