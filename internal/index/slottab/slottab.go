// Package slottab implements the compact key→slot table behind a
// table's primary-key index: open addressing with linear probing over
// one flat array of 8-byte cells, each holding a 32-bit hash tag and an
// int32 row slot. Keys are not stored — the row at the slot already
// holds them — so a lookup walks the cells whose tag matches and leaves
// the key comparison to the caller, which reads the key back from the
// row. That keeps the structure at 9–18 bytes per key (load factor
// 7/16–7/8) with no allocation per insert, where an adaptive radix tree
// pays a leaf, a copied key and a boxed value for every entry. The tree
// remains the right structure for ordered or multi-valued indexes; this
// table only answers "which slot holds this key".
//
// The cell index is the tag's low bits, so growing, deleting (backward
// shift, no tombstones) and remapping never need the keys either.
//
// A Table is not safe for concurrent mutation; concurrent Probe calls
// are safe with each other.
package slottab

import "hash/maphash"

// seed is fixed for the life of the process, so tags are comparable
// across tables and rebuilds but not predictable across runs.
var seed = maphash.MakeSeed()

// Hash returns the tag of an encoded key.
func Hash(key []byte) uint32 { return uint32(maphash.Bytes(seed, key)) }

// minCells is the smallest allocated cell array.
const minCells = 8

// Table maps hash tags to int32 slots. The zero value is an empty table.
type Table struct {
	// cells[i] is tag<<32 | uint32(slot+1); zero is an empty cell. The
	// length is zero or a power of two, and at least one cell is always
	// empty, which is what ends every probe.
	cells []uint64
	n     int
}

func cell(tag uint32, slot int32) uint64 { return uint64(tag)<<32 | uint64(uint32(slot+1)) }

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// Bytes returns the size of the cell array.
func (t *Table) Bytes() int { return len(t.cells) * 8 }

// Iter walks the entries that carry one tag, in probe order.
type Iter struct {
	cells []uint64
	tag   uint32
	next  int // next cell to examine
	pos   int // cell of the entry Next last reported
}

// Probe starts a walk over the entries tagged tag. Several keys can
// share a tag: the caller compares the key of each reported slot.
func (t *Table) Probe(tag uint32) Iter {
	return Iter{cells: t.cells, tag: tag, next: int(tag) & (len(t.cells) - 1), pos: -1}
}

// Next advances to the next entry with the iterator's tag and reports
// whether there is one. The walk ends at the first empty cell.
func (it *Iter) Next() bool {
	mask := len(it.cells) - 1
	for i := it.next; mask >= 0; i = (i + 1) & mask {
		c := it.cells[i]
		if c == 0 {
			break
		}
		if uint32(c>>32) == it.tag {
			it.pos, it.next = i, (i+1)&mask
			return true
		}
	}
	it.cells = nil // a later Next stays at the end
	return false
}

// Slot returns the slot of the current entry.
func (it *Iter) Slot() int32 { return int32(uint32(it.cells[it.pos])) - 1 }

// Pos identifies the current entry for SetAt and DeleteAt. It is valid
// until the table is next mutated.
func (it *Iter) Pos() int { return it.pos }

// Insert adds an entry. The caller has established (by probing) that
// the key is absent; Insert itself never compares keys.
func (t *Table) Insert(tag uint32, slot int32) {
	if (t.n+1)*8 > len(t.cells)*7 {
		size := len(t.cells) * 2
		if size < minCells {
			size = minCells
		}
		t.resize(size)
	}
	t.place(tag, slot)
	t.n++
}

// place writes an entry into the first empty cell of its probe sequence.
func (t *Table) place(tag uint32, slot int32) {
	mask := len(t.cells) - 1
	i := int(tag) & mask
	for t.cells[i] != 0 {
		i = (i + 1) & mask
	}
	t.cells[i] = cell(tag, slot)
}

// resize re-homes every entry into a fresh array of size cells.
func (t *Table) resize(size int) {
	old := t.cells
	t.cells = make([]uint64, size)
	for _, c := range old {
		if c != 0 {
			t.place(uint32(c>>32), int32(uint32(c))-1)
		}
	}
}

// SetAt repoints the entry at pos to slot.
func (t *Table) SetAt(pos int, slot int32) {
	t.cells[pos] = cell(uint32(t.cells[pos]>>32), slot)
}

// DeleteAt removes the entry at pos, shifting later entries of the
// same probe run back so that no lookup crosses a gap it must not.
func (t *Table) DeleteAt(pos int) {
	mask := len(t.cells) - 1
	i := pos
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		c := t.cells[j]
		if c == 0 {
			break
		}
		// The entry at j may move back to the gap at i only if its home
		// cell is not cyclically inside (i, j]: otherwise a probe from
		// its home would reach the gap before reaching it.
		home := int(c>>32) & mask
		if (j > i && (home <= i || home > j)) || (j < i && home <= i && home > j) {
			t.cells[i] = c
			i = j
		}
	}
	t.cells[i] = 0
	t.n--
}

// dropped marks, inside Remap, an entry whose slot did not survive; no
// live entry can carry it (it would be slot 1<<32 - 2).
const dropped = 1<<32 - 1

// Remap renumbers every entry's slot through newSlot (indexed by the
// old slot) in place, without allocating — the index half of compacting
// the row array. Entries whose slot maps to a negative value are
// removed. A table that ends up less than one-eighth full is then
// rebuilt smaller.
func (t *Table) Remap(newSlot []int32) {
	drops := 0
	for i, c := range t.cells {
		if c == 0 {
			continue
		}
		if ns := newSlot[int32(uint32(c))-1]; ns >= 0 {
			t.cells[i] = cell(uint32(c>>32), ns)
		} else {
			t.cells[i] = c | dropped
			drops++
		}
	}
	for i := 0; drops > 0; {
		// DeleteAt can shift another dropped entry into i: look again.
		if c := t.cells[i]; c != 0 && uint32(c) == dropped {
			t.DeleteAt(i)
			drops--
		} else {
			i++
		}
	}
	if len(t.cells) > minCells && t.n*8 < len(t.cells) {
		size := minCells
		for t.n*16 > size*7 { // land at or below half the maximum load
			size *= 2
		}
		t.resize(size)
	}
}

// Reset drops every entry and releases the cell array.
func (t *Table) Reset() { *t = Table{} }
