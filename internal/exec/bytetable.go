package exec

import (
	"bytes"
	"encoding/binary"
)

// byteTable is an open-addressing hash table keyed by raw []byte, the
// directory behind every hash operator (aggregate groups, join buckets,
// distinct/set-op seen-sets). Each distinct key is assigned a dense entry
// index in insertion order (0, 1, 2, …); callers use that index to address
// flat side arrays — group key rows, accumulator states, join buckets,
// multiset counts. Compared to the map[string]T directories it replaces,
// inserting a key costs its bytes appended to one shared slab instead of a
// heap-allocated key string plus a map bucket entry, and lookups probe a
// flat slot array instead of runtime map buckets — the hot path allocates
// nothing and touches no pointers.
//
// Layout: slots is a power-of-two array of 8-byte (hash32, entry-index)
// pairs probed linearly; keyData holds every key's bytes back to back with
// keyOffs fencing entry i at keyData[keyOffs[i]:keyOffs[i+1]]. The slot
// array is deliberately small — 8 bytes per slot, grown from the actual
// entry count rather than an optimistic estimate — because the probing
// loop's slot load is the operation's memory touch: under the streaming
// cache pressure of a scan, a compact table stays cache-resident where a
// hint-oversized one would take a memory stall per probe. A probe compares
// the cached hash before touching key bytes, so chains rarely dereference
// the slab. The zero value is a valid empty table.
type byteTable struct {
	slots   []byteSlot
	mask    uint32
	n       int // entries
	growAt  int // resize threshold (3/4 load)
	keyData []byte
	keyOffs []uint32 // len n+1 once the first entry lands
}

type byteSlot struct {
	hash uint32
	idx  int32 // dense entry index; negative = empty
}

const byteTableMinCap = 16

// newByteTable returns a table pre-sized so hint entries fit without
// rehashing. Pass an exact or near-exact count (a hash join's drained
// build side); for guessy cardinality estimates prefer hint 0 — growing
// costs log2(n) cheap slot-array rehashes (key bytes are never touched),
// while over-sizing makes every probe of the sparse slot array a cache
// miss under scan traffic.
func newByteTable(hint int) byteTable {
	c := byteTableMinCap
	for c*3/4 < hint && c < maxPresize*2 {
		c <<= 1
	}
	var t byteTable
	t.init(c)
	return t
}

func (t *byteTable) init(c int) {
	t.slots = make([]byteSlot, c)
	for i := range t.slots {
		t.slots[i].idx = -1
	}
	t.mask = uint32(c - 1)
	t.growAt = c * 3 / 4
	if t.keyOffs == nil {
		t.keyOffs = append(make([]uint32, 0, byteTableMinCap+1), 0)
	}
}

// hashBytes mixes 8-byte words FNV-style, folded to 32 bits (tables are
// far below 2^32 slots); collisions only cost extra probes — keys are
// compared byte-wise on hash match — so speed over short encoded keys
// matters more than avalanche quality.
func hashBytes(b []byte) uint32 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return uint32(h ^ h>>32)
}

// len returns the number of distinct keys inserted.
func (t *byteTable) len() int { return t.n }

// keyAt returns entry i's key bytes (valid until the table is discarded;
// inserts never move the slab's committed prefix).
func (t *byteTable) keyAt(i int32) []byte {
	return t.keyData[t.keyOffs[i]:t.keyOffs[i+1]]
}

// get returns the entry index for key, or ok=false when absent.
func (t *byteTable) get(key []byte) (int32, bool) {
	if t.n == 0 {
		return -1, false
	}
	h := hashBytes(key)
	for pos := h & t.mask; ; pos = (pos + 1) & t.mask {
		s := t.slots[pos]
		if s.idx < 0 {
			return -1, false
		}
		if s.hash == h && bytes.Equal(t.keyAt(s.idx), key) {
			return s.idx, true
		}
	}
}

// getOrInsert returns key's entry index, inserting it (appending the key
// bytes to the slab) when absent. inserted reports which happened; a fresh
// entry's index is always t.len()-1, preserving first-seen dense order.
func (t *byteTable) getOrInsert(key []byte) (idx int32, inserted bool) {
	if t.n >= t.growAt {
		t.grow()
	}
	h := hashBytes(key)
	for pos := h & t.mask; ; pos = (pos + 1) & t.mask {
		s := &t.slots[pos]
		if s.idx < 0 {
			// keyOffs fences are uint32: past 4 GiB of key bytes the
			// offsets would wrap into silent wrong-group corruption, so
			// fail loudly instead (far beyond any in-memory workload here).
			if uint64(len(t.keyData))+uint64(len(key)) > uint64(^uint32(0)) {
				panic("exec: byteTable key slab exceeds 4GiB")
			}
			idx = int32(t.n)
			s.hash, s.idx = h, idx
			t.keyData = append(t.keyData, key...)
			t.keyOffs = append(t.keyOffs, uint32(len(t.keyData)))
			t.n++
			return idx, true
		}
		if s.hash == h && bytes.Equal(t.keyAt(s.idx), key) {
			return s.idx, false
		}
	}
}

// grow doubles the slot array and redistributes entries from their cached
// hashes — key bytes are neither touched nor re-hashed.
func (t *byteTable) grow() {
	old := t.slots
	c := len(old) * 2
	if c < byteTableMinCap {
		c = byteTableMinCap
	}
	t.init(c)
	for _, s := range old {
		if s.idx < 0 {
			continue
		}
		pos := s.hash & t.mask
		for t.slots[pos].idx >= 0 {
			pos = (pos + 1) & t.mask
		}
		t.slots[pos] = s
	}
}
