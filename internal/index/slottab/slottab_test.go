package slottab

import (
	"math/rand"
	"testing"
)

// model drives a Table the way catalog.Table does — keys live in a slot
// array outside the table, the caller compares them — beside a map
// oracle. weak leaves five distinct tags, so probe runs are long and
// almost every probe step is a full-tag collision.
type model struct {
	t      *testing.T
	tab    Table
	keys   []uint64         // slot -> key
	oracle map[uint64]int32 // key -> slot
	weak   bool
}

func newModel(t *testing.T, weak bool) *model {
	return &model{t: t, oracle: map[uint64]int32{}, weak: weak}
}

func (m *model) tag(key uint64) uint32 {
	if m.weak {
		return uint32(key % 5)
	}
	return uint32(key * 0x9E3779B1)
}

func (m *model) find(key uint64) (slot int32, pos int, ok bool) {
	it := m.tab.Probe(m.tag(key))
	for it.Next() {
		if m.keys[it.Slot()] == key {
			return it.Slot(), it.Pos(), true
		}
	}
	return -1, -1, false
}

// put maps key to a fresh slot, replacing any earlier mapping.
func (m *model) put(key uint64) {
	slot := int32(len(m.keys))
	m.keys = append(m.keys, key)
	if _, pos, ok := m.find(key); ok {
		m.tab.SetAt(pos, slot)
	} else {
		m.tab.Insert(m.tag(key), slot)
	}
	m.oracle[key] = slot
}

func (m *model) del(key uint64) {
	_, pos, ok := m.find(key)
	if _, want := m.oracle[key]; ok != want {
		m.t.Fatalf("delete %d: found=%v, oracle has it=%v", key, ok, want)
	}
	if ok {
		m.tab.DeleteAt(pos)
		delete(m.oracle, key)
	}
}

// compact renumbers the live slots densely, as compactLocked does. With
// dropOdd, the slots of odd keys do not survive: Remap must remove their
// entries itself.
func (m *model) compact(dropOdd bool) {
	newSlot := make([]int32, len(m.keys))
	for i := range newSlot {
		newSlot[i] = -1
	}
	var keys []uint64
	for i, k := range m.keys {
		if s, ok := m.oracle[k]; ok && int(s) == i && !(dropOdd && k%2 == 1) {
			newSlot[i] = int32(len(keys))
			keys = append(keys, k)
		}
	}
	m.tab.Remap(newSlot)
	m.keys = keys
	for k, s := range m.oracle {
		if newSlot[s] < 0 {
			delete(m.oracle, k)
		} else {
			m.oracle[k] = newSlot[s]
		}
	}
}

func (m *model) check() {
	m.t.Helper()
	if m.tab.Len() != len(m.oracle) {
		m.t.Fatalf("Len = %d, oracle has %d", m.tab.Len(), len(m.oracle))
	}
	for k, want := range m.oracle {
		if got, _, ok := m.find(k); !ok || got != want {
			m.t.Fatalf("key %d: got slot %d (found=%v), want %d", k, got, ok, want)
		}
	}
	used := 0
	for _, c := range m.tab.cells {
		if c != 0 {
			used++
		}
	}
	if used != m.tab.Len() {
		m.t.Fatalf("%d cells in use, Len = %d", used, m.tab.Len())
	}
	if n := len(m.tab.cells); n != 0 && (n&(n-1) != 0 || used*8 > n*7) {
		m.t.Fatalf("%d entries in %d cells: not a power of two under 7/8 load", used, n)
	}
}

func TestEmptyTable(t *testing.T) {
	var tab Table
	it := tab.Probe(42)
	if it.Next() || it.Next() {
		t.Fatal("empty table reported an entry")
	}
	if tab.Len() != 0 || tab.Bytes() != 0 {
		t.Fatalf("empty table: Len=%d Bytes=%d", tab.Len(), tab.Bytes())
	}
}

func TestGrowthKeepsEveryKey(t *testing.T) {
	m := newModel(t, false)
	for k := uint64(0); k < 10_000; k++ {
		m.put(k)
	}
	m.check()
	if perKey := float64(m.tab.Bytes()) / float64(m.tab.Len()); perKey > 18.3 {
		t.Fatalf("%.1f bytes per key", perKey)
	}
}

func TestCollidingTags(t *testing.T) {
	m := newModel(t, true) // five distinct tags for 200 keys
	for k := uint64(0); k < 200; k++ {
		m.put(k)
	}
	m.check()
	for k := uint64(0); k < 200; k += 3 {
		m.del(k)
	}
	m.check()
	if _, _, ok := m.find(3); ok {
		t.Fatal("deleted key still found")
	}
	m.put(3)
	m.put(4) // remap of a present key
	m.check()
}

// TestBackwardShiftAcrossWrap deletes from a run that wraps around the
// end of the cell array, in every order.
func TestBackwardShiftAcrossWrap(t *testing.T) {
	for del := 0; del < 5; del++ {
		var tab Table
		tab.resize(8)
		// Homes 6,6,7,0,6: a run occupying cells 6,7,0,1,2.
		tags := []uint32{6, 14, 7, 8, 22}
		for i, tg := range tags {
			tab.place(tg, int32(i))
			tab.n++
		}
		it := tab.Probe(tags[del])
		if !it.Next() {
			t.Fatalf("tag %d not found before delete", tags[del])
		}
		tab.DeleteAt(it.Pos())
		for i, tg := range tags {
			it := tab.Probe(tg)
			found := it.Next() && it.Slot() == int32(i)
			if found == (i == del) {
				t.Fatalf("after deleting #%d: entry #%d found=%v", del, i, found)
			}
		}
	}
}

func TestRemapRenumbersAndShrinks(t *testing.T) {
	m := newModel(t, false)
	for k := uint64(0); k < 4096; k++ {
		m.put(k)
	}
	big := m.tab.Bytes()
	for k := uint64(0); k < 4096; k++ {
		if k%64 != 0 {
			m.del(k)
		}
	}
	m.compact(false)
	m.check()
	if m.tab.Bytes() >= big/8 {
		t.Fatalf("table kept %d bytes for %d keys (was %d)", m.tab.Bytes(), m.tab.Len(), big)
	}
	identity := make([]int32, len(m.keys))
	for i := range identity {
		identity[i] = int32(i)
	}
	if allocs := testing.AllocsPerRun(10, func() { m.tab.Remap(identity) }); allocs != 0 {
		t.Fatalf("Remap with no shrink pending allocated %.0f times", allocs)
	}
}

func TestRemapRemovesDroppedSlots(t *testing.T) {
	m := newModel(t, true)
	for k := uint64(0); k < 100; k++ {
		m.put(k)
	}
	m.compact(true)
	m.check()
	if _, _, ok := m.find(1); ok || m.tab.Len() != 50 {
		t.Fatalf("odd keys survived: Len = %d", m.tab.Len())
	}
}

func TestRandomAgainstMap(t *testing.T) {
	for _, weak := range []bool{false, true} {
		rng := rand.New(rand.NewSource(1))
		m := newModel(t, weak)
		for i := 0; i < 20_000; i++ {
			k := uint64(rng.Intn(700))
			switch r := rng.Intn(100); {
			case r < 55:
				m.put(k)
			case r < 95:
				m.del(k)
			default:
				m.compact(r == 99)
			}
			if i%997 == 0 {
				m.check()
			}
		}
		m.check()
	}
}

// FuzzSlotTab interprets the input as a program of put / delete /
// compact / compact-and-drop steps over a small key space with weak tags.
func FuzzSlotTab(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 0, 0, 2})
	f.Add([]byte{0, 0, 0, 5, 0, 10, 0, 15, 1, 5, 1, 0, 2, 0, 0, 20})
	f.Fuzz(func(t *testing.T, prog []byte) {
		m := newModel(t, true)
		for i := 0; i+1 < len(prog); i += 2 {
			k := uint64(prog[i+1])
			switch prog[i] % 4 {
			case 0:
				m.put(k)
			case 1:
				m.del(k)
			case 2:
				m.compact(false)
			case 3:
				m.compact(true)
			}
		}
		m.check()
	})
}
