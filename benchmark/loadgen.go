package main

import (
	"math/rand"
	"strconv"
)

// The data model. Three schemas, all keyed so that a row can be changed
// or retracted in O(1):
//
//	groups    (id INTEGER PRIMARY KEY, group_index VARCHAR, group_value INTEGER)
//	customers (cid INTEGER PRIMARY KEY, region VARCHAR)
//	orders    (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)
//	regions   (region VARCHAR PRIMARY KEY, zone VARCHAR)   -- static
//
// With more than one client, client i owns the ids, groups, customers,
// regions and zones congruent to i modulo the client count, and writes
// and reads nothing else: its read-your-writes check against the oracle
// is then exact under snapshot isolation.
const (
	numGroups  = 4096
	numRegions = 64
	numZones   = 8
	maxValue   = 1000 // group_value is drawn from [0, maxValue)
	maxAmount  = 500  // amount is drawn from [0, maxAmount)
	bigAmount  = 250  // the big_orders view and the join query keep amount >= bigAmount
	loadBatch  = 5000 // rows per INSERT statement while loading
)

// appendPadded appends prefix and n zero-padded to width digits.
func appendPadded(b []byte, prefix byte, n, width int) []byte {
	b = append(b, prefix)
	digits := 1
	for m := n; m >= 10; m /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}

func groupKey(g int) string  { return string(appendPadded(nil, 'g', g, 4)) }
func regionKey(r int) string { return string(appendPadded(nil, 'r', r, 2)) }
func zoneKey(z int) string   { return string(appendPadded(nil, 'z', z, 1)) }

func regionOf(cid int) int  { return cid % numRegions }
func zoneOf(region int) int { return region % numZones }

// Encoded sizes of one row as the generator wrote it (4 bytes per
// integer, the bytes of a string), for disk_bytes_per_user_byte.
const (
	groupRowBytes    = 4 + 5 + 4
	customerRowBytes = 4 + 3
	orderRowBytes    = 4 + 4 + 4
)

type groupRow struct{ id, group, value int }

type orderRow struct{ oid, cid, amount int }

// --- groups ---------------------------------------------------------------

type groupCell struct {
	group uint16
	value int16
}

// groupsOracle is what the groups table and its aggregate view must
// hold. Cells are sharded by owning client so that clients never touch
// the same memory; sum and cnt are indexed by group and a group has one
// owner.
type groupsOracle struct {
	clients   int
	cells     [][]groupCell // [client][id / clients]
	sum, cnt  []int64
	userBytes []int64 // per client
}

func newGroupsOracle(clients int) *groupsOracle {
	return &groupsOracle{
		clients: clients, cells: make([][]groupCell, clients),
		sum: make([]int64, numGroups), cnt: make([]int64, numGroups),
		userBytes: make([]int64, clients),
	}
}

// apply records an insert of a new id or the replacement of an existing
// one.
func (o *groupsOracle) apply(r groupRow) {
	c, i := r.id%o.clients, r.id/o.clients
	if i < len(o.cells[c]) {
		old := o.cells[c][i]
		o.sum[old.group] -= int64(old.value)
		o.cnt[old.group]--
		o.cells[c][i] = groupCell{uint16(r.group), int16(r.value)}
	} else {
		o.cells[c] = append(o.cells[c], groupCell{uint16(r.group), int16(r.value)})
	}
	o.sum[r.group] += int64(r.value)
	o.cnt[r.group]++
	o.userBytes[c] += groupRowBytes
}

// groupsGen draws one client's rows. next counts the ids the client
// owns: id = index*clients + client.
type groupsGen struct {
	rng             *rand.Rand
	client, clients int
	next            int
}

func (g *groupsGen) pickGroup() int {
	return g.rng.Intn(numGroups/g.clients)*g.clients + g.client
}

func (g *groupsGen) draw(index int) groupRow {
	return groupRow{id: index*g.clients + g.client, group: g.pickGroup(), value: g.rng.Intn(maxValue)}
}

// fresh appends n rows with ids never used before.
func (g *groupsGen) fresh(n int, out []groupRow) []groupRow {
	for ; n > 0; n-- {
		out = append(out, g.draw(g.next))
		g.next++
	}
	return out
}

// existing appends n rows that replace distinct existing ids with a new
// group and value.
func (g *groupsGen) existing(n int, out []groupRow) []groupRow {
	from := len(out)
draw:
	for len(out) < from+n {
		r := g.draw(g.rng.Intn(g.next))
		for _, prev := range out[from:] {
			if prev.id == r.id {
				continue draw
			}
		}
		out = append(out, r)
	}
	return out
}

func appendGroupsWrite(b []byte, table string, replace bool, rows []groupRow) []byte {
	b = append(b, "INSERT "...)
	if replace {
		b = append(b, "OR REPLACE "...)
	}
	b = append(append(b, "INTO "...), table...)
	b = append(b, " VALUES "...)
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, '('), int64(r.id), 10)
		b = appendPadded(append(b, ",'"...), 'g', r.group, 4)
		b = strconv.AppendInt(append(b, "',"...), int64(r.value), 10)
		b = append(b, ')')
	}
	return b
}

const groupsDDL = "(id INTEGER PRIMARY KEY, group_index VARCHAR, group_value INTEGER)"

// loadGroups creates table and fills it with rows ids, 0..rows-1, in
// multi-row INSERT statements. A nil oracle is not told (twin tables).
func loadGroups(exec func(string) error, o *groupsOracle, table string, rows, clients int, seed int64) ([]groupsGen, error) {
	if err := exec("CREATE TABLE " + table + " " + groupsDDL); err != nil {
		return nil, err
	}
	gens := make([]groupsGen, clients)
	for c := range gens {
		gens[c] = groupsGen{rng: rand.New(rand.NewSource(seed*1000 + int64(c))), client: c, clients: clients}
	}
	var batch []groupRow
	var buf []byte
	for id := 0; id < rows; id += len(batch) {
		batch = batch[:0]
		for j := id; j < min(id+loadBatch, rows); j++ {
			batch = gens[j%clients].fresh(1, batch)
		}
		buf = appendGroupsWrite(buf[:0], table, false, batch)
		if err := exec(string(buf)); err != nil {
			return nil, err
		}
		if o != nil {
			for _, r := range batch {
				o.apply(r)
			}
		}
	}
	return gens, nil
}

// --- customers / orders ---------------------------------------------------

type orderCell struct{ cid, amount int32 }

// salesOracle is what orders and every view over it must hold.
// Per-region, per-customer and per-client aggregates each have one
// owning client.
type salesOracle struct {
	clients, customers int
	cells              [][]orderCell // [client][oid / clients]
	regionSum          [numRegions]int64
	regionCnt          [numRegions]int64
	regionBigSum       [numRegions]int64 // amount >= bigAmount only
	regionBigCnt       [numRegions]int64
	custSum, custCnt   []int64
	bigSum, bigCnt     []int64 // per client, amount >= bigAmount
	userBytes          []int64 // per client
}

func newSalesOracle(clients, customers int) *salesOracle {
	return &salesOracle{
		clients: clients, customers: customers, cells: make([][]orderCell, clients),
		custSum: make([]int64, customers), custCnt: make([]int64, customers),
		bigSum: make([]int64, clients), bigCnt: make([]int64, clients),
		userBytes: make([]int64, clients),
	}
}

func (o *salesOracle) add(c int, cell orderCell, sign int64) {
	r, a := regionOf(int(cell.cid)), int64(cell.amount)*sign
	o.regionSum[r] += a
	o.regionCnt[r] += sign
	o.custSum[cell.cid] += a
	o.custCnt[cell.cid] += sign
	if cell.amount >= bigAmount {
		o.regionBigSum[r] += a
		o.regionBigCnt[r] += sign
		o.bigSum[c] += a
		o.bigCnt[c] += sign
	}
}

func (o *salesOracle) apply(r orderRow) {
	c, i := r.oid%o.clients, r.oid/o.clients
	cell := orderCell{int32(r.cid), int32(r.amount)}
	if i < len(o.cells[c]) {
		o.add(c, o.cells[c][i], -1)
		o.cells[c][i] = cell
	} else {
		o.cells[c] = append(o.cells[c], cell)
	}
	o.add(c, cell, 1)
	o.userBytes[c] += orderRowBytes
}

func (o *salesOracle) orderCount() (n int) {
	for _, cells := range o.cells {
		n += len(cells)
	}
	return n
}

type ordersGen struct {
	rng                        *rand.Rand
	client, clients, customers int
	next                       int
}

func (g *ordersGen) pickCustomer() int {
	return g.rng.Intn(g.customers/g.clients)*g.clients + g.client
}

func (g *ordersGen) pickRegion() int {
	return g.rng.Intn(numRegions/g.clients)*g.clients + g.client
}

func (g *ordersGen) draw(index int) orderRow {
	return orderRow{oid: index*g.clients + g.client, cid: g.pickCustomer(), amount: g.rng.Intn(maxAmount)}
}

func (g *ordersGen) fresh() orderRow {
	g.next++
	return g.draw(g.next - 1)
}

func (g *ordersGen) existing() orderRow { return g.draw(g.rng.Intn(g.next)) }

func appendOrderTuple(b []byte, r orderRow) []byte {
	b = strconv.AppendInt(append(b, '('), int64(r.oid), 10)
	b = strconv.AppendInt(append(b, ','), int64(r.cid), 10)
	b = strconv.AppendInt(append(b, ','), int64(r.amount), 10)
	return append(b, ')')
}

// appendOrderWrite renders a single-row insert, or a keyed replacement in
// the given dialect's spelling.
func appendOrderWrite(b []byte, table string, r orderRow, replace, postgres bool) []byte {
	b = append(b, "INSERT "...)
	if replace && !postgres {
		b = append(b, "OR REPLACE "...)
	}
	b = append(append(b, "INTO "...), table...)
	b = appendOrderTuple(append(b, " VALUES "...), r)
	if replace && postgres {
		b = strconv.AppendInt(append(b, " ON CONFLICT (oid) DO UPDATE SET cid = "...), int64(r.cid), 10)
		b = strconv.AppendInt(append(b, ", amount = "...), int64(r.amount), 10)
	}
	return b
}

const (
	customersDDL = "CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)"
	ordersCols   = "(oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)"
	regionsDDL   = "CREATE TABLE regions (region VARCHAR PRIMARY KEY, zone VARCHAR)"
)

// loadSales creates and fills customers and orders (and the static
// regions dimension when asked).
func loadSales(exec func(string) error, o *salesOracle, customers, orders, clients int, withRegions bool, seed int64) ([]ordersGen, error) {
	var buf []byte
	if withRegions {
		buf = append(buf, "INSERT INTO regions VALUES "...)
		for r := 0; r < numRegions; r++ {
			if r > 0 {
				buf = append(buf, ',')
			}
			buf = appendPadded(append(buf, "('"...), 'r', r, 2)
			buf = appendPadded(append(buf, "','"...), 'z', zoneOf(r), 1)
			buf = append(buf, "')"...)
		}
		for _, sql := range []string{regionsDDL, string(buf)} {
			if err := exec(sql); err != nil {
				return nil, err
			}
		}
	}
	if err := exec(customersDDL); err != nil {
		return nil, err
	}
	for cid := 0; cid < customers; {
		buf = append(buf[:0], "INSERT INTO customers VALUES "...)
		for j := 0; j < loadBatch && cid < customers; j, cid = j+1, cid+1 {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(append(buf, '('), int64(cid), 10)
			buf = appendPadded(append(buf, ",'"...), 'r', regionOf(cid), 2)
			buf = append(buf, "')"...)
		}
		if err := exec(string(buf)); err != nil {
			return nil, err
		}
	}
	if o != nil {
		o.userBytes[0] += int64(customers) * customerRowBytes
	}
	return loadOrders(exec, o, "orders", customers, orders, clients, seed)
}

// loadOrders creates table with the orders columns and fills it with
// oids 0..orders-1. A nil oracle is not told (twin tables).
func loadOrders(exec func(string) error, o *salesOracle, table string, customers, orders, clients int, seed int64) ([]ordersGen, error) {
	if err := exec("CREATE TABLE " + table + " " + ordersCols); err != nil {
		return nil, err
	}
	gens := make([]ordersGen, clients)
	for c := range gens {
		gens[c] = ordersGen{rng: rand.New(rand.NewSource(seed*1000 + 500 + int64(c))), client: c, clients: clients, customers: customers}
	}
	var buf []byte
	for oid := 0; oid < orders; {
		buf = append(append(append(buf[:0], "INSERT INTO "...), table...), " VALUES "...)
		for j := 0; j < loadBatch && oid < orders; j, oid = j+1, oid+1 {
			if j > 0 {
				buf = append(buf, ',')
			}
			r := gens[oid%clients].fresh()
			buf = appendOrderTuple(buf, r)
			if o != nil {
				o.apply(r)
			}
		}
		if err := exec(string(buf)); err != nil {
			return nil, err
		}
	}
	return gens, nil
}
