package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"openivm/internal/engine"
	"openivm/internal/sqltypes"
	"openivm/internal/wire"
)

// Span names: the layer function called, then what the call was for.
const (
	spanEngineWrite  = "engine.ExecScript/write"
	spanEngineSelect = "engine.ExecScript/select"
	spanRefresh      = "ivmext.Refresh"
	spanWireWrite    = "wire.Exec/write"
	spanWireSelect   = "wire.Query/select"
	spanWirePrepared = "wire.QueryPrepared/select"
	spanWireJoin     = "wire.Query/join"
	spanWireStream   = "wire.Query/stream"
	spanSync         = "htap.Sync"
	spanOLAPSelect   = "engine.Exec/select"
	spanCheckpoint   = "engine.Checkpoint"
)

const (
	twinRows    = 10_000 // rows in a probe's twin table
	probeWrites = 400    // writes per write probe
	probeScans  = 5      // samples of a probe that scans a base table
)

// scaled shrinks a table size for smoke runs.
func (c *config) scaled(full int) int {
	if c.Smoke {
		return full / 10
	}
	return full
}

type execFn func(sql string) error

type queryFn func(sql string) ([]sqltypes.Row, error)

func execOn(s *engine.Session) execFn {
	return func(sql string) error {
		_, err := s.ExecScript(sql)
		return err
	}
}

func queryOn(s *engine.Session) queryFn {
	return func(sql string) ([]sqltypes.Row, error) {
		res, err := s.ExecScript(sql)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

func execOver(c *wire.Client) execFn {
	return func(sql string) error {
		_, err := c.Exec(sql)
		return err
	}
}

func queryOver(c *wire.Client) queryFn {
	return func(sql string) ([]sqltypes.Row, error) {
		resp, err := c.Exec(sql)
		if err != nil {
			return nil, err
		}
		rows := make([]sqltypes.Row, len(resp.Rows))
		for i, r := range resp.Rows {
			rows[i] = r
		}
		return rows, nil
	}
}

// asClients widens a workload's own client slice.
func asClients[T client](cs []T) []client {
	out := make([]client, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

// mismatches adds up the full comparisons' mismatch counts, stopping at
// the first one that could not be made.
func mismatches(checks ...func() (int, error)) (int, error) {
	bad := 0
	for _, check := range checks {
		n, err := check()
		if err != nil {
			return bad, err
		}
		bad += n
	}
	return bad, nil
}

// ring keeps the most recent statement texts for the parse probe.
type ring struct {
	texts []string
	at    int
}

func (r *ring) add(s string) {
	if len(r.texts) < 256 {
		r.texts = append(r.texts, s)
		return
	}
	r.texts[r.at] = s
	r.at = (r.at + 1) % len(r.texts)
}

func engineCounters(db *engine.DB) counters {
	return counters{ivm: db.IVMStats(), txn: db.TxnStats(), storage: db.StorageStats(), stmt: db.StmtCacheStats()}
}

// aggMatches checks a point read of a (sum, count) aggregate view: one
// row with the oracle's values, or no row for an empty group.
func aggMatches(rows []sqltypes.Row, sum, cnt int64) bool {
	if cnt == 0 {
		return len(rows) == 0
	}
	return len(rows) == 1 && len(rows[0]) == 2 && rows[0][0].AsInt() == sum && rows[0][1].AsInt() == cnt
}

// verifyAgg compares a whole (key, sum, count) view with the oracle's
// arrays; keyOf parses a key back into its index.
func verifyAgg(q queryFn, sql string, sum, cnt []int64, keyOf func(sqltypes.Value) (int, bool)) (int, error) {
	rows, err := q(sql)
	if err != nil {
		return 0, err
	}
	bad, live := 0, 0
	for _, c := range cnt {
		if c != 0 {
			live++
		}
	}
	if len(rows) != live {
		bad++
	}
	for _, r := range rows {
		k, ok := keyOf(r[0])
		if !ok || k >= len(cnt) || r[1].AsInt() != sum[k] || r[2].AsInt() != cnt[k] || cnt[k] == 0 {
			bad++
		}
	}
	return bad, nil
}

func prefixedKey(prefix byte) func(sqltypes.Value) (int, bool) {
	return func(v sqltypes.Value) (int, bool) {
		if len(v.S) < 2 || v.S[0] != prefix {
			return 0, false
		}
		n, err := strconv.Atoi(v.S[1:])
		return n, err == nil && n >= 0
	}
}

func intKey(v sqltypes.Value) (int, bool) { return int(v.AsInt()), v.AsInt() >= 0 }

func verifyGroupsView(q queryFn, o *groupsOracle) (int, error) {
	return verifyAgg(q, "SELECT group_index, total_value, n FROM query_groups", o.sum, o.cnt, prefixedKey('g'))
}

func verifyRegionTotals(q queryFn, o *salesOracle) (int, error) {
	return verifyAgg(q, "SELECT region, total, n FROM region_totals", o.regionSum[:], o.regionCnt[:], prefixedKey('r'))
}

// verifyOrders compares rows of (oid, cid, amount) with the oracle. With
// onlyBig set the rows must be exactly the orders with amount >=
// bigAmount (the big_orders view); otherwise exactly all orders.
func verifyOrders(q queryFn, sql string, o *salesOracle, onlyBig bool) (int, error) {
	rows, err := q(sql)
	if err != nil {
		return 0, err
	}
	want := o.orderCount()
	if onlyBig {
		want = 0
		for _, n := range o.bigCnt {
			want += int(n)
		}
	}
	bad := 0
	if len(rows) != want {
		bad++
	}
	for _, r := range rows {
		oid := int(r[0].AsInt())
		c, i := oid%o.clients, oid/o.clients
		if oid < 0 || i >= len(o.cells[c]) {
			bad++
			continue
		}
		cell := o.cells[c][i]
		if int64(cell.cid) != r[1].AsInt() || int64(cell.amount) != r[2].AsInt() || (onlyBig && cell.amount < bigAmount) {
			bad++
		}
	}
	return bad, nil
}

func keyedGroupUpdate(table string, r groupRow) string {
	return fmt.Sprintf("UPDATE %s SET group_index = '%s', group_value = %d WHERE id = %d", table, groupKey(r.group), r.value, r.id)
}

func keyedOrderUpdate(table string, r orderRow) string {
	return fmt.Sprintf("UPDATE %s SET cid = %d, amount = %d WHERE oid = %d", table, r.cid, r.amount, r.oid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
