// Package htap implements the paper's cross-system IVM pipeline (Figure
// 3): a PostgreSQL-style OLTP system receives the transactional workload
// and captures deltas by trigger; a DuckDB-style OLAP system hosts the
// materialized views; this orchestrator bridges the two over the wire
// protocol — mirroring base tables, replaying captured deltas, and
// driving the locally-compiled propagation scripts.
package htap

import (
	"fmt"
	"sort"
	"strings"

	"openivm/internal/engine"
	"openivm/internal/ivmext"
	"openivm/internal/oltp"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
	"openivm/internal/wire"
)

// Pipeline connects one OLTP server (via wire) to one local OLAP engine.
type Pipeline struct {
	OLTP *wire.Client
	OLAP *engine.DB
	Ext  *ivmext.Extension

	// sess replays deltas into the OLAP engine and runs its statements.
	sess *engine.Session

	// mirrored tracks base tables mirrored into the OLAP engine (by
	// lower-cased name); deltas lists their remote delta tables in sorted
	// order, the order every Sync drains and replays them in.
	mirrored map[string]bool
	deltas   []string

	// applied is the sequence number of the last drained batch that was
	// replayed completely — the acknowledgement the next drain carries.
	// pending is a drained batch not yet completely replayed: a Sync that
	// failed partway resumes it, table by table, before draining again.
	applied uint64
	pending *wire.DrainBatch

	// Stats for the demo/benchmarks.
	Stats struct {
		Syncs        int // Sync calls
		DeltasPulled int // delta rows replayed into the mirrors
		RowsMirrored int // rows copied by Mirror's initial scans
		Drains       int // drain round trips
		Batches      int // per-table delta batches replayed
	}
}

// deltaPrefix names the remote delta table of a base table.
const deltaPrefix = "delta_"

// New builds a pipeline over an established client connection. The OLAP
// engine is created fresh with the IVM extension installed.
func New(client *wire.Client) *Pipeline {
	db := engine.Open("olap", engine.DialectDuckDB)
	ext := ivmext.Install(db)
	return &Pipeline{OLTP: client, OLAP: db, Ext: ext, sess: db.NewSession(), mirrored: map[string]bool{}}
}

// Mirror replicates a remote base table into the OLAP engine: schema
// (primary key included, so replayed retractions resolve through the
// mirror's key index) plus a full initial copy (the postgres_scanner-style
// scan), and asks the remote side to enable delta capture for it.
func (p *Pipeline) Mirror(table string) error {
	if p.mirrored[strings.ToLower(table)] {
		return nil
	}
	schema, err := p.OLTP.Schema(table)
	if err != nil {
		return err
	}
	var cols []string
	pk := make([]string, len(schema))
	keyed := 0
	for _, c := range schema {
		col := c.Name + " " + c.Type
		if c.NotNull {
			col += " NOT NULL"
		}
		cols = append(cols, col)
		if c.PK > 0 && c.PK <= len(pk) {
			pk[c.PK-1] = c.Name
			keyed++
		}
	}
	mirrorCols := cols
	if keyed > 0 {
		mirrorCols = append(append([]string{}, cols...), "PRIMARY KEY ("+strings.Join(pk[:keyed], ", ")+")")
	}
	if _, err := p.sess.Exec(fmt.Sprintf("CREATE TABLE IF NOT EXISTS %s (%s)", table, strings.Join(mirrorCols, ", "))); err != nil {
		return err
	}

	// Initial scan.
	resp, err := p.OLTP.Exec("SELECT * FROM " + table)
	if err != nil {
		return err
	}
	tbl, err := p.OLAP.Catalog().Table(table)
	if err != nil {
		return err
	}
	rows := make([]sqltypes.Row, len(resp.Rows))
	for i, r := range resp.Rows {
		rows[i] = r
	}
	// A catalog-level write: no trigger fires, so the base load reaches no
	// delta table.
	if err := p.sess.InsertRows(tbl, rows); err != nil {
		return err
	}
	p.Stats.RowsMirrored += len(rows)

	// Remote delta capture: delta table + trigger, exactly the manual
	// PostgreSQL configuration the paper describes.
	if _, err := p.OLTP.Exec(oltp.CaptureSQL(table, cols)); err != nil {
		return err
	}
	p.mirrored[strings.ToLower(table)] = true
	p.deltas = append(p.deltas, deltaPrefix+table)
	sort.Strings(p.deltas)
	return nil
}

// CreateMaterializedView mirrors every base table the view needs and then
// creates the view locally through the IVM extension (which compiles the
// propagation scripts and registers local delta capture on the mirrors).
func (p *Pipeline) CreateMaterializedView(sql string) error {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	for _, tbl := range baseTablesOf(stmt) {
		if err := p.Mirror(tbl); err != nil {
			return err
		}
	}
	_, err = p.sess.Exec(sql)
	return err
}

// Sync pulls the buffered deltas of every mirrored table from the OLTP
// side in one drain round trip and replays them against the local
// mirrors, one batch per table, in sorted table order. A replayed commit
// appends to its mirror's change log, and the compiled propagation
// scripts fold it into the views on the next query that reads them.
//
// The cost is proportional to the number of delta rows: the drain moves
// only them, and a retraction finds its row through the mirror's
// primary-key index. Every delta is replayed exactly once, whatever
// fails in between: a drain whose answer is lost is answered again with
// the same batch (see wire.Client.Drain), and a replay that fails leaves
// the batch pending, to be resumed at the failed table by the next Sync.
func (p *Pipeline) Sync() error {
	p.Stats.Syncs++
	if len(p.deltas) == 0 {
		return nil
	}
	if p.pending == nil {
		batch, err := p.OLTP.Drain(p.applied, p.deltas...)
		if err != nil {
			return err
		}
		p.Stats.Drains++
		if len(batch.Tables) == 0 {
			return nil
		}
		p.pending = batch
	}
	return p.replayPending()
}

// replayPending replays what is left of the pending batch. A batch whose
// sequence number is not the successor of the last one applied is not
// replayed: at or below it, the batch is a duplicate delivery and is
// dropped; beyond it, batches in between were lost.
func (p *Pipeline) replayPending() error {
	b := p.pending
	if b.Seq <= p.applied {
		p.pending = nil
		return nil
	}
	if b.Seq != p.applied+1 {
		return fmt.Errorf("htap: drained batch %d after batch %d: deltas in between are lost", b.Seq, p.applied)
	}
	for len(b.Tables) > 0 {
		t := b.Tables[0]
		table := strings.TrimPrefix(t.Table, deltaPrefix)
		rows := make([]sqltypes.Row, len(t.Rows))
		mult := make([]bool, len(t.Rows))
		for i, r := range t.Rows {
			if len(r) == 0 {
				return fmt.Errorf("htap: empty delta row for %s", table)
			}
			rows[i], mult[i] = r[:len(r)-1], r[len(r)-1].IsTrue()
		}
		if err := p.sess.ApplyDeltaBatch(table, rows, mult); err != nil {
			return fmt.Errorf("htap: replaying deltas for %s: %w", table, err)
		}
		p.Stats.DeltasPulled += len(rows)
		p.Stats.Batches++
		b.Tables = b.Tables[1:]
	}
	p.applied = b.Seq
	p.pending = nil
	return nil
}

// Query synchronizes pending deltas and then runs an analytical query on
// the OLAP engine (the materialized views refresh lazily underneath).
func (p *Pipeline) Query(sql string) (*engine.Result, error) {
	if err := p.Sync(); err != nil {
		return nil, err
	}
	return p.sess.Exec(sql)
}

// RecomputeRemote runs the analytical query directly against the OLTP
// system — the "pure PostgreSQL" configuration of the demo's comparison.
func (p *Pipeline) RecomputeRemote(sql string) (*wire.Response, error) {
	return p.OLTP.Exec(sql)
}

// baseTablesOf extracts the base-table names from a CREATE MATERIALIZED
// VIEW statement's FROM clause.
func baseTablesOf(stmt sqlparser.Statement) []string {
	cv, ok := stmt.(*sqlparser.CreateViewStmt)
	if !ok || cv.Select == nil || cv.Select.From == nil {
		return nil
	}
	var out []string
	var walk func(tr sqlparser.TableRef)
	walk = func(tr sqlparser.TableRef) {
		switch t := tr.(type) {
		case *sqlparser.NamedTable:
			out = append(out, t.Name)
		case *sqlparser.JoinTable:
			walk(t.Left)
			walk(t.Right)
		}
	}
	walk(cv.Select.From)
	return out
}
