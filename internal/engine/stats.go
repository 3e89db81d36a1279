package engine

import (
	"openivm/internal/fault"
	"openivm/internal/metrics"
	"openivm/internal/mvcc"
	"openivm/internal/storage"
)

// Metrics is the DB's counter registry: the engine's, its MVCC manager's
// and its backend's counters, and those of the IVM extension and a wire
// server installed on it. docs/OPERATIONS.md lists every name.
func (db *DB) Metrics() *metrics.Registry { return db.metrics }

func (db *DB) registerMetrics() {
	r, c := db.metrics, db.plans
	locked := func(name string, f func() int64) {
		r.Register(name, func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return f()
		})
	}
	locked("server.planCacheSize", func() int64 { return int64(c.lru.Len()) })
	locked("server.planCacheHits", func() int64 { return c.hits })
	locked("server.planCacheMiss", func() int64 { return c.misses })
	r.Register("server.degraded", func() int64 {
		if db.Degraded() {
			return 1
		}
		return 0
	})
	r.Register("server.panicsRecovered", db.panicsRecovered.Load)
	r.Register("server.faultInjected", fault.Injected)
	db.cat.MVCC().Register(r)
	db.backend.Register(r)
}

// The types and accessors below read the registry's counters that the
// repository benchmark reads; each value lives in the registry alone.

// IVMStats holds ivm.* counters (zero without the IVM extension).
type IVMStats struct {
	Refreshes, GenerationsSealed, CaptureStallNanos, DeltaRowsCaptured int64
}

// IVMStats reads the ivm.* counters.
func (db *DB) IVMStats() IVMStats {
	m := db.metrics.Snapshot()
	return IVMStats{
		Refreshes:         m["ivm.refreshes"],
		GenerationsSealed: m["ivm.generationsSealed"],
		CaptureStallNanos: m["ivm.captureStallNanos"],
		DeltaRowsCaptured: m["ivm.deltaRowsCaptured"],
	}
}

// TxnStats reads the txn.* counters.
func (db *DB) TxnStats() mvcc.Stats {
	m := db.metrics.Snapshot()
	return mvcc.Stats{
		Commits:        uint64(m["txn.commits"]),
		ConflictAborts: uint64(m["txn.conflictAborts"]),
		GCVersions:     uint64(m["txn.gcVersions"]),
	}
}

// StorageStats reads the storage.* counters.
func (db *DB) StorageStats() storage.Stats {
	m := db.metrics.Snapshot()
	return storage.Stats{
		WALBytes:        m["storage.walBytes"],
		WALRecords:      m["storage.walRecords"],
		Fsyncs:          m["storage.fsyncs"],
		ReplayedRecords: m["storage.recoveryReplayedRecords"],
	}
}

// StmtCacheStats holds the statement cache's server.* counters.
type StmtCacheStats struct {
	Entries      int
	Hits, Misses int64
}

// StmtCacheStats reads the statement cache's counters.
func (db *DB) StmtCacheStats() StmtCacheStats {
	m := db.metrics.Snapshot()
	return StmtCacheStats{
		Entries: int(m["server.planCacheSize"]),
		Hits:    m["server.planCacheHits"],
		Misses:  m["server.planCacheMiss"],
	}
}
