package catalog

import "openivm/internal/storage"

// The in-memory row table is the default implementation of the
// engine's pluggable storage contract.
var _ storage.Table = (*Table)(nil)
