//go:build !linux

package ivm

import "testing"

// postgresTarget skips: the PostgreSQL oracle (postgres_test.go) starts
// its server with Linux process attributes.
func postgresTarget(t *testing.T) target {
	t.Skip("PostgreSQL not run: the oracle's server is started on Linux only")
	return nil
}
