// Package enginerr is the engine's single vocabulary for classified
// errors. Every error the engine wants a client to be able to act on
// carries a SQLSTATE-style five-character class, attached once at the
// construction site and read uniformly everywhere downstream: the
// engine's public Code helper, the wire Response.Code field, and the
// streaming trailer all call CodeOf instead of string-matching error
// text or maintaining parallel sentinel lists.
//
// The package is a leaf — it imports only the standard library — so the
// low-level packages that originate classified failures (mvcc for
// serialization conflicts, catalog for constraint and name errors,
// storage for recovery corruption) can depend on it without cycles.
//
// Classification survives wrapping: CodeOf walks the errors.Unwrap
// chain, so `fmt.Errorf("insert: %w", err)` keeps the class intact.
package enginerr

import (
	"errors"
	"fmt"
)

// SQLSTATE classes used by the engine. The values follow the standard
// (and PostgreSQL's extensions) so existing client-side retry logic
// keyed on "40001" keeps working unchanged.
const (
	// CodeSerialization is a snapshot-isolation write-write conflict
	// (first-updater-wins) or an implied lost update. Retryable.
	CodeSerialization = "40001"
	// CodeDuplicateKey is a primary-key or unique-index violation.
	CodeDuplicateKey = "23505"
	// CodeUndefinedTable names a table or view that does not exist.
	CodeUndefinedTable = "42P01"
	// CodeDuplicateTable names a table, view or index that exists already.
	CodeDuplicateTable = "42P07"
	// CodeUndefinedObject names an index that does not exist.
	CodeUndefinedObject = "42704"
	// CodeUndefinedColumn names a column the table does not have.
	CodeUndefinedColumn = "42703"
	// CodeInvalidColumnReference is a column list that names no
	// constraint it must: an ON CONFLICT target that is not the primary
	// key.
	CodeInvalidColumnReference = "42P10"
	// CodeRecoveryCorruption is unreadable durable state: a checkpoint
	// or WAL record that fails its checksum or decodes inconsistently
	// beyond the tolerated torn tail. Not retryable.
	CodeRecoveryCorruption = "XX001"
	// CodeIOFailure is a storage-layer I/O failure (failed write, fsync,
	// rename, or directory sync — including ENOSPC). The engine responds
	// by degrading to read-only: subsequent writes fail fast with this
	// class until an operator re-attaches a healthy backend. Not
	// retryable against the same backend.
	CodeIOFailure = "58030"
	// CodeInternal is a recovered internal error (a panic caught at the
	// statement or connection boundary). The statement's transaction has
	// been rolled back; the session and other connections are unaffected.
	CodeInternal = "XX000"
	// CodeShutdown reports that the server is shutting down and refused
	// or interrupted the operation. Retryable against another replica or
	// after the server returns.
	CodeShutdown = "57P01"
	// CodeInFailedTxn refuses a statement sent to a transaction a failed
	// statement doomed: only COMMIT (which returns that failure) and
	// ROLLBACK end it.
	CodeInFailedTxn = "25P02"
	// CodeFeatureNotSupported refuses a statement the engine parses but
	// does not carry out, such as a materialized view over a table the
	// IVM extension maintains.
	CodeFeatureNotSupported = "0A000"
	// CodeWrongObjectType refuses a statement on an object of a kind it
	// does not apply to, such as a write to a materialized view's table.
	CodeWrongObjectType = "42809"
	// CodeDependentObjects refuses to drop an object others depend on,
	// such as a base table a materialized view reads.
	CodeDependentObjects = "2BP01"
	// CodeSyntaxError is a statement the lexer or the parser cannot read.
	CodeSyntaxError = "42601"
	// CodeNotInPrerequisiteState refuses a statement the session's state
	// does not allow yet, such as a write to a transaction that an open
	// stream of the session still reads.
	CodeNotInPrerequisiteState = "55000"
)

// Error is a classified engine error: a SQLSTATE class plus a message,
// optionally wrapping a cause. The zero class ("") means unclassified.
type Error struct {
	Code string // five-character SQLSTATE-style class
	Msg  string
	Err  error // wrapped cause, may be nil
}

func (e *Error) Error() string {
	if e.Err != nil {
		if e.Msg == "" {
			return e.Err.Error()
		}
		return e.Msg + ": " + e.Err.Error()
	}
	return e.Msg
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// SQLState returns the error's class, satisfying the interface CodeOf
// probes for so foreign error types can participate in classification.
func (e *Error) SQLState() string { return e.Code }

// Is makes two classified errors match under errors.Is when they carry
// the same class, so sentinel comparisons like
// errors.Is(err, mvcc.ErrSerialization) keep working after call sites
// wrap the sentinel in fresh *Error values.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// New constructs a classified error with a plain message.
func New(code, msg string) *Error { return &Error{Code: code, Msg: msg} }

// Newf constructs a classified error with a formatted message. The
// format verbs may include %w exactly like fmt.Errorf; the wrapped
// cause stays reachable through Unwrap.
func Newf(code, format string, args ...any) *Error {
	err := fmt.Errorf(format, args...)
	return &Error{Code: code, Msg: err.Error(), Err: errors.Unwrap(err)}
}

// Wrap attaches a class to an existing error, preserving it as the
// cause. Wrapping nil returns nil.
func Wrap(code string, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Code: code, Err: err}
}

// sqlstater is the minimal contract for classified errors; *Error
// satisfies it, and so can error types from other packages.
type sqlstater interface{ SQLState() string }

// CodeOf returns the SQLSTATE class of err, walking the wrap chain, or
// "" when the error is nil or unclassified.
func CodeOf(err error) string {
	for err != nil {
		if s, ok := err.(sqlstater); ok {
			if c := s.SQLState(); c != "" {
				return c
			}
		}
		switch x := err.(type) {
		case interface{ Unwrap() error }:
			err = x.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range x.Unwrap() {
				if c := CodeOf(e); c != "" {
					return c
				}
			}
			return ""
		default:
			return ""
		}
	}
	return ""
}

// HasCode reports whether err carries the given class anywhere in its
// wrap chain.
func HasCode(err error, code string) bool { return err != nil && CodeOf(err) == code }
