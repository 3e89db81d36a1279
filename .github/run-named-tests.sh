#!/usr/bin/env bash
# Runs the tests of one package selected by name, and fails when a name
# selects nothing: `go test -run X` exits 0 with "no tests to run" when a
# rename or deletion empties the pattern, and says nothing at all when only
# one alternative of 'A|B' went away.
#
#   run-named-tests.sh PKG 'TestA|TestB' [go test flags...]
set -euo pipefail
pkg=$1 pattern=$2
shift 2

listed=$(go test "$@" -list "$pattern" "$pkg")
IFS='|' read -ra names <<<"$pattern"
for name in "${names[@]}"; do
	if ! grep -q "^$name" <<<"$listed"; then
		echo "::error::-run '$name' selects no test in $pkg; update .github/workflows/ci.yml" >&2
		exit 1
	fi
done
go test "$@" -run "$pattern" "$pkg"
