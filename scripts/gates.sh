#!/usr/bin/env bash
# gates.sh checks that every `go test -run '<pattern>' <packages>` line in
# the Makefile and the CI workflow selects at least one test in each
# package it names, using `go test -list`. A gate whose tests were renamed
# away would otherwise pass green on zero tests. The pattern '^$' (run no
# test, as the benchmark step means to) is exempt. A -run filter written
# in any other form (double quotes, `-run=X`, unquoted, packages on a
# continuation line) fails the check rather than going unchecked.
#
# Usage: scripts/gates.sh
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}

fail=0
checked=0
while IFS= read -r line; do
	if ! grep -qE -- "-run '[^']*' " <<<"$line"; then
		echo "gates: -run filter not in the form -run '<pattern>' <packages>: $line" >&2
		fail=1
		continue
	fi
	pat=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	[ "$pat" = '^$' ] && continue
	pkgs=$(sed -E "s/.*-run '[^']*'//" <<<"$line" | tr ' ' '\n' | grep '^\./' || true)
	if [ -z "$pkgs" ]; then
		echo "gates: no package after -run '$pat' in: $line" >&2
		fail=1
		continue
	fi
	for pkg in $pkgs; do
		n=$("$GO" test -list "$pat" "$pkg" | grep -cE '^(Test|Example|Fuzz)' || true)
		checked=$((checked + 1))
		if [ "$n" -eq 0 ]; then
			echo "gates: -run '$pat' selects no test in $pkg" >&2
			fail=1
		else
			echo "gates: -run '$pat' $pkg: $n test(s)"
		fi
	done
done < <(grep -hE -- '(^|[[:space:]])-run([[:space:]=]|$)' Makefile .github/workflows/ci.yml | grep -vE '^[[:space:]]*#')
[ "$checked" -gt 0 ] || { echo "gates: found no -run filter to check" >&2; exit 1; }
exit $fail
