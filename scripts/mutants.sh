#!/usr/bin/env bash
# mutants.sh keeps every broken build a change has shown its tests catch.
# Each testdata/mutants/*.patch is a unified diff whose header names the
# package (`# package: ./pkg`) and the `go test -run` pattern
# (`# run: Pattern`) expected to fail once it is applied. For each one the
# script copies the tree to a temporary directory, applies the patch with
# `git apply`, builds the package with its tests, and runs only the named
# tests. It fails when a patch no longer applies, when a mutant does not
# build, or when a mutant survives its tests.
#
# Usage: scripts/mutants.sh
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
root=$PWD
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
for patch in testdata/mutants/*.patch; do
	pkg=$(sed -n 's/^# package: //p' "$patch")
	run=$(sed -n 's/^# run: //p' "$patch")
	if [ -z "$pkg" ] || [ -z "$run" ]; then
		echo "mutants: $patch names no package or no run pattern" >&2
		fail=1
		continue
	fi
	tree=$tmp/$(basename "$patch" .patch)
	mkdir "$tree"
	git ls-files -z -co --exclude-standard | tar --null --ignore-failed-read -T - -cf - | tar -xf - -C "$tree"
	if ! (cd "$tree" && git apply "$root/$patch"); then
		echo "mutants: $patch no longer applies" >&2
		fail=1
		continue
	fi
	# go test -run '^$' compiles the package with its tests and runs none:
	# unlike go build it also takes a package of tests alone, such as the
	# root package that holds TestGoldens.
	if ! (cd "$tree" && "$GO" test -count=1 -run '^$' "$pkg" >/dev/null); then
		echo "mutants: $patch does not build" >&2
		fail=1
		continue
	fi
	if (cd "$tree" && "$GO" test -count=1 -run "$run" "$pkg" >"$tree.log" 2>&1); then
		echo "mutants: $patch SURVIVED go test -run '$run' $pkg" >&2
		fail=1
	else
		echo "mutants: $patch killed by go test -run '$run' $pkg:"
		grep -m 3 -E '^\s+(oracle_test|.*_test)\.go:[0-9]+:|^panic: ' "$tree.log" | cut -c1-200 || true
	fi
	rm -rf "$tree"
done
exit $fail
