#!/usr/bin/env bash
# loc_report.sh — how much code there is, and how wide the public API is.
#
# Prints the non-test Go lines of every package of the module (the files
# `go list` calls GoFiles: no _test.go, no bench/ — that is its own
# module), their sum, and the root package's exported surface as `go doc`
# sees it: package-level funcs, methods on exported types, and exported
# types/consts/vars (a grouped const or var block counts once).
#
# The CI test job prints it, and each PR's BENCH_PR<N>.json records the
# numbers, so growth and diets show up as a trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "non-test Go lines per package:"
total=0
while read -r pkg dir files; do
    [ -n "$files" ] || continue
    n=$(cd "$dir" && cat $files | wc -l)
    total=$((total + n))
    printf '  %6d  %s\n' "$n" "$pkg"
done < <(go list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./...)
printf '  %6d  total\n' "$total"

short=$(go doc -short .)
funcs=$(printf '%s\n' "$short" | grep -c '^ *func ')
decls=$(printf '%s\n' "$short" | grep -c '^\(type\|const\|var\) ')
methods=$(go doc -all . | grep -c '^func (')
echo "root package exported symbols:"
printf '  %6d  funcs\n  %6d  methods\n  %6d  types, consts, vars\n  %6d  total\n' \
    "$funcs" "$methods" "$decls" $((funcs + methods + decls))
