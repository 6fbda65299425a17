#!/usr/bin/env bash
# Fails when a -run or -bench filter on a `go test` line of the CI
# workflow selects nothing in the packages of that line, so a renamed
# or deleted test cannot turn a CI step into a silent no-op. Each
# top-level alternative of a filter (A|B|C) must match on its own: a
# -run alternative must name a test, fuzz target or example, a -bench
# alternative a benchmark, in at least one of the line's packages. The
# deliberate `-run xxx` of benchmark-only lines is not checked.
#
#   bash .github/check-test-filters.sh [.github/workflows/ci.yml]
set -euo pipefail
set -f # keep ./... and patterns away from globbing

workflow=${1:-.github/workflows/ci.yml}
status=0

# check KIND PATTERN PKG... lists the top-level names each alternative
# of PATTERN selects and fails the run when one selects none of KIND.
check() {
	local kind=$1 pattern=$2
	shift 2
	local prefix='^(Test|Fuzz|Example)'
	[ "$kind" = bench ] && prefix='^Benchmark'
	local alt
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		local listed
		listed=$(go test -list "$alt" "$@")
		if ! grep -Eq "$prefix" <<<"$listed"; then
			echo "CI filter -$kind '$alt' (of '$pattern') matches nothing in $*" >&2
			status=1
		fi
	done
}

while IFS= read -r line; do
	eval "set -- ${line#*go test }"
	pkgs=() run="" bench=""
	while [ $# -gt 0 ]; do
		case $1 in
		-run) run=$2; shift 2 ;;
		-run=*) run=${1#-run=}; shift ;;
		-bench) bench=$2; shift 2 ;;
		-bench=*) bench=${1#-bench=}; shift ;;
		-fuzz | -fuzztime | -benchtime | -count | -timeout | -cpu | -list | -p) shift 2 ;;
		-*) shift ;;
		*) pkgs+=("$1"); shift ;;
		esac
	done
	[ ${#pkgs[@]} -eq 0 ] && pkgs=(.)
	if [ -n "$bench" ]; then
		check bench "$bench" "${pkgs[@]}"
	elif [ -n "$run" ]; then
		check run "$run" "${pkgs[@]}"
	fi
done < <(grep -E '(^|[[:space:]])go test ' "$workflow")

exit $status
