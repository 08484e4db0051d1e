#!/usr/bin/env bash
# Lists the product functions that no entry point runs, and compares the
# list with coverage/unreached.txt.
#
#   bash coverage/unreached.sh            # exit 1 on any difference
#   bash coverage/unreached.sh --write    # rewrite the function column
#
# Every entry point is built with -cover -coverpkg over the module
# (cmd/arrowbench, cmd/lowerbound, cmd/arrowtrace, the five examples and
# the bench/ binary) and run over a fixed command list: arrowbench -h,
# each arrowbench experiment as a table and as -json, one profiled run,
# lowerbound at its defaults, at a larger instance and on bad flags,
# arrowtrace plain and with -chaos, every example, and every bench
# workload traced for 2 s. The merged
# profile's functions at 0 % outside internal/lint and bench/ are the
# unreached set. unreached.txt holds one "function<TAB>reason" line per
# unreached function, named as go tool covdata names it: "file:Func",
# "file:Type.Method" or "file:*Type.Method", file relative to the root.
# The check fails on a function at 0 % that the file does not list and
# on a listed function that now runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
export GOTOOLCHAIN=local GOWORK=off LC_ALL=C

bin="$work/bin"
data="$work/data"
mkdir -p "$bin" "$data"
cd "$root"
for p in cmd/arrowbench cmd/lowerbound cmd/arrowtrace examples/counting examples/directory examples/multicast examples/mutex examples/quickstart; do
	go build -cover -coverpkg=repro/... -o "$bin/$(basename "$p")" "./$p"
done
go -C bench build -cover -coverpkg=repro/... -o "$bin/bench" .

# run NAME ARGS... runs one binary with its counters landing in $data;
# its output is discarded and a non-zero exit is fine (bad flags are part
# of the list), but a signal (exit > 128) is not.
run() {
	local code=0
	GOCOVERDIR="$data" "$bin/$1" "${@:2}" >/dev/null 2>&1 || code=$?
	if ((code > 128)); then
		echo "unreached.sh: $* died with exit $code" >&2
		exit 1
	fi
}

run arrowbench -h
exps=$("$bin/arrowbench" -h 2>&1 | sed -n '/^Experiments/,$p' | awk 'NR > 1 && $1 != "all" {print $1}')
for e in $exps; do
	run arrowbench -exp "$e" -sizes 4,8,16 -pernode 50 -workers 2
	run arrowbench -exp "$e" -json -sizes 4,8 -pernode 20 -workers 2
done
run arrowbench -exp fig10 -sizes 4 -pernode 10 -cpuprofile "$work/cpu.pprof" -memprofile "$work/mem.pprof"
run lowerbound
run lowerbound -logd 8 -k 4
run lowerbound -logd 30
run lowerbound -k -2
run arrowtrace
run arrowtrace -chaos
for ex in counting directory multicast mutex quickstart; do
	run "$ex"
done
for w in scale-arrow-tree scale-central-complete paper-grid shard-capacity drain-parallel runtime-live; do
	run bench --workload "$w" --seed 1 --seconds 2 --trace 1
done

# covdata names a function "Func", "Type.Method" or "*Type.Method";
# the key adds the file. The statement count covers the same files.
skip='^repro/(internal/lint|bench)/'
go tool covdata func -i="$data" |
	awk -F'\t+' -v skip="$skip" '$1 !~ skip && $NF == "0.0%" {sub(/^repro\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1 ":" $2}' |
	sort >"$work/got"
go tool covdata textfmt -i="$data" -o "$work/profile"
awk -F'[: ]' -v skip="$skip" 'NR > 1 && $1 !~ skip {
	k = $1 ":" $2; n[k] = $3; if ($4 > 0) hit[k] = 1
} END {
	for (k in n) { all += n[k]; if (!(k in hit)) un += n[k] }
	printf "unreached: %d of %d statements unrun, ", un, all
}' "$work/profile" >&2
echo "$(wc -l <"$work/got") functions at 0 %" >&2

list="$here/unreached.txt"
if [[ "${1:-}" == "--write" ]]; then
	touch "$list"
	join -t $'\t' -a 1 "$work/got" <(sort "$list") >"$work/new"
	mv "$work/new" "$list"
	exit 0
fi
cut -f1 "$list" | sort >"$work/want"
awk -F'\t' 'NF < 2 || $2 == "" {print "unreached.txt: no reason for " $1; bad = 1} END {exit bad}' "$list" >&2 || fail=1
if ! diff "$work/want" "$work/got" >"$work/diff"; then
	sed -n 's/^> /newly unreached (run it, delete it or list it with a reason): /p; s/^< /listed but runs now (drop its line): /p' "$work/diff" >&2
	fail=1
fi
exit "${fail:-0}"
