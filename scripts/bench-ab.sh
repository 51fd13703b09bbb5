#!/bin/sh
# bench-ab.sh measures a change against a base revision the way README
# "Performance" asks a performance claim to be shown: the repository
# benchmark (./benchmarks, untraced) built once at BASE and once from the
# working tree, run alternately PAIRS times on one workload, base first in
# odd pairs and the change first in even ones. It prints, for every
# end-to-end metric of BENCHMARK.json, each side's median and quartiles
# over the runs, how many pairs the change won, and whether the medians
# lie further apart than the base's quartiles. Each run's closing JSON
# line is kept in a temporary directory outside the tree, named in the
# output.
#
# Usage: scripts/bench-ab.sh BASE WORKLOAD [PAIRS [SECONDS [SEED]]]
# (or make bench-ab BASE=<rev> WORKLOAD=<name> [PAIRS=10 SECONDS=8 SEED=1])
set -eu

if [ $# -lt 2 ]; then
	echo "usage: $0 BASE WORKLOAD [PAIRS [SECONDS [SEED]]]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=${3:-10} seconds=${4:-8} seed=${5:-1}
root=$(git rev-parse --show-toplevel)
dir=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")

# The base is built from an exported copy of its tree, so the repository
# gains no worktree to clean up if the run is interrupted.
mkdir "$dir/base-src"
git -C "$root" archive "$base" | tar -x -C "$dir/base-src"
(cd "$dir/base-src" && go build -o "$dir/base" ./benchmarks)
rm -rf "$dir/base-src"
(cd "$root" && go build -o "$dir/change" ./benchmarks)

echo "bench-ab: $workload, $pairs pairs of $seconds s at seed $seed; base $base against the working tree; runs kept in $dir"
i=1
while [ "$i" -le "$pairs" ]; do
	order="base change"
	if [ $((i % 2)) -eq 0 ]; then
		order="change base"
	fi
	for side in $order; do
		"$dir/$side" -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 -out "$dir/out" |
			tail -n 1 >"$dir/$side.$i.json" || true
		echo "pair $i $side: $(sed -n 's/.*"work_per_s":{"value":\([^,]*\).*/work_per_s \1/p' "$dir/$side.$i.json")"
	done
	i=$((i + 1))
done

awk -v pairs="$pairs" -v spec="$root/BENCHMARK.json" '
# sort sorts a[1..n] ascending.
function sort(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) {
			t = a[j]; a[j] = a[j-1]; a[j-1] = t
		}
}
# quantile is the p-quantile of ascending a[1..n], interpolated between
# closest ranks as the benchmark itself computes it.
function quantile(a, n, p,    pos, lo) {
	pos = p * (n - 1); lo = int(pos)
	if (lo + 1 >= n) return a[n]
	return a[lo+1] + (a[lo+2] - a[lo+1]) * (pos - lo)
}
FILENAME == spec {
	if ($0 ~ /"end_to_end"/) inE2E = 1
	else if ($0 ~ /"per_layer"/) inE2E = 0
	if (inE2E && $1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2; names[++metrics] = name }
	if (inE2E && $1 == "\"unit\":") { gsub(/[",]/, "", $2); unit[name] = $2 }
	if (inE2E && $1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
	next
}
{
	k = split(FILENAME, path, "/"); split(path[k], f, "."); side = f[1]; pair = f[2]
	line = $0
	while (match(line, /"[a-z0-9_]+":\{"value":[-+.0-9eE]+/)) {
		m = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
		split(m, kv, /":\{"value":/)
		v[side, pair, substr(kv[1], 2)] = kv[2] + 0
	}
	if (match($0, /"attempted":[0-9]+/)) attempted[side] += substr($0, RSTART + 12, RLENGTH - 12)
	if (match($0, /"failed":[0-9]+/)) failed[side] += substr($0, RSTART + 9, RLENGTH - 9)
	if ($0 !~ /"correct":true/) wrong[side]++
}
END {
	printf "%-16s %-6s %-40s %-40s %-9s %s\n", "metric", "unit", "base median [q1 q3]", "change median [q1 q3]", "wins", "gap>base IQR"
	for (k = 1; k <= metrics; k++) {
		name = names[k]; nb = nc = wins = pairsBoth = 0
		for (p = 1; p <= pairs; p++) {
			hb = (("base", p, name) in v); hc = (("change", p, name) in v)
			if (hb) b[++nb] = v["base", p, name]
			if (hc) c[++nc] = v["change", p, name]
			if (!hb || !hc) continue
			pairsBoth++
			x = v["change", p, name]; y = v["base", p, name]
			if ((better[name] == "higher" && x > y) || (better[name] == "lower" && x < y)) wins++
		}
		if (nb == 0 || nc == 0) { printf "%-16s %-6s no data\n", name, unit[name]; continue }
		sort(b, nb); sort(c, nc)
		mb = quantile(b, nb, 0.5); mc = quantile(c, nc, 0.5)
		iqr = quantile(b, nb, 0.75) - quantile(b, nb, 0.25)
		gap = mc - mb; if (gap < 0) gap = -gap
		printf "%-16s %-6s %-40s %-40s %-9s %s\n", name, unit[name],
			sprintf("%.6g [%.6g %.6g]", mb, quantile(b, nb, 0.25), quantile(b, nb, 0.75)),
			sprintf("%.6g [%.6g %.6g]", mc, quantile(c, nc, 0.25), quantile(c, nc, 0.75)),
			wins "/" pairsBoth, (gap > iqr ? "yes" : "no")
	}
	for (s = 1; s <= 2; s++) {
		side = (s == 1 ? "base" : "change")
		printf "%s: %d of %d operations failed; %d runs not correct\n", side, failed[side], attempted[side], wrong[side]
	}
}' "$root/BENCHMARK.json" $(i=1; while [ "$i" -le "$pairs" ]; do echo "$dir/base.$i.json $dir/change.$i.json"; i=$((i + 1)); done)
