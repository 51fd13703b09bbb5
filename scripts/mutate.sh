#!/bin/sh
# mutate.sh runs the mutant catalogue, scripts/mutants.tsv, against an
# exported copy of a revision's tree: for each mutant it makes the
# catalogued edits in the copy, runs the tests the catalogue names, reports
# the mutant killed (the tests failed) or survived (they passed), and puts
# the files back. An edit whose anchor matches nothing, and a mutant that
# does not compile, fail the run: either means the catalogue fell behind
# the code. It exits non-zero unless every mutant is killed.
#
# Usage: scripts/mutate.sh [REV [ID_REGEX]] (make mutate runs it on HEAD);
# ID_REGEX picks mutants by id, e.g. '^(K1|K2)$'. To run uncommitted work,
# stage it and pass "$(git stash create)" as REV.
set -eu

rev=${1:-HEAD} only=${2:-.}
root=$(git rev-parse --show-toplevel)
dir=$(mktemp -d "${TMPDIR:-/tmp}/mutate.XXXXXX")
trap 'rm -rf "$dir"' EXIT
# The copy keeps one path for the whole run, so the build cache serves
# every package a mutant does not touch.
git -C "$root" archive "$rev" | tar -x -C "$dir"

tab=$(printf '\t')
start=$(date +%s)
killed=0 survived=0
cur='' touched=''

# finish runs the current mutant's tests and restores the files it edited.
finish() {
	[ -n "$cur" ] || return 0
	# shellcheck disable=SC2086 # packages and flags are word lists
	if out=$(cd "$dir" && go test -vet=off $cflags -run "$crun" $cpkgs 2>&1 </dev/null); then
		survived=$((survived + 1))
		echo "survived $cur: go test $cflags -run '$crun' $cpkgs passed"
	elif echo "$out" | grep -q '\[build failed\]\|\[setup failed\]'; then
		echo "$out"
		echo "mutate: $cur does not compile; fix its rows in scripts/mutants.tsv"
		exit 1
	else
		killed=$((killed + 1))
		why=$(echo "$out" | grep -m 1 '^--- FAIL' || echo "$out" | grep -m 1 -E '^(panic|fatal error):' || echo "$out" | tail -n 1)
		echo "killed   $cur: $why"
	fi
	for f in $touched; do
		mv "$dir/$f.orig" "$dir/$f"
	done
	cur='' touched=''
}

while IFS="$tab" read -r id pkgs run flags file old new; do
	case $id in '' | '#'*) continue ;; esac
	[ -n "$new" ] || { echo "mutate: row of $id has fewer than seven fields"; exit 1; }
	echo "$id" | grep -Eq "$only" || continue
	[ "$id" = "$cur" ] || finish
	cur=$id cpkgs=$pkgs crun=$run cflags=$flags
	if [ ! -f "$dir/$file.orig" ]; then
		cp "$dir/$file" "$dir/$file.orig"
		touched="$touched $file"
	fi
	# awk expands \n, \t and \\ in -v values; old is matched literally.
	if ! awk -v old="$old" -v new="$new" '
		{ s = s $0 "\n" }
		END {
			i = index(s, old)
			if (i == 0) exit 3
			printf "%s", substr(s, 1, i - 1) new substr(s, i + length(old))
		}' "$dir/$file" >"$dir/$file.next"; then
		echo "mutate: $id: anchor not found in $file: $old"
		exit 1
	fi
	mv "$dir/$file.next" "$dir/$file"
done <"$dir/scripts/mutants.tsv"
finish

echo "mutate: $killed killed, $survived survived, $(($(date +%s) - start)) s at $rev"
[ "$survived" -eq 0 ]
