#!/bin/sh
# pairs.sh — measure a change against its parent in alternating pairs
# and write the evidence as one JSON file.
#
# Each ref is exported with `git archive` into a temporary directory
# (nothing is fetched or downloaded, and nothing is registered in the
# repository), built once, and then run N times in pairs whose first
# side alternates. The JSON holds both commits, the exact command, every
# pair's values, and per metric the median of the change/parent ratios,
# the pairs the change won, both medians and the parent's interquartile
# range, plus an identity column per pair: `answers_sha256` of a
# benchmark run, or for a Go benchmark the SHA-256 of the manifest of a
# `vqgen -kind lines -n 2000 -seed 1 -keyseed 7 -mode one -outsource`
# artifact each side builds. A pair whose identities differ fails the
# run unless -moves declares that the change moves them.
#
# Usage:
#   sh scripts/pairs.sh [-n pairs] [-o out.json] [-moves] <parent-ref> <change-ref> -- <target>
#
# <target> is either
#   a Go benchmark: go test flags starting with -bench, plus an optional
#     -pkg <dir> (default .), e.g.
#       -- -bench 'RepublishCycle/apply$' -benchtime 60x -cpu 2
#     Its regexp must select exactly one benchmark; the values are ns_op,
#     B_op and allocs_op.
#   a benchmark run: benchmark/run.sh and its flags (the script adds
#     --out and edits nothing under benchmark/), e.g.
#       -- benchmark/run.sh --workload republish --seed 1 --seconds 8 --trace 0
#     The values are the workload's end-to-end metrics (per-layer ones
#     with --trace 1), its host slowdown and its failed share, each named
#     <workload>/<metric> when the run covers several workloads; the
#     identity is their answers_sha256 values, comma-joined.
#
# Needs git, go, sha256sum and python3. TMPDIR places the checkouts.
set -eu

pairs=10 out= moves=false
while [ $# -gt 0 ]; do
	case $1 in
	-n) pairs=$2; shift 2 ;;
	-o) out=$2; shift 2 ;;
	-moves) moves=true; shift ;;
	*) break ;;
	esac
done
[ $# -ge 4 ] && [ "$3" = "--" ] || {
	sed -n 's/^# \{0,1\}//; 17,32p' "$0" >&2
	exit 2
}
# q quotes one word for the shell.
q() { printf "'%s'" "$(printf %s "$1" | sed "s/'/'\\\\''/g")"; }
command="sh scripts/pairs.sh -n $pairs"
! $moves || command="$command -moves"
for a in "$@"; do command="$command $(q "$a")"; done
parent_ref=$1 change_ref=$2
shift 3
root=$(git rev-parse --show-toplevel)
parent=$(git -C "$root" rev-parse --verify "$parent_ref^{commit}")
change=$(git -C "$root" rev-parse --verify "$change_ref^{commit}")
out=${out:-$root/perf/pairs.json}

kind=go pkg=.
case $1 in
benchmark/run.sh) kind=run; shift ;;
-bench) ;;
*) echo "pairs: a target starts with -bench or benchmark/run.sh, not $1" >&2; exit 2 ;;
esac
flags=
while [ $# -gt 0 ]; do
	case $kind:$1 in
	go:-pkg) pkg=$2; shift 2; continue ;;
	go:-*) flags="$flags '-test.${1#-}'" ;;
	*) flags="$flags $(q "$1")" ;;
	esac
	shift
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
rows=$tmp/rows.tsv
: >"$rows"

for side in parent change; do
	eval "rev=\$$side"
	mkdir -p "$tmp/$side"
	git -C "$root" archive "$rev" | tar -x -C "$tmp/$side"
	echo "pairs: building $side ($rev)" >&2
	if [ $kind = go ]; then
		(cd "$tmp/$side/$pkg" && go test -c -o "$tmp/$side.test" .)
		(cd "$tmp/$side" && go build -o "$tmp/$side.vqgen" ./cmd/vqgen)
		"$tmp/$side.vqgen" -kind lines -n 2000 -seed 1 -keyseed 7 -mode one -outsource \
			-artifact "$tmp/$side.art" 2>/dev/null
		sha256sum "$tmp/$side.art/manifest.aqm" | cut -d' ' -f1 >"$tmp/$side.identity"
	else
		# The GOCACHE and GOTMPDIR run.sh sets, so its first run links from a warm cache.
		(cd "$tmp/$side" && mkdir -p .bench_build/tmp &&
			GOCACHE=$PWD/.bench_build/gocache GOTMPDIR=$PWD/.bench_build/tmp GOTOOLCHAIN=local \
				sh -c 'go build -o /dev/null ./cmd/vqgen ./cmd/vqserve ./cmd/vqfront && cd benchmark && go build -o /dev/null .')
	fi
done

# one runs side $1 for pair $2 and appends its values to $rows.
one() {
	if [ $kind = go ]; then
		line=$(cd "$tmp/$1/$pkg" && eval "\"$tmp/$1.test\" -test.run '^\$' -test.benchmem $flags" | grep '^Benchmark') || true
		[ -n "$line" ] && [ "$(printf '%s\n' "$line" | wc -l)" -eq 1 ] || {
			printf 'pairs: the target ran %s benchmarks, want one:\n%s\n' "$(printf '%s\n' "$line" | wc -l)" "$line" >&2
			exit 1
		}
		printf '%s\n' "$line" | awk -v p="$2" -v s="$1" -v id="$(cat "$tmp/$1.identity")" '{
			for (i = 3; i < NF; i++) {
				u = $(i + 1)
				if (u == "ns/op") m = "ns_op"; else if (u == "B/op") m = "B_op"; else if (u == "allocs/op") m = "allocs_op"; else continue
				printf "%s\t%s\t%s\t%s\t%s\n", p, s, m, $i, id
			}
		}' >>"$rows"
	else
		(cd "$tmp/$1" && eval "sh benchmark/run.sh $flags --out '$tmp/$1.$2.json'") >"$tmp/$1.$2.log" 2>&1 || {
			echo "pairs: $1 run $2 failed:" >&2
			tail -20 "$tmp/$1.$2.log" >&2
			exit 1
		}
		python3 - "$tmp/$1.$2.json" "$2" "$1" >>"$rows" <<'EOF'
import json, sys
ws = json.load(open(sys.argv[1]))["workloads"]
ident = ",".join(w["info"]["answers_sha256"] for _, w in sorted(ws.items()))
for name, w in sorted(ws.items()):
    info = w["info"]
    vals = dict(w.get("end_to_end") or {}, **(w.get("per_layer") or {}))
    vals["host_slowdown"], vals["failed_share"] = info["host_slowdown"], info["failed_share"]
    for m, v in vals.items():
        m = m if len(ws) == 1 else name + "/" + m
        print("\t".join([sys.argv[2], sys.argv[3], m, repr(v), ident]))
EOF
	fi
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
	echo "pairs: pair $i/$pairs ($first first)" >&2
	one $first $i
	one $second $i
	i=$((i + 1))
done

mkdir -p "$(dirname "$out")"
python3 - "$rows" "$out" "$root/BENCHMARK.json" "$parent" "$change" "$command" "$kind" "$moves" <<'EOF'
import json, statistics, sys
rows, out, contract, parent, change, command, kind, moves = sys.argv[1:]
lower = {"ns_op", "B_op", "allocs_op", "host_slowdown", "failed_share"}
spec = json.load(open(contract))
for m in spec["end_to_end"] + spec["per_layer"]:
    if m["better"] == "lower":
        lower.add(m["name"])
pairs, order = {}, []
for line in open(rows):
    p, side, m, v, ident = line.rstrip("\n").split("\t")
    p = int(p)
    pr = pairs.setdefault(p, {"pair": p, "first": side, "parent": {}, "change": {}, "identity": {}})
    pr[side][m] = float(v)
    pr["identity"][side] = ident
    if m not in order:
        order.append(m)
pairs = [pairs[p] for p in sorted(pairs)]
for pr in pairs:
    pr["identity_same"] = pr["identity"]["parent"] == pr["identity"]["change"]

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]

summary = {}
for m in order:
    par = [pr["parent"][m] for pr in pairs]
    chg = [pr["change"][m] for pr in pairs]
    ratios = [c / p for p, c in zip(par, chg) if p != 0]
    low = m.split("/")[-1] in lower
    wins = sum((c < p) if low else (c > p) for p, c in zip(par, chg))
    q1, q3 = quartiles(par)
    summary[m] = {
        "better": "lower" if low else "higher",
        "median_ratio": statistics.median(ratios) if ratios else None,
        "wins": wins,
        "pairs": len(pairs),
        "parent_median": statistics.median(par),
        "change_median": statistics.median(chg),
        "parent_iqr": q3 - q1,
        "medians_differ_by_more_than_iqr": abs(statistics.median(chg) - statistics.median(par)) > q3 - q1,
    }
same = all(pr["identity_same"] for pr in pairs)
doc = {
    "parent": parent,
    "change": change,
    "command": command,
    "target": kind,
    "identity": "answers_sha256" if kind == "run" else "vqgen one-signature artifact manifest sha256",
    "identity_moves_declared": moves == "true",
    "identity_same": same,
    "summary": summary,
    "pairs": pairs,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
for m, s in summary.items():
    print(f"{m:20s} median ratio {s['median_ratio'] or 0:.4f}  wins {s['wins']}/{s['pairs']}  "
          f"parent {s['parent_median']:.6g} (IQR {s['parent_iqr']:.4g})  change {s['change_median']:.6g}")
print(f"identity same in every pair: {same}; wrote {out}")
if not same and moves != "true":
    sys.exit("pairs: the identity column differs and -moves was not given")
EOF
