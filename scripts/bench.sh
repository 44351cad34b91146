#!/bin/sh
# Benchmark trajectory: run perfbench's four workloads on one tree, each as
#   python3 perfbench/run.py --workload W --seed SEED --seconds 24 --trace 0
# and write BENCH_<LABEL>.json at the root of this repository: the label,
# the commit, the seed, the environment of the first run and each workload's
# result line (the end-to-end metrics).  With REV the committed tree at REV
# is exported with `git archive` into a temporary directory and benchmarked
# there; without it, this checkout's working tree is.  Exits 2 on a usage
# error or a failed run.
# Usage: scripts/bench.sh LABEL SEED [REV]
set -e
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 LABEL SEED [REV]" >&2
    exit 2
fi
label=$1
seed=$2
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/s3lab-bench.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
if [ $# -eq 3 ]; then
    if ! commit=$(git -C "$root" rev-parse -q --verify "$3^{commit}"); then
        echo "unknown revision $3" >&2
        exit 2
    fi
    tree=$tmp/tree
    mkdir "$tree"
    git -C "$root" archive "$commit" | tar -x -C "$tree"
else
    commit="$(git -C "$root" rev-parse HEAD) plus the working tree"
    tree=$root
fi
for w in bilinear-scan cg-exactness strichartz-suite lattice-cli; do
    if ! (cd "$tree" && python3 perfbench/run.py --workload "$w" --seed "$seed" \
            --seconds 24 --trace 0 > "$tmp/$w.out"); then
        echo "perfbench failed on $w" >&2
        exit 2
    fi
done
python3 - "$tmp" "$root/BENCH_$label.json" "$label" "$commit" "$seed" <<'EOF'
import json
import sys

tmp, path, label, commit, seed = sys.argv[1:]
environment, workloads = None, {}
for w in ("bilinear-scan", "cg-exactness", "strichartz-suite", "lattice-cli"):
    with open(f"{tmp}/{w}.out", encoding="utf-8") as fh:
        detail, workloads[w] = (json.loads(line) for line in fh.read().splitlines()[-2:])
    environment = environment or detail["environment"]
out = {"label": label, "commit": commit, "seed": int(seed), "seconds": 24,
       "environment": environment, "workloads": workloads}
with open(path, "w", encoding="utf-8") as fh:
    json.dump(out, fh, indent=1)
    fh.write("\n")
print(path)
EOF
