#!/bin/sh
# Compare the data outputs of scripts/run_all.sh at REV and at HEAD.  Each
# committed tree is exported with `git archive` into a temporary directory
# and runs its own run_all.sh against its own src/, with S3LAB_OUT set to
# that copy's output directory.  Every .csv and .summary.json is then
# compared with cmp (the manifests carry a timestamp, so they are not), and
# each .summary.json that differs is also shown with diff -u (a CSV can be
# large, so it is only named).  Exits 1 naming each file that differs or
# exists on one side only, 0 when all are byte-identical, 2 on a usage error
# or a failed run.
# Usage: scripts/same_outputs.sh REV
set -e
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
if ! git -C "$root" rev-parse -q --verify "$1^{commit}" > /dev/null; then
    echo "unknown revision $1" >&2
    exit 2
fi
tmp=$(mktemp -d "${TMPDIR:-/tmp}/s3lab-same.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
# export the tree at $1 into the directory $2 and run run_all.sh there
run_all() {
    mkdir "$2"
    git -C "$root" archive "$1" | tar -x -C "$2"
    if ! (cd "$2" && PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} S3LAB_OUT="$2/out" \
            sh scripts/run_all.sh > /dev/null); then
        echo "scripts/run_all.sh failed at $1" >&2
        exit 2
    fi
}
run_all "$1" "$tmp/rev"
run_all HEAD "$tmp/head"
base=$tmp/rev/out
head=$tmp/head/out
status=0
for f in $( (ls "$base"; ls "$head") | grep -E '\.(csv|summary\.json)$' | sort -u); do
    if ! cmp -s "$base/$f" "$head/$f"; then
        echo "differs: $f"
        case $f in
            *.summary.json) diff -u "$base/$f" "$head/$f" || true ;;
        esac
        status=1
    fi
done
if [ $status -eq 0 ]; then
    echo "every .csv and .summary.json is byte-identical"
fi
exit $status
