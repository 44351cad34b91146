#!/bin/sh
# Tier-1 from a clean checkout: export the committed tree at HEAD with
# `git archive` into a temporary directory and run the tier-1 command of
# ROADMAP.md there, against src/ with no install.  Arguments are passed on
# to pytest (for example -x or -k); exits with pytest's exit code.
set -e
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/s3lab-tier1.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive HEAD | tar -x -C "$tmp"
cd "$tmp"
set +e
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors "$@"
exit $?
