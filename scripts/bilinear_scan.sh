#!/bin/sh
# Full bilinear ratio scan; every run has the zonal sweep and the quadrature cross-check.
set -e
OUT=${S3LAB_OUT:-results}
python3 -m s3lab.cli bilinear-verify --m-max 64 --n-max 64 --seeds 500 \
    --seed 7 --out "$OUT"
