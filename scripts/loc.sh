#!/bin/sh
# loc.sh — the one definition of the tracked "non-test Go lines" number
# (ROADMAP aim 2): every .go file outside tests, test fixtures and the
# benchmark module.
#
# Usage: scripts/loc.sh [root]   (default root: repo root)
set -eu
cd "${1:-$(dirname "$0")/..}"
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' | xargs cat | wc -l
