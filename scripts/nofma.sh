#!/bin/sh
# nofma.sh — fail when the compiler fuses a multiply-add in a package
# where a verdict, an owner order or a benchmark input is decided.
#
# The Go spec lets a compiler fuse x*y + z into one instruction with one
# rounding. On arm64, ppc64le, s390x and riscv64 it does; on amd64 and
# 386 it never does. A fused site computes different bits on those CPUs,
# so a client could reject an honest answer that another CPU accepts,
# and an owner could build different bytes. An explicit conversion,
# float64(x*y), rounds the product and forbids the fusion. This script
# cross-compiles the scoped packages for the four fusing architectures
# with -gcflags=-S and fails on any fused instruction: the assembly is
# the ground truth, because the compiler also fuses across statements.
# It builds only, so it runs offline in seconds on any host.
#
# Usage: scripts/nofma.sh [root]   (default: repo root)
set -eu
cd "${1:-$(dirname "$0")/..}"
pkgs="./internal/linalg ./internal/funcs ./internal/geometry ./internal/verify
./internal/query ./internal/itree ./internal/lp ./internal/workload"
status=0
for arch in arm64 ppc64le s390x riscv64; do
	# shellcheck disable=SC2086 # pkgs is a word list
	asm=$(GOARCH=$arch go build -gcflags=-S $pkgs 2>&1) || {
		printf '%s\n' "$asm"
		exit 2
	}
	if ! printf '%s\n' "$asm" | grep -q 'STEXT'; then
		echo "nofma: $arch: the compiler printed no assembly" >&2
		exit 2
	fi
	fused=$(printf '%s\n' "$asm" | grep -E '[[:space:]]FN?M(ADD|SUB)[A-Z]*[[:space:]]' || true)
	if [ -n "$fused" ]; then
		echo "nofma: $arch fuses a multiply-add:"
		printf '%s\n' "$fused"
		status=1
	fi
done
[ "$status" -eq 0 ] && echo "nofma: no fused multiply-add on arm64, ppc64le, s390x or riscv64"
exit "$status"
