#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, temporary files, the binary) stays under $CARGO_TARGET_DIR, which
# defaults to .bench_build in the current directory. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/config
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -trimpath -o "$out/perfbench" .)

sha=unknown
if [ -e "$root/.git" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --root "$root" --git-sha "$sha" "$@"
