#!/usr/bin/env bash
# Builds the program's CLIs and the benchmark from source, then runs the
# benchmark with the arguments given:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh all | repeat | spread | manifest
#
# Build time is outside every metric: the binary starts its clocks itself.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, so the CLIs land beside the
# benchmark binary. A relative CARGO_TARGET_DIR means relative to where the
# caller stands, as cargo itself would read it.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "error: the program's sources are not beside benchmark/; nothing to measure" >&2
    exit 3
fi

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p clean-serve -p clean-trace --bins
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

export CLEAN_BENCH_HOME="$here"
CLEAN_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
CLEAN_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export CLEAN_BENCH_RUSTC CLEAN_BENCH_COMMIT

exec "$target/release/clean-benchmark" "$@"
