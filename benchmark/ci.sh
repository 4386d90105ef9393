#!/usr/bin/env bash
# Build, unit-test and smoke-test the benchmark, then check that a --quick
# ledger compares clean against a second one of the same commit.
# Ready to be called from .github/workflows/ci.yml; run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
out=benchmark/out

cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"

ledger() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}
ledger --quick --json "$out/ci-a.json" > /dev/null
ledger --quick --json "$out/ci-b.json" > /dev/null
# Wall-clock metrics of 0.2 s repetitions are noise, so the exit status of
# this compare is not the gate; what must hold at this scale is that the two
# documents line up and every exact value repeats, which compare counts on
# its last line.
ledger compare "$out/ci-a.json" "$out/ci-b.json" > "$out/ci-compare.txt" || true
grep -E " exact |^compare:" "$out/ci-compare.txt"
if ! grep -qE "^compare: [0-9]+ worse, 0 of them exact-value mismatches$" "$out/ci-compare.txt"; then
    echo "ci.sh: a deterministic value differed between two runs of one commit" >&2
    exit 1
fi
echo "ci.sh: ok"
