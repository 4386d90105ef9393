#!/usr/bin/env bash
# Runs the mutation catalogue in tests/mutants/: applies each patch to a
# throwaway git worktree of the current tree (uncommitted edits to tracked
# files included) and runs the test target the manifest names, which must
# fail. Prints one line per mutant; exits 1 if a mutant survives or no
# longer applies or compiles.
#
#   scripts/mutants.sh                  # every manifest entry
#   scripts/mutants.sh 01-bucket-lifo.patch ...
#
# The worktree lives at one fixed path under CARGO_TARGET_DIR (default
# target/mutants), so every mutant after the first is an incremental build.
set -euo pipefail

repo=$(git rev-parse --show-toplevel)
cd "$repo"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo/target/mutants}"
tree="$CARGO_TARGET_DIR/worktree"
log="$CARGO_TARGET_DIR/mutant.log"
mkdir -p "$CARGO_TARGET_DIR"

# `git stash create` snapshots the working tree without touching it; it
# prints nothing when the tree is clean.
rev=$(git stash create)
rev=${rev:-HEAD}

drop_tree() {
    git worktree remove --force "$tree" >/dev/null 2>&1 || rm -rf "$tree"
    git worktree prune
}
trap drop_tree EXIT

failed=0
killed=0
while read -r patch crate target; do
    case "$patch" in '' | '#'*) continue ;; esac
    if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qxF "$patch"; then
        continue
    fi
    drop_tree
    git worktree add --detach --quiet "$tree" "$rev"
    if ! git -C "$tree" apply "$repo/tests/mutants/$patch"; then
        echo "STALE    $patch: no longer applies; refresh it"
        failed=1
        continue
    fi
    if cargo test --offline --quiet --manifest-path "$tree/$crate/Cargo.toml" \
        --test "$target" >"$log" 2>&1; then
        echo "SURVIVED $patch: $crate --test $target still passes"
        failed=1
    elif grep -q '^test result: FAILED\|panicked at' "$log"; then
        echo "killed   $patch by $crate --test $target"
        killed=$((killed + 1))
    else
        echo "BROKEN   $patch: $crate --test $target did not run; see $log"
        failed=1
    fi
done <tests/mutants/manifest.txt

echo "$killed killed"
exit "$failed"
