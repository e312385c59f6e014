#!/bin/sh
# Keeps the panic policy declared once. The deny of `clippy::unwrap_used`
# and `clippy::expect_used` lives in the root Cargo.toml's
# `[workspace.lints.clippy]`; `cargo clippy --all-targets -- -D warnings`
# enforces it. This script fails when the policy is forked or bypassed:
#
# - a `crates/*` member has its own `[lints.clippy]` table, or does not
#   inherit the workspace table (`[lints]` with `workspace = true`);
# - clippy.toml gains a `disallowed-methods` list again;
# - `crates/*/src` names either lint anywhere but the one documented
#   exception, the kernel `Assemble` step in crates/workloads/src/lib.rs.
#
# Usage: sh tests/panic_policy.sh   (from the repository root)
set -u
fail=0
complain() {
    echo "panic policy: $*" >&2
    fail=1
}

grep -q '^\[workspace\.lints\.clippy\]' Cargo.toml ||
    complain "Cargo.toml has no [workspace.lints.clippy] table"
for manifest in crates/*/Cargo.toml; do
    grep -q '^\[lints\.clippy\]' "$manifest" &&
        complain "$manifest has its own [lints.clippy] table"
    grep -A1 '^\[lints\]' "$manifest" | grep -q '^workspace = true' ||
        complain "$manifest does not set [lints] workspace = true"
done
grep -q 'disallowed-methods' clippy.toml &&
    complain "clippy.toml lists disallowed-methods"

exception=crates/workloads/src/lib.rs
hits=$(grep -rnE 'clippy::(unwrap|expect)_used' crates/*/src)
others=$(printf '%s\n' "$hits" | grep -v "^$exception:" | grep -v '^$')
[ -z "$others" ] || complain "lint exceptions outside $exception:
$others"
count=$(printf '%s\n' "$hits" | grep -c "^$exception:")
[ "$count" -eq 1 ] ||
    complain "expected one lint exception in $exception, found $count"

[ "$fail" -eq 0 ] && echo "panic policy: declared once, one documented exception"
exit "$fail"
