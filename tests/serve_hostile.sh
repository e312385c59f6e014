#!/bin/sh
# Pipes a hostile request script through edc_serve: a non-UTF-8 line, a
# 2 MiB line and 200 000 nested brackets, each followed by a valid line,
# with an evaluate batch pending before the first. Requires one response
# per non-blank line, in order: the batch first, one "ok":false error per
# hostile line, and an answer to every valid line after it.
#
# Usage: sh tests/serve_hostile.sh [EDC_SERVE]
#        (default: target/release/edc_serve; build it first)
set -eu
serve=${1:-target/release/edc_serve}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
evaluate=$(grep -m1 '"op":"evaluate"' "$(dirname "$0")/golden/serve_requests.txt")
{
    printf '%s\n' "$evaluate"
    printf '\377\376 not UTF-8\n'
    printf '{"id":11,"op":"metrics"}\n'
    head -c 2097152 /dev/zero | tr '\0' 'x'
    printf '\n{"id":12,"op":"metrics"}\n'
    head -c 200000 /dev/zero | tr '\0' '['
    printf '\n{"id":13,"op":"metrics"}\n'
} >"$dir/requests"
"$serve" --threads 1 <"$dir/requests" >"$dir/responses"

fail() {
    echo "serve_hostile: $1" >&2
    exit 1
}
requests=$(LC_ALL=C grep -a -c '[^[:space:]]' "$dir/requests")
responses=$(wc -l <"$dir/responses")
[ "$requests" -eq 7 ] || fail "expected 7 request lines, wrote $requests"
[ "$responses" -eq "$requests" ] || fail "$responses responses to $requests request lines"
expect() {
    sed -n "$1p" "$dir/responses" | grep -q -- "$2" || fail "response $1 lacks $2"
}
expect 1 '"ok":true,"op":"evaluate"'
expect 2 '"ok":false,"error":"request line is not UTF-8"'
expect 3 '"id":11,"ok":true,"op":"metrics"'
expect 4 '"ok":false,"error":"request line longer than 1048576 bytes"'
expect 5 '"id":12,"ok":true,"op":"metrics"'
expect 6 'nesting too deep'
expect 7 '"id":13,"ok":true,"op":"metrics"'
echo "serve_hostile: OK, $responses responses to $requests request lines"
