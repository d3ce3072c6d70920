#!/bin/sh
# Non-test source lines: for each .rs file, the lines before its test
# module, i.e. before the first `#[cfg(test)]` (plus any attributes under
# it) that precedes a `mod`. A `#[cfg(test)]` on any other item — a
# test-only helper in the middle of a file — is counted and does not stop
# the count. Prints one line per file of the three library crates
# (crates/{core,puddled,proto}/src) and their total (ROADMAP aim 2's
# number), then the same count over every crate, the compat stand-ins and
# the root package as `workspace total`. Run from anywhere.
set -eu
cd "$(dirname "$0")/.."
count() {
    find "$@" -name '*.rs' | sort |
        while read -r file; do
            awk -v file="$file" '
                function is_mod(line) {
                    return line ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/
                }
                held {
                    if ($0 ~ /^[[:space:]]*#\[/) { held++; next }
                    if (is_mod($0)) { held = 0; exit }
                    n += held; held = 0
                }
                /^[[:space:]]*#\[cfg\(test\)\]/ {
                    rest = $0; sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", rest)
                    if (is_mod(rest)) exit
                    held = 1; next
                }
                { n++ }
                END { printf "%6d %s\n", n + held, file }' "$file"
        done
}
count crates/core/src crates/puddled/src crates/proto/src |
    awk '{ print; total += $1 } END { printf "%6d total\n", total }'
count crates/*/src crates/compat/*/src src |
    awk '{ total += $1 } END { printf "%6d workspace total\n", total }'
