#!/bin/sh
# Non-test source lines: for each .rs file, the lines before the first
# `#[cfg(test)]`. Prints one line per file of the three library crates
# (crates/{core,puddled,proto}/src) and their total (ROADMAP aim 2's
# number), then the same count over every crate, the compat stand-ins and
# the root package as `workspace total`. Run from anywhere.
set -eu
cd "$(dirname "$0")/.."
count() {
    find "$@" -name '*.rs' | sort |
        while read -r file; do
            awk -v file="$file" '/#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, file }' "$file"
        done
}
count crates/core/src crates/puddled/src crates/proto/src |
    awk '{ print; total += $1 } END { printf "%6d total\n", total }'
count crates/*/src crates/compat/*/src src |
    awk '{ total += $1 } END { printf "%6d workspace total\n", total }'
