#!/bin/sh
# Non-test source lines of the three library crates (ROADMAP aim 2's number):
# for each crates/{core,puddled,proto}/src/**/*.rs, the lines before the
# first `#[cfg(test)]`; per file, then the total. Run from anywhere.
set -eu
cd "$(dirname "$0")/.."
find crates/core/src crates/puddled/src crates/proto/src -name '*.rs' | sort |
    while read -r file; do
        awk -v file="$file" '/#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, file }' "$file"
    done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
