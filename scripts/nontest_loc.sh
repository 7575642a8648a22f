#!/usr/bin/env bash
# Print the non-test source line count: for every `.rs` file under
# `crates/*/src` and `src/`, the lines before its first `#[cfg(test)]`
# at column 0 (the whole file when it has none), summed.
#
#   scripts/nontest_loc.sh
#
# Informational only: no threshold is applied.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { total++ }
        END { print total + 0 }
    '
