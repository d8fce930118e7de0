#!/usr/bin/env bash
# The size ledger: lines of code and of test per Rust source file.
#
#   scripts/loc.sh [path...]        (default: crates)
#
# For every `.rs` file under the given files and directories, prints the
# lines before the first `#[cfg(test)]` (code) and from it to the end
# (test), then the totals. Comments and blank lines count: the rule is
# crude on purpose, so two people get the same number. A file with no
# in-file test module is all code; files under a `tests/` directory are
# listed like any other, so name the paths you mean.
set -euo pipefail

cd "$(dirname "$0")/.."
[[ $# -gt 0 ]] || set -- crates

find "$@" -type f -name '*.rs' | sort | xargs awk '
    function emit() {
        printf "%7d %7d  %s\n", code, test, file
        codes += code
        tests += test
    }
    FNR == 1 {
        if (file != "") emit()
        file = FILENAME
        code = test = in_test = 0
    }
    !in_test && /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    { if (in_test) test++; else code++ }
    END {
        if (file != "") emit()
        printf "%7d %7d  total (code, test)\n", codes, tests
    }
'
