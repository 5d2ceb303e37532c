#!/usr/bin/env bash
# Fails when non-test source under crates/ declares process-global
# mutable state: a `static` holding a Mutex, RwLock, Atomic*, OnceLock or
# LazyLock. State shared by a run belongs to a value its caller owns (the
# experiment pool is `vpc_sim::exec::Pool`), so two callers in one
# process never see each other's records. Per-thread `thread_local!`
# statics stay allowed. Skipped: crates/*/tests, and every `#[cfg(test)]`
# item (up to its closing brace).
#
# Usage: scripts/check-global-state.sh   (from anywhere in the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -path '*/src/*' -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { skip = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ || /thread_local!/ { skip = 1; depth = 0; opened = 0 }
    skip {
        open_braces = gsub(/\{/, "{")
        close_braces = gsub(/\}/, "}")
        depth += open_braces - close_braces
        if (open_braces > 0) opened = 1
        if (opened ? depth <= 0 : /;[[:space:]]*$/) skip = 0
        next
    }
    /^[[:space:]]*(pub(\([a-z: ]+\))?[[:space:]]+)?static[[:space:]]/ &&
    /(Mutex|RwLock|Atomic[A-Za-z0-9]*|OnceLock|LazyLock)/ {
        print FILENAME ":" FNR ": " $0
        found = 1
    }
    END {
        if (found) {
            print "error: process-global mutable state (see scripts/check-global-state.sh)"
            exit 1
        }
    }
'
