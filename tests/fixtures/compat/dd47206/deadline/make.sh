#!/usr/bin/env bash
# Rewrites state/wal.log with the `lisa` binary of commit dd47206, the last
# commit whose gate ran a deadline-degraded sanity pass. Build that binary
# from `git archive dd47206` and pass its path:
#   tests/fixtures/compat/dd47206/deadline/make.sh <path-to-dd47206-lisa>
# The journal holds one rule outcome with the wire field `degraded=1`.
set -euo pipefail
cd "$(dirname "$0")"
rm -rf state
"$1" gate --system system --rules rules.txt --state state --deadline-ms 0 || test $? -eq 1
