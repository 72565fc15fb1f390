#!/usr/bin/env bash
# Re-records perfbench/goldens.json from dxbench's own output at every
# paper_suite seed. Run from the repository root after a change that is
# meant to alter the suite's tables.
set -euo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/dxbench" ./cmd/dxbench
go -C perfbench build -o "$tmp/perfbench" .
"$tmp/perfbench" -record-goldens "$tmp/dxbench" > "$tmp/goldens.json"
mv "$tmp/goldens.json" perfbench/goldens.json
