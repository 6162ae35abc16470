#!/usr/bin/env bash
# Formatting, lints, unit tests and a smoke run of the benchmark crate.
# Tests run with --release: a debug build arms the worlds' every-tick
# invariant checker and the same suite takes minutes instead of seconds.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline
cargo run --release --offline --quiet -- run --smoke
