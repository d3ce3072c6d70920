//! Root package hosting the workspace-level examples and full-system tests; it has no code of its own (the `puddles` library lives in `crates/core`).
