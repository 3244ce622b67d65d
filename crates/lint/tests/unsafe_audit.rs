//! Unsafe audit: the set of workspace files containing `unsafe` code is
//! pinned down to an explicit allowlist, so a review of ordering-sensitive
//! or memory-unsafe code has a known, bounded surface.
//!
//! D4 (undocumented-unsafe) already forces every `unsafe` block to carry a
//! `// SAFETY:` comment, and D11 (send-sync-audit) requires every
//! `unsafe impl Send/Sync` to name its invariant in the sync-site
//! registry (`crates/lint/sync_protocol.toml`) — that registry, not this
//! list, is now where the *soundness arguments* live. This audit is the
//! remaining complementary invariant — new `unsafe` may not appear in a
//! file that has never been reviewed for it without this list (and thus
//! the diff) saying so.

use std::path::PathBuf;

use strip_lint::lex::{lex, TokKind};
use strip_lint::{relative_label, scan_targets};

/// Every workspace source file allowed to contain the `unsafe` keyword:
/// the live signal latch (two raw `signal(2)` FFI registrations with an
/// async-signal-safe handler — see `crates/live/src/signal.rs`), and the
/// live ingest ring (single-producer/single-consumer slot handoff — see
/// `crates/live/src/spsc.rs` for the SAFETY arguments and DESIGN.md §13
/// for the ordering protocol).
const UNSAFE_ALLOWLIST: [&str; 2] = ["crates/live/src/signal.rs", "crates/live/src/spsc.rs"];

#[test]
fn unsafe_code_is_confined_to_the_allowlist() {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut offenders = Vec::new();
    let mut seen_allowed = Vec::new();
    for path in scan_targets(&root).expect("workspace scan") {
        let rel = relative_label(&root, &path);
        let src = std::fs::read_to_string(&path).expect("read source");
        // Lex rather than grep: `unsafe` in comments, docs, or string
        // literals must not count.
        let has_unsafe = lex(&src)
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "unsafe");
        if has_unsafe {
            if UNSAFE_ALLOWLIST.contains(&rel.as_str()) {
                seen_allowed.push(rel);
            } else {
                offenders.push(rel);
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "unsafe code outside the audited allowlist: {offenders:?} \
         (review it, then extend UNSAFE_ALLOWLIST in this test)"
    );
    // The allowlist must not go stale either: every entry still exists
    // and still contains unsafe code.
    seen_allowed.sort();
    assert_eq!(
        seen_allowed, UNSAFE_ALLOWLIST,
        "allowlist out of date: entries with no remaining unsafe code \
         should be removed"
    );
}
