//! The panic policy's scope stays automatic.
//!
//! Library code must not panic: clippy denies `unwrap_used`, `expect_used`,
//! `panic`, `todo` and `unreachable` (and, in the two decoders,
//! `indexing_slicing`), and an exception is only ever an
//! `#[expect(lint, reason = "…")]`. The levels live as one inner attribute
//! in each crate root, so a new crate root without that line would fall
//! outside the policy without any lint noticing. This test walks the
//! workspace members listed in the root `Cargo.toml` (the vendored
//! `crates/compat` stand-ins excepted) plus the root package, and fails
//! on any lib or bin root that lacks the line.

use std::path::{Path, PathBuf};

/// The inner attribute every library and bin root carries, compared with
/// whitespace removed so that rustfmt's line breaking does not matter.
const DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
    clippy::todo, clippy::unreachable, clippy::allow_attributes, \
    clippy::allow_attributes_without_reason)]";

/// Modules that decode untrusted bytes and so must not index either.
const DECODERS: [&str; 2] = ["crates/service/src/frame.rs", "crates/core/src/snapshot.rs"];
const DECODER_DENY: &str = "#![deny(clippy::indexing_slicing)]";

fn squash(s: &str) -> String {
    s.split_whitespace().collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The quoted entries of the root manifest's `members = [ … ]` list.
fn members(manifest: &str) -> Vec<String> {
    let start = manifest
        .find("\nmembers = [")
        .expect("root Cargo.toml lists workspace members");
    let list = &manifest[start..];
    let list = &list[..list.find(']').expect("members list is closed")];
    list.lines()
        .filter_map(|l| l.trim().strip_prefix('"')?.split('"').next())
        .map(str::to_string)
        .collect()
}

/// `src/lib.rs`, `src/main.rs` and every `src/bin/*.rs` of one package.
fn roots(package: &Path) -> Vec<PathBuf> {
    let src = package.join("src");
    let mut out: Vec<PathBuf> = ["lib.rs", "main.rs"]
        .iter()
        .map(|f| src.join(f))
        .filter(|p| p.is_file())
        .collect();
    if let Ok(dir) = std::fs::read_dir(src.join("bin")) {
        out.extend(
            dir.map(|e| e.expect("bin dir entry").path())
                .filter(|p| p.extension().is_some_and(|x| x == "rs")),
        );
    }
    out
}

#[test]
fn every_library_and_bin_root_denies_the_panic_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![".".to_string()];
    packages.extend(
        members(&read(&root.join("Cargo.toml")))
            .into_iter()
            .filter(|m| !m.starts_with("crates/compat/")),
    );
    assert!(
        packages.len() >= 10,
        "members list parsed short: {packages:?}"
    );

    let deny = squash(DENY);
    let mut checked = 0;
    for package in &packages {
        let found = roots(&root.join(package));
        assert!(
            !found.is_empty(),
            "{package}: no lib or bin root under src/"
        );
        for file in found {
            assert!(
                squash(&read(&file)).contains(&deny),
                "{} lacks the panic-policy line:\n{DENY}",
                file.display()
            );
            checked += 1;
        }
    }
    assert!(checked >= 11, "only {checked} root(s) checked");
}

#[test]
fn the_decoders_deny_indexing() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in DECODERS {
        assert!(
            read(&root.join(rel)).contains(DECODER_DENY),
            "{rel} lacks {DECODER_DENY}"
        );
    }
}
