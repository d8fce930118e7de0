//! Regression test for the no-registry-dependencies policy: the
//! workspace must build with `--offline` from a clean checkout, which
//! means every dependency in every manifest has to be a `path` (or
//! `workspace = true`, resolving to a path) dependency. A registry dep
//! reappearing here is the failure mode this test exists to catch.
//!
//! `.cargo/config.toml` (build options shared by the root workspace and
//! `perf/`) is scanned as well: a `[source]`, `[registries]`,
//! `[registry]` or `[net]` table there could send cargo to a registry
//! without any manifest changing.
//!
//! The check is a plain-text manifest scan rather than `cargo metadata`
//! so it runs without invoking cargo and keeps working even when the
//! resolver itself is what broke. `scripts/check_hermetic.sh` wraps the
//! same rule for use outside the test harness.

use std::fs;
use std::path::{Path, PathBuf};

/// Root of the workspace, derived from this test's compile-time
/// location (tests/hermeticity.rs is wired into prism-harness, so
/// CARGO_MANIFEST_DIR points at crates/harness).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/harness has a grandparent")
        .to_path_buf()
}

/// All Cargo.toml files that participate in the workspace build.
fn manifests(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    for entry in fs::read_dir(&crates).expect("crates/ directory") {
        let m = entry.expect("dir entry").path().join("Cargo.toml");
        if m.is_file() {
            out.push(m);
        }
    }
    assert!(out.len() >= 10, "expected the workspace's ten manifests");
    out
}

/// Returns the offending lines: dependency entries that are neither
/// path-based nor `workspace = true`.
fn violations(manifest: &Path) -> Vec<String> {
    let text = fs::read_to_string(manifest).expect("readable manifest");
    let mut bad = Vec::new();
    let mut in_dep_section = false;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            // [dependencies], [dev-dependencies], [build-dependencies],
            // [workspace.dependencies], and target-specific variants.
            in_dep_section = line.contains("dependencies");
            continue;
        }
        if !in_dep_section {
            continue;
        }
        // A dependency line is hermetic iff it names a path or defers
        // to the (path-only) workspace table. Bare versions
        // (`foo = "1"`), version keys, git, and registry keys all mean
        // a network fetch.
        let hermetic = (line.contains("path") && line.contains('='))
            || line.contains("workspace = true")
            || line.contains("workspace=true");
        let fetches = line.contains("version")
            || line.contains("git =")
            || line.contains("git=")
            || line.contains("registry")
            || line.trim_end().ends_with('"') && line.contains("= \"");
        if !hermetic && fetches {
            bad.push(format!("{}: {}", manifest.display(), raw.trim()));
        }
    }
    bad
}

/// No manifest in the workspace may declare a registry or git
/// dependency; everything must resolve inside the repo.
#[test]
fn all_dependencies_are_path_only() {
    let root = workspace_root();
    let mut bad = Vec::new();
    for m in manifests(&root) {
        bad.extend(violations(&m));
    }
    assert!(
        bad.is_empty(),
        "non-path dependencies found (the workspace must build with \
         `cargo build --offline`):\n{}",
        bad.join("\n")
    );
}

/// The workspace dependency table itself only contains path entries,
/// so `workspace = true` in member crates can never smuggle in a
/// registry dep.
#[test]
fn workspace_table_is_path_only() {
    let root = workspace_root();
    let text = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let mut in_table = false;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_table = line == "[workspace.dependencies]";
            continue;
        }
        if in_table && line.contains('=') {
            assert!(
                line.contains("path"),
                "[workspace.dependencies] entry without a path: {}",
                raw.trim()
            );
        }
    }
}

/// The table headers of a cargo config that could redirect or enable
/// fetching: `[source]`, `[registries]`, `[registry]`, `[net]`, their
/// dotted sub-tables and array-of-table forms.
fn fetching_tables(config: &str) -> Vec<String> {
    let mut bad = Vec::new();
    for raw in config.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let Some(header) = line.strip_prefix('[') else {
            continue;
        };
        let name = header.trim_start_matches('[').trim_start();
        let table = name
            .split(|c: char| c == '.' || c == ']' || c.is_whitespace())
            .next()
            .unwrap_or("");
        if ["source", "registries", "registry", "net"].contains(&table) {
            bad.push(raw.trim().to_string());
        }
    }
    bad
}

/// `.cargo/config.toml` may tune the build, never where crates come
/// from or whether the network is used.
#[test]
fn cargo_config_sets_no_source_or_network_table() {
    assert_eq!(
        fetching_tables("[profile.release]\nlto = \"fat\"\n[build]\n# [net]\n[sources]"),
        Vec::<String>::new()
    );
    assert_eq!(
        fetching_tables("[source.crates-io]\n [net]\n[[registries]]\n[registry]\n[ source ]").len(),
        5
    );
    let config = workspace_root().join(".cargo/config.toml");
    if let Ok(text) = fs::read_to_string(&config) {
        let bad = fetching_tables(&text);
        assert!(
            bad.is_empty(),
            "{} must not configure sources, registries or the network:\n{}",
            config.display(),
            bad.join("\n")
        );
    }
}

/// The hermeticity shell check stays in sync with this test: the
/// script must exist, be executable, and encode the same rule.
#[test]
fn check_hermetic_script_present() {
    let script = workspace_root().join("scripts/check_hermetic.sh");
    let text = fs::read_to_string(&script).expect("scripts/check_hermetic.sh exists");
    assert!(
        text.contains("path") && text.contains("dependencies"),
        "check_hermetic.sh no longer checks dependency paths"
    );
    assert!(
        text.contains(".cargo/config.toml") && text.contains("registries"),
        "check_hermetic.sh no longer checks .cargo/config.toml"
    );
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        let mode = fs::metadata(&script)
            .expect("stat script")
            .permissions()
            .mode();
        assert!(mode & 0o111 != 0, "check_hermetic.sh is not executable");
    }
}
