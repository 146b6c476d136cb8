//! Golden tests over the `programs/bad/` corpus: every `.idl` file there is
//! analyzed with the full lint suite and its rendered output compared
//! byte-for-byte against the `.expected` sidecar. Every IDLOG-dialect file
//! must also get the analysis' verdict from the engine, in one of the
//! analysis' headlines — a parse error included.
//!
//! Regenerate the sidecars after an intentional output change with
//! `UPDATE_GOLDEN=1 cargo test -p idlog-analyze --test golden`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use idlog_analyze::{analyze, render_all, Dialect, Options};
use idlog_common::Interner;

mod common;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs/bad")
}

/// The diagnostic codes named by a corpus file's name (`e002_e003_heads.idl`
/// names E002 and E003): each must appear in the rendered output.
fn codes_in_name(stem: &str) -> Vec<String> {
    stem.split('_')
        .filter(|w| {
            w.len() == 4
                && w.starts_with(['e', 'w', 'h'])
                && w[1..].chars().all(|c| c.is_ascii_digit())
        })
        .map(str::to_uppercase)
        .collect()
}

#[test]
fn corpus_matches_goldens() {
    let dir = corpus_dir();
    let mut programs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("programs/bad exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "idl"))
        .collect();
    programs.sort();
    assert!(
        programs.len() >= 20,
        "corpus shrank: {} files",
        programs.len()
    );

    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for path in &programs {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(path).expect("readable program");
        let interner = Arc::new(Interner::new());
        let analysis = analyze(&src, &interner, &Options::default());
        let rendered = render_all(&analysis.diagnostics, &src, &format!("programs/bad/{name}"));

        for code in codes_in_name(&stem) {
            assert!(
                rendered.contains(&format!("[{code}]")),
                "{name}: expected {code} to fire, got:\n{rendered}"
            );
        }

        if analysis.dialect == Dialect::Idlog {
            if let Err(e) = common::engine_agrees(&src, &analysis) {
                failures.push(format!("== {name} ==\n{e}"));
            }
        }

        let golden_path = path.with_extension("expected");
        if update {
            std::fs::write(&golden_path, &rendered).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|_| panic!("{name}: missing golden {golden_path:?}"));
        if rendered != golden {
            failures.push(format!(
                "== {name} ==\n--- expected ---\n{golden}\n--- got ---\n{rendered}"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn multi_error_file_reports_three_independent_errors() {
    let path = corpus_dir().join("multi_errors.idl");
    let src = std::fs::read_to_string(path).expect("readable program");
    let interner = Arc::new(Interner::new());
    let analysis = analyze(&src, &interner, &Options::default());
    assert!(
        analysis.error_count() >= 3,
        "want >= 3 errors, got {}",
        analysis.error_count()
    );
    let codes: Vec<&str> = analysis.diagnostics.iter().map(|d| d.code).collect();
    for code in ["E010", "E022", "E011"] {
        assert!(codes.contains(&code), "{code} missing from {codes:?}");
    }
}
