//! Integration host for the IDLOG workspace: the cross-crate tests under
//! the repository's `tests/`, the runnable `examples/`, the enumeration
//! of the shipped `programs/` corpus that the CLI's golden and corpus-counter
//! tests walk, the [`mod@reference`] interpreter the engine's suites are
//! held to, the [`gen`] generator of valid programs (with shrinking) that
//! their generated properties draw from, and, on the reference's matcher,
//! the languages the paper compares IDLOG with: DL, N-DATALOG and
//! DATALOG^C in [`eval`], DATALOG∨ in [`disj`] and DATALOG with cut in
//! [`cut`].

#![warn(missing_docs)]

pub mod cut;
pub mod disj;
pub mod eval;
pub mod gen;
mod machine;
pub mod reference;

use std::path::{Path, PathBuf};

/// One program of the corpus, with its sidecar facts file (when one is
/// shipped for it).
#[derive(Debug, Clone)]
pub struct Case {
    /// Program file name (relative to the programs directory).
    pub program: String,
    /// Facts file name, when the program has a shipped EDB.
    pub facts: Option<String>,
}

/// The shipped facts sidecar for a program stem, mirroring the pairings
/// the CLI integration tests and the README use.
fn facts_for(stem: &str) -> Option<&'static str> {
    match stem {
        "all_depts" | "dept_sizes" | "sampling" => Some("company.facts"),
        "ancestor" => Some("ancestor.facts"),
        "coloring" => Some("cycle.facts"),
        "existential" => Some("zy.facts"),
        "parity" => Some("people.facts"),
        _ => None,
    }
}

/// Enumerate the corpus: every `*.idl` under `dir`, sorted by name.
pub fn corpus(dir: &Path) -> std::io::Result<Vec<Case>> {
    let mut programs: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "idl"))
        .collect();
    programs.sort();
    Ok(programs
        .into_iter()
        .map(|p| {
            let stem = p.file_stem().unwrap_or_default().to_string_lossy();
            Case {
                facts: facts_for(&stem).map(str::to_string),
                program: p
                    .file_name()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .into_owned(),
            }
        })
        .collect())
}
