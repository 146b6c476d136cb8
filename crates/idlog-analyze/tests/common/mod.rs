//! What the corpus and the generated programs share: the engine and
//! `idlog lint` must give one verdict in one text.

use std::sync::Arc;

use idlog_analyze::{Analysis, Severity};
use idlog_common::Interner;
use idlog_core::ValidatedProgram;

/// `Ok` when the engine agrees with `analysis` of `src`: it rejects the
/// program exactly when the analysis reports an error, and its message then
/// contains the headline of one of those errors.
pub fn engine_agrees(src: &str, analysis: &Analysis) -> Result<(), String> {
    let headlines: Vec<&str> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.message.as_str())
        .collect();
    match ValidatedProgram::parse(src, Arc::new(Interner::new())) {
        Ok(_) if headlines.is_empty() => Ok(()),
        Ok(_) => Err(format!(
            "the engine accepts, the analysis reports {headlines:?}"
        )),
        Err(e) if headlines.is_empty() => {
            Err(format!("the analysis accepts, the engine says `{e}`"))
        }
        Err(e) => {
            let said = e.to_string();
            if headlines.iter().any(|h| said.contains(h)) {
                Ok(())
            } else {
                Err(format!(
                    "the engine says `{said}`, the analysis {headlines:?}"
                ))
            }
        }
    }
}
