//! Predicate-level dataflow context for the determinism lints.
//!
//! The ID-taint fixpoint itself lives in [`idlog_core::taint`] — the
//! evaluator consults the same analysis for its enumeration fast path, so
//! what the lints report and what the engine exploits can never drift
//! apart. This module packages the fixpoint result with the program's
//! *sinks* (the output predicates: heads no body literal reads), which is
//! where non-determinism becomes observable.

use idlog_common::{Interner, SymbolId};
use idlog_core::stratify::DepGraph;
use idlog_core::taint::{analyze_taint, TaintAnalysis};
use idlog_parser::Program;

/// The taint fixpoint plus the derived facts the lint surface needs.
pub(crate) struct Dataflow {
    /// The ID-taint / determinism fixpoint over the whole program.
    pub taint: TaintAnalysis,
    /// Head predicates no body literal reads, sorted by name for stable
    /// diagnostic order.
    pub sinks: Vec<SymbolId>,
}

impl Dataflow {
    /// Run the fixpoint over `program`, whose dependency graph is `graph`,
    /// and collect its sinks.
    pub fn of(program: &Program, graph: &DepGraph, interner: &Interner) -> Dataflow {
        let taint = analyze_taint(program);
        let mut sinks = graph.sinks().to_vec();
        sinks.sort_by_key(|p| interner.resolve(*p));
        Dataflow { taint, sinks }
    }
}
