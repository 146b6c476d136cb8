//! Per-rule evaluation profiling.
//!
//! When [`crate::EvalOptions::profile`] is on, the engine records a
//! [`Profile`] tree alongside the usual [`EvalStats`]: per stratum, the
//! ID-relations materialized there, and per fixpoint round the counters of
//! every (rule, delta-step) aggregate — instantiations, derived/inserted
//! tuples, probes, builtin evaluations, delta sizes, shard counts, and wall
//! time.
//!
//! Determinism contract: everything except wall time is merged at the round
//! barriers in work-item order, so a profile is **byte-identical for any
//! thread count** (this is what lets `idlog run --profile-json` be diffed
//! across `IDLOG_THREADS` values in CI). Wall time is inherently
//! non-deterministic; the renderers therefore omit it unless explicitly
//! asked (`include_time`).

use std::fmt::Write as _;

use crate::program::ValidatedProgram;
use crate::stats::EvalStats;

/// Schema tag emitted by [`Profile::to_json`]; bump on breaking changes.
pub const PROFILE_JSON_SCHEMA: &str = "idlog-profile/1";

/// One work item's measurements, recorded by the engine at the round
/// barrier. An item is a (rule plan, optional delta step) pair, possibly one
/// shard of a larger delta; [`RoundProfile::from_items`] re-aggregates
/// shards.
#[derive(Debug, Clone)]
pub struct ItemRec {
    /// Clause index of the rule plan (into the program's clause list).
    pub clause: usize,
    /// The body step replayed against the delta (`None` in full rounds).
    pub delta_step: Option<usize>,
    /// Tuples in this item's delta shard.
    pub delta_tuples: u64,
    /// Counters local to this item.
    pub stats: EvalStats,
    /// Wall time of this item (non-deterministic; excluded from default
    /// rendering).
    pub wall_nanos: u64,
}

/// Aggregated measurements for one (rule, delta-step) within one round.
#[derive(Debug, Clone)]
pub struct RuleProfile {
    /// Clause index of the rule.
    pub clause: usize,
    /// The body step replayed against the delta (`None` in full rounds).
    pub delta_step: Option<usize>,
    /// Number of delta shards merged into this record (1 in full rounds).
    pub shards: u64,
    /// Total delta tuples replayed across shards.
    pub delta_tuples: u64,
    /// Counters for this rule in this round.
    pub stats: EvalStats,
    /// Summed wall time across shards (non-deterministic).
    pub wall_nanos: u64,
}

/// One fixpoint round of a stratum.
#[derive(Debug, Clone)]
pub struct RoundProfile {
    /// Round number within the stratum (0 = full round).
    pub round: usize,
    /// Per-(rule, delta-step) records, in deterministic work-list order.
    pub rules: Vec<RuleProfile>,
}

impl RoundProfile {
    /// Aggregate raw work items into per-(clause, delta-step) records,
    /// preserving first-appearance (work-item) order so the result is
    /// deterministic.
    pub fn from_items(round: usize, items: Vec<ItemRec>) -> RoundProfile {
        let mut rules: Vec<RuleProfile> = Vec::new();
        for item in items {
            let found = rules
                .iter_mut()
                .find(|r| r.clause == item.clause && r.delta_step == item.delta_step);
            match found {
                Some(r) => {
                    r.shards += 1;
                    r.delta_tuples += item.delta_tuples;
                    r.stats += item.stats;
                    r.wall_nanos += item.wall_nanos;
                }
                None => rules.push(RuleProfile {
                    clause: item.clause,
                    delta_step: item.delta_step,
                    shards: 1,
                    delta_tuples: item.delta_tuples,
                    stats: item.stats,
                    wall_nanos: item.wall_nanos,
                }),
            }
        }
        RoundProfile { round, rules }
    }
}

/// One ID-relation materialization.
#[derive(Debug, Clone)]
pub struct IdRelationProfile {
    /// Base predicate name.
    pub name: String,
    /// Grouping attribute positions (0-based).
    pub grouping: Vec<usize>,
    /// Number of groups the oracle assigned tids within.
    pub groups: u64,
    /// Tuples of the base relation the tids were assigned over (a
    /// tid-bounded use materializes at most `k` of them per group).
    pub tuples: u64,
}

impl IdRelationProfile {
    /// `name[a1,a2]` with 1-based attribute positions, matching program
    /// syntax.
    pub fn display_name(&self) -> String {
        let attrs: Vec<String> = self.grouping.iter().map(|g| (g + 1).to_string()).collect();
        format!("{}[{}]", self.name, attrs.join(","))
    }
}

/// One stratum's profile.
#[derive(Debug, Clone)]
pub struct StratumProfile {
    /// Stratum index (bottom-up).
    pub index: usize,
    /// ID-relations materialized before this stratum ran, in sorted
    /// (name, grouping) order — the oracle consultation order.
    pub id_relations: Vec<IdRelationProfile>,
    /// Fixpoint rounds.
    pub rounds: Vec<RoundProfile>,
}

impl StratumProfile {
    /// An empty profile for stratum `index`.
    pub fn new(index: usize) -> StratumProfile {
        StratumProfile {
            index,
            id_relations: Vec::new(),
            rounds: Vec::new(),
        }
    }
}

/// Per-rule totals across all strata and rounds (the table's row unit).
#[derive(Debug, Clone)]
pub struct RuleTotals {
    /// Clause index.
    pub clause: usize,
    /// Summed counters.
    pub stats: EvalStats,
    /// Rounds in which the rule (or one of its delta variants) fired.
    pub rounds: u64,
    /// Total delta shards executed.
    pub shards: u64,
    /// Total delta tuples replayed.
    pub delta_tuples: u64,
    /// Summed wall time (non-deterministic).
    pub wall_nanos: u64,
}

impl RuleTotals {
    /// Derived-but-duplicate tuples: the paper's "intermediate redundant
    /// tuples", localized to one rule.
    pub fn redundant(&self) -> u64 {
        self.stats.derived - self.stats.inserted
    }
}

/// The full profile of one evaluation.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Clause text by clause index (for rendering without an interner).
    pub rules: Vec<String>,
    /// Per-stratum records, bottom-up.
    pub strata: Vec<StratumProfile>,
    /// Whole-run totals — always equal to the run's [`EvalStats`].
    pub totals: EvalStats,
}

impl Profile {
    /// An empty profile (used by identity queries that evaluate nothing).
    pub fn empty() -> Profile {
        Profile::default()
    }

    /// A profile skeleton for `program`, capturing clause text so later
    /// rendering needs no interner.
    pub fn for_program(program: &ValidatedProgram) -> Profile {
        let interner = program.interner();
        Profile {
            rules: program
                .ast()
                .clauses
                .iter()
                .map(|c| c.display(interner).to_string())
                .collect(),
            strata: Vec::new(),
            totals: EvalStats::default(),
        }
    }

    /// Per-rule totals across all strata/rounds, **worst rules first**
    /// (by probes, then derived; clause index breaks ties for determinism).
    pub fn per_rule_totals(&self) -> Vec<RuleTotals> {
        let mut totals: Vec<RuleTotals> = Vec::new();
        for stratum in &self.strata {
            for round in &stratum.rounds {
                for rule in &round.rules {
                    let entry = match totals.iter_mut().find(|t| t.clause == rule.clause) {
                        Some(t) => t,
                        None => {
                            totals.push(RuleTotals {
                                clause: rule.clause,
                                stats: EvalStats::default(),
                                rounds: 0,
                                shards: 0,
                                delta_tuples: 0,
                                wall_nanos: 0,
                            });
                            totals.last_mut().expect("just pushed")
                        }
                    };
                    entry.stats += rule.stats;
                    entry.rounds += 1;
                    entry.shards += rule.shards;
                    entry.delta_tuples += rule.delta_tuples;
                    entry.wall_nanos += rule.wall_nanos;
                }
            }
        }
        totals.sort_by(|a, b| {
            b.stats
                .probes
                .cmp(&a.stats.probes)
                .then(b.stats.derived.cmp(&a.stats.derived))
                .then(a.clause.cmp(&b.clause))
        });
        totals
    }

    /// The text of clause `idx`, or a placeholder when unknown.
    pub fn rule_text(&self, idx: usize) -> &str {
        self.rules.get(idx).map_or("<unknown clause>", |s| s)
    }

    /// A compact summary of the materialized ID-relations, e.g.
    /// `emp[2]: 3 tuples in 2 groups, node[]: 4 tuples in 1 group` —
    /// `None` when the run materialized none.
    pub fn id_relation_breakdown(&self) -> Option<String> {
        let mut parts: Vec<String> = Vec::new();
        for stratum in &self.strata {
            for idr in &stratum.id_relations {
                parts.push(format!(
                    "{}: {} tuples in {} group(s)",
                    idr.display_name(),
                    idr.tuples,
                    idr.groups
                ));
            }
        }
        if parts.is_empty() {
            None
        } else {
            Some(parts.join(", "))
        }
    }

    /// A rustc-style text table, worst rules first. `include_time` adds the
    /// (non-deterministic) wall-time column; leave it off when output must
    /// be reproducible across runs and thread counts.
    pub fn render_table(&self, include_time: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "evaluation profile (worst rules first)");
        let time_hdr = if include_time { "      time" } else { "" };
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>7} {:>7}{time_hdr}  rule",
            "clause",
            "inst",
            "derived",
            "inserted",
            "redundant",
            "probes",
            "builtins",
            "rounds",
            "shards"
        );
        for t in self.per_rule_totals() {
            let time_col = if include_time {
                format!("{:>9.3}m", self.wall_ms(t.wall_nanos))
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>7} {:>7}{time_col}  {}",
                format!("#{}", t.clause),
                t.stats.instantiations,
                t.stats.derived,
                t.stats.inserted,
                t.redundant(),
                t.stats.probes,
                t.stats.builtin_evals,
                t.rounds,
                t.shards,
                self.rule_text(t.clause)
            );
        }
        for stratum in &self.strata {
            for idr in &stratum.id_relations {
                let _ = writeln!(
                    out,
                    "id-relation {} (stratum {}): {} tuples in {} group(s)",
                    idr.display_name(),
                    stratum.index,
                    idr.tuples,
                    idr.groups
                );
            }
        }
        let _ = writeln!(out, "totals: {}", self.totals);
        out
    }

    fn wall_ms(&self, nanos: u64) -> f64 {
        nanos as f64 / 1.0e6
    }

    /// Machine-readable JSON (hand-rolled; the workspace takes no serde
    /// dependency). Stable key order; `include_time` adds `wall_nanos`
    /// fields, which are non-deterministic.
    pub fn to_json(&self, include_time: bool) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"schema\":{}", json_str(PROFILE_JSON_SCHEMA));
        let _ = write!(out, ",\"totals\":{}", stats_json(&self.totals));
        out.push_str(",\"rules\":[");
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(r));
        }
        out.push_str("],\"strata\":[");
        for (i, stratum) in self.strata.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"index\":{},\"id_relations\":[", stratum.index);
            for (j, idr) in stratum.id_relations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let grouping: Vec<String> = idr.grouping.iter().map(|g| g.to_string()).collect();
                let _ = write!(
                    out,
                    "{{\"name\":{},\"grouping\":[{}],\"groups\":{},\"tuples\":{}}}",
                    json_str(&idr.name),
                    grouping.join(","),
                    idr.groups,
                    idr.tuples
                );
            }
            out.push_str("],\"rounds\":[");
            for (j, round) in stratum.rounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"round\":{},\"rules\":[", round.round);
                for (k, rule) in round.rules.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let delta_step = rule
                        .delta_step
                        .map_or("null".to_string(), |s| s.to_string());
                    let _ = write!(
                        out,
                        "{{\"clause\":{},\"delta_step\":{delta_step},\"shards\":{},\
                         \"delta_tuples\":{},\"stats\":{}",
                        rule.clause,
                        rule.shards,
                        rule.delta_tuples,
                        stats_json(&rule.stats)
                    );
                    if include_time {
                        let _ = write!(out, ",\"wall_nanos\":{}", rule.wall_nanos);
                    }
                    out.push('}');
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Counters as a JSON object (rule-level records omit the whole-run
/// `iterations`/`id_relations` fields, which are always zero there — the
/// totals object carries them).
fn stats_json(s: &EvalStats) -> String {
    format!(
        "{{\"instantiations\":{},\"derived\":{},\"inserted\":{},\"probes\":{},\
         \"builtins\":{},\"iterations\":{},\"id_relations\":{}}}",
        s.instantiations,
        s.derived,
        s.inserted,
        s.probes,
        s.builtin_evals,
        s.iterations,
        s.id_relations
    )
}

/// Minimal JSON string escaping (quote, backslash, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(clause: usize, delta_step: Option<usize>, probes: u64) -> ItemRec {
        ItemRec {
            clause,
            delta_step,
            delta_tuples: 10,
            stats: EvalStats {
                probes,
                ..Default::default()
            },
            wall_nanos: 5,
        }
    }

    #[test]
    fn from_items_merges_shards_in_first_appearance_order() {
        let round = RoundProfile::from_items(
            2,
            vec![
                rec(1, Some(0), 3),
                rec(1, Some(0), 4),
                rec(0, Some(1), 1),
                rec(1, Some(0), 2),
            ],
        );
        assert_eq!(round.round, 2);
        assert_eq!(round.rules.len(), 2);
        assert_eq!(round.rules[0].clause, 1);
        assert_eq!(round.rules[0].shards, 3);
        assert_eq!(round.rules[0].delta_tuples, 30);
        assert_eq!(round.rules[0].stats.probes, 9);
        assert_eq!(round.rules[0].wall_nanos, 15);
        assert_eq!(round.rules[1].clause, 0);
    }

    #[test]
    fn per_rule_totals_sorts_worst_first() {
        let mut p = Profile::empty();
        p.rules = vec!["a.".into(), "b.".into()];
        p.strata.push(StratumProfile {
            index: 0,
            id_relations: Vec::new(),
            rounds: vec![
                RoundProfile::from_items(0, vec![rec(0, None, 5), rec(1, None, 50)]),
                RoundProfile::from_items(1, vec![rec(1, Some(0), 1)]),
            ],
        });
        let totals = p.per_rule_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].clause, 1, "worst (most probes) first");
        assert_eq!(totals[0].rounds, 2);
        assert_eq!(totals[0].stats.probes, 51);
        assert_eq!(totals[1].clause, 0);
    }

    #[test]
    fn json_escapes_and_tags_schema() {
        let mut p = Profile::empty();
        p.rules = vec!["p(\"x\") :- q(X).".into()];
        let json = p.to_json(false);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"schema\":\"idlog-profile/1\""), "{json}");
        assert!(json.contains("p(\\\"x\\\")"), "{json}");
        assert!(!json.contains("wall_nanos"), "{json}");
        let timed = p.to_json(true);
        // No rule records here, but the flag must not corrupt the document.
        assert!(timed.starts_with('{') && timed.ends_with('}'));
    }

    #[test]
    fn table_lists_worst_rule_first_and_totals() {
        let mut p = Profile::empty();
        p.rules = vec!["cheap.".into(), "hot(X) :- big(X).".into()];
        p.strata.push(StratumProfile {
            index: 0,
            id_relations: vec![IdRelationProfile {
                name: "emp".into(),
                grouping: vec![1],
                groups: 2,
                tuples: 3,
            }],
            rounds: vec![RoundProfile::from_items(
                0,
                vec![rec(0, None, 1), rec(1, None, 100)],
            )],
        });
        p.totals = EvalStats {
            probes: 101,
            ..Default::default()
        };
        let table = p.render_table(false);
        let hot = table.find("hot(X)").unwrap();
        let cheap = table.find("cheap.").unwrap();
        assert!(hot < cheap, "{table}");
        assert!(table.contains("id-relation emp[2] (stratum 0): 3 tuples in 2 group(s)"));
        assert!(table.contains("totals: "), "{table}");
        assert!(!table.contains("time"), "no time column by default");
        assert!(p.render_table(true).contains("time"));
    }

    #[test]
    fn redundant_is_derived_minus_inserted() {
        let t = RuleTotals {
            clause: 0,
            stats: EvalStats {
                derived: 10,
                inserted: 4,
                ..Default::default()
            },
            rounds: 1,
            shards: 1,
            delta_tuples: 0,
            wall_nanos: 0,
        };
        assert_eq!(t.redundant(), 6);
    }
}
