//! Independent correctness references. Nothing here calls the engine: the
//! expected answers come from hand-written graph search and counting, so an
//! engine bug cannot hide behind itself.

use std::collections::{HashMap, HashSet};

use crate::gen::{Chains, Emp, Zy};
use crate::rng::mix64;

/// Out-edge lists over nodes `0..n`.
#[derive(Debug, Clone)]
pub struct Adjacency {
    out: Vec<Vec<u32>>,
}

impl Adjacency {
    pub fn new(n: u32) -> Adjacency {
        Adjacency {
            out: vec![Vec::new(); n as usize],
        }
    }

    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Adjacency {
        let mut adj = Adjacency::new(n);
        for &(a, b) in edges {
            adj.insert(a, b);
        }
        adj
    }

    pub fn insert(&mut self, a: u32, b: u32) {
        self.out[a as usize].push(b);
    }

    pub fn remove(&mut self, a: u32, b: u32) {
        let list = &mut self.out[a as usize];
        if let Some(at) = list.iter().position(|x| *x == b) {
            list.swap_remove(at);
        }
    }

    /// Nodes reachable from `src` through at least one edge, ascending (so
    /// `src` itself only when it lies on a cycle) — `t(src, Y)`.
    pub fn reach(&self, src: u32) -> Vec<u32> {
        let mut seen = vec![false; self.out.len()];
        let mut stack: Vec<u32> = self.out[src as usize].clone();
        let mut found = Vec::new();
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut seen[v as usize], true) {
                continue;
            }
            found.push(v);
            stack.extend(&self.out[v as usize]);
        }
        found.sort_unstable();
        found
    }
}

/// Row count plus an order-independent checksum of a set of pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairDigest {
    pub rows: u64,
    pub sum: u64,
}

impl PairDigest {
    pub fn add(&mut self, a: u32, b: u32) {
        self.rows += 1;
        self.sum = self
            .sum
            .wrapping_add(mix64(u64::from(a) << 32 | u64::from(b)));
    }
}

/// The transitive closure of a graph as a digest: one search per node.
pub fn closure_digest(n: u32, edges: &[(u32, u32)]) -> PairDigest {
    let adj = Adjacency::from_edges(n, edges);
    let mut digest = PairDigest::default();
    for a in 0..n {
        for b in adj.reach(a) {
            digest.add(a, b);
        }
    }
    digest
}

/// The text between `pred(` and `)` of one output line.
fn row_of<'a>(line: &'a str, pred: &str) -> Result<&'a str, String> {
    line.strip_prefix(pred)
        .and_then(|r| r.strip_prefix('('))
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| format!("unexpected output line {line:?}"))
}

fn node_of(text: &str) -> Result<u32, String> {
    text.trim()
        .strip_prefix('v')
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| format!("unexpected node {text:?}"))
}

/// Check `idlog run … --output t` output against the closure digest.
pub fn check_closure_output(output: &str, want: PairDigest) -> Result<(), String> {
    let mut got = PairDigest::default();
    for line in output.lines() {
        let (a, b) = row_of(line, "t")?
            .split_once(',')
            .ok_or_else(|| format!("unexpected output line {line:?}"))?;
        got.add(node_of(a)?, node_of(b)?);
    }
    if got != want {
        return Err(format!(
            "closure mismatch: got {} rows (sum {:x}), want {} rows (sum {:x})",
            got.rows, got.sum, want.rows, want.sum
        ));
    }
    Ok(())
}

/// A served reach answer (`["v3", "v17", …]`, any order) against the
/// reference reach set.
pub fn check_reach_answers(answers: &[String], want: &[u32]) -> Result<(), String> {
    let mut got = answers
        .iter()
        .map(|a| node_of(a))
        .collect::<Result<Vec<u32>, String>>()?;
    got.sort_unstable();
    if got != want {
        return Err(format!(
            "reach mismatch: got {} nodes, want {}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Sampling: every department contributes exactly `min(2, size)` distinct
/// real employees — which ones is the ID-function's choice.
pub fn check_sample<'a>(names: impl Iterator<Item = &'a str>, emp: &Emp) -> Result<(), String> {
    let mut picked: HashMap<u32, HashSet<u32>> = HashMap::new();
    let mut rows = 0usize;
    for name in names {
        rows += 1;
        let (d, e) = name
            .strip_prefix('n')
            .and_then(|r| r.split_once('_'))
            .and_then(|(d, e)| Some((d.parse::<u32>().ok()?, e.parse::<u32>().ok()?)))
            .ok_or_else(|| format!("unexpected employee {name:?}"))?;
        match emp.dept_sizes.get(d as usize) {
            Some(&size) if e < size => {}
            _ => return Err(format!("{name} is not an employee")),
        }
        if !picked.entry(d).or_default().insert(e) {
            return Err(format!("{name} sampled twice"));
        }
    }
    for (d, &size) in emp.dept_sizes.iter().enumerate() {
        let got = picked.get(&(d as u32)).map_or(0, HashSet::len);
        if got != size.min(2) as usize {
            return Err(format!(
                "dept{d} has {size} employees but {got} were sampled ({rows} rows)"
            ));
        }
    }
    Ok(())
}

/// Compare a set of unary answers with the expected strings.
pub fn check_set<'a>(
    got: impl Iterator<Item = &'a str>,
    want: impl Iterator<Item = String>,
    what: &str,
) -> Result<(), String> {
    let want: HashSet<String> = want.collect();
    let mut seen = HashSet::new();
    for g in got {
        if !want.contains(g) {
            return Err(format!("{what}: unexpected answer {g:?}"));
        }
        if !seen.insert(g) {
            return Err(format!("{what}: duplicate answer {g:?}"));
        }
    }
    if seen.len() != want.len() {
        return Err(format!(
            "{what}: got {} answers, want {}",
            seen.len(),
            want.len()
        ));
    }
    Ok(())
}

/// The unary rows of `idlog run` output for `pred`.
pub fn unary_rows<'a>(output: &'a str, pred: &'a str) -> Result<Vec<&'a str>, String> {
    output.lines().map(|l| row_of(l, pred)).collect()
}

pub fn all_depts(emp: &Emp) -> impl Iterator<Item = String> + '_ {
    (0..emp.dept_sizes.len() as u32).map(Emp::dept)
}

pub fn singleton_depts(emp: &Emp) -> impl Iterator<Item = String> + '_ {
    emp.dept_sizes
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == 1)
        .map(|(d, _)| Emp::dept(d as u32))
}

/// `p(X)` holds for every key whose `zkey` has a `z` row, given any `y`.
pub fn zy_answers(zy: &Zy) -> impl Iterator<Item = String> + '_ {
    let any_witness = zy.witnesses > 0 && zy.fanout > 0;
    zy.dangling
        .iter()
        .enumerate()
        .filter(move |(_, dangling)| any_witness && !**dangling)
        .map(|(k, _)| format!("x{k}"))
}

/// Everything below a chain's head.
pub fn chain_descendants(chains: &Chains, chain: u32) -> impl Iterator<Item = String> {
    (1..=chains.lens[chain as usize]).map(move |j| Chains::node(chain, j))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reach_excludes_the_source_unless_it_is_on_a_cycle() {
        let adj = Adjacency::from_edges(4, &[(0, 1), (1, 2)]);
        assert_eq!(adj.reach(0), vec![1, 2]);
        assert_eq!(adj.reach(3), Vec::<u32>::new());
        let cyc = Adjacency::from_edges(3, &[(0, 1), (1, 0)]);
        assert_eq!(cyc.reach(0), vec![0, 1]);
    }

    #[test]
    fn closure_of_a_path_is_the_triangle_number() {
        let d = closure_digest(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(d.rows, 10);
        let out = "t(v0, v1)\nt(v0, v2)\nt(v1, v2)\n";
        let want = closure_digest(3, &[(0, 1), (1, 2)]);
        assert!(check_closure_output(out, want).is_ok());
        assert!(check_closure_output("t(v0, v1)\n", want).is_err());
        assert!(check_closure_output("t(v0, v1)\nt(v0, v2)\nt(v2, v1)\n", want).is_err());
    }

    #[test]
    fn sample_checker_rejects_wrong_counts_and_strangers() {
        let emp = Emp {
            dept_sizes: vec![3, 1],
            rows: vec![],
        };
        assert!(check_sample(["n0_0", "n0_2", "n1_0"].into_iter(), &emp).is_ok());
        assert!(check_sample(["n0_0", "n1_0"].into_iter(), &emp).is_err());
        assert!(check_sample(["n0_0", "n0_1", "n0_2", "n1_0"].into_iter(), &emp).is_err());
        assert!(check_sample(["n0_0", "n0_3", "n1_0"].into_iter(), &emp).is_err());
        assert!(check_sample(["n0_0", "n0_0", "n1_0"].into_iter(), &emp).is_err());
    }

    #[test]
    fn set_checker_is_order_independent_and_exact() {
        let want = || ["a", "b"].into_iter().map(String::from);
        assert!(check_set(["b", "a"].into_iter(), want(), "t").is_ok());
        assert!(check_set(["a"].into_iter(), want(), "t").is_err());
        assert!(check_set(["a", "b", "c"].into_iter(), want(), "t").is_err());
        assert!(check_set(["a", "a"].into_iter(), want(), "t").is_err());
    }
}
