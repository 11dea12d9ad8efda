//! The exact-count oracle: `expected.json`, compiled into the binary.
//!
//! Every workload states exact facts about what the program computed —
//! simulated cycles, steps and events per run, outcome tallies, category
//! histograms, failing fuzz seeds. A fact whose key the oracle holds must
//! match it to the digit; a fact the oracle does not hold is a mismatch
//! too, so a renamed key cannot silently skip its check. Facts that depend
//! on `--seed` are stated only at seed 0, under a `seed0.` prefix; `--quick`
//! facts live under `quick.`.
//!
//! `bwbench --write-expected` regenerates the file from the current commit.

use std::collections::BTreeMap;

use crate::json::{parse_flat, Fact};

/// The committed oracle.
const EXPECTED: &str = include_str!("../expected.json");

/// Facts stated so far, checked against the committed ones.
#[derive(Debug)]
pub struct Oracle {
    expected: BTreeMap<String, Fact>,
    /// Every fact stated, by full key.
    pub stated: BTreeMap<String, Fact>,
    /// One line per fact that is absent from or differs from the oracle.
    pub mismatches: Vec<String>,
}

impl Oracle {
    /// Loads the committed oracle.
    ///
    /// # Panics
    ///
    /// Panics when `expected.json` does not parse — a broken checkout.
    pub fn load() -> Self {
        let expected = parse_flat(EXPECTED).expect("benchmark/expected.json must parse");
        Oracle { expected, stated: BTreeMap::new(), mismatches: Vec::new() }
    }

    /// States that `key` has `value`.
    pub fn state(&mut self, key: String, value: Fact) {
        match self.expected.get(&key) {
            Some(want) if *want == value => {}
            Some(want) => self.mismatches.push(format!("{key}: expected {want}, got {value}")),
            None => self.mismatches.push(format!("{key}: no oracle entry (got {value})")),
        }
        self.stated.insert(key, value);
    }
}

/// Checks the per-port overhead ratios and geomeans among `facts` against
/// the text of `results/figure6.txt`, which prints them to two decimals.
///
/// # Errors
///
/// Returns one line per disagreement.
pub fn check_against_figure6(
    facts: &BTreeMap<String, Fact>,
    figure6: &str,
    ports: &[(&str, &str)],
) -> Result<(), Vec<String>> {
    let text = |key: String| match facts.get(&key) {
        Some(Fact::Text(s)) => s.clone(),
        other => format!("<{other:?}>"),
    };
    let mut errors = Vec::new();
    for &(paper_name, slug) in ports {
        let want = format!(
            "{paper_name} {}x {}x",
            text(format!("fig6.{slug}.t4.ratio")),
            text(format!("fig6.{slug}.t32.ratio"))
        );
        let found = figure6
            .lines()
            .any(|line| line.split_whitespace().collect::<Vec<_>>().join(" ") == want);
        if !found {
            errors.push(format!("results/figure6.txt has no line `{want}`"));
        }
    }
    let want = format!(
        "geomean: {}x at 4 threads (paper: 2.15x), {}x at 32 threads (paper: 1.16x)",
        text("fig6.geomean.t4".into()),
        text("fig6.geomean.t32".into())
    );
    if !figure6.lines().any(|line| line.trim() == want) {
        errors.push(format!("results/figure6.txt has no line `{want}`"));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_oracle_parses_and_pins_the_paper_numbers() {
        let oracle = Oracle::load();
        assert_eq!(oracle.expected.get("fig6.geomean.t4"), Some(&Fact::Text("2.08".into())));
        assert_eq!(oracle.expected.get("fig6.geomean.t32"), Some(&Fact::Text("1.20".into())));
    }

    #[test]
    fn absent_and_differing_facts_are_mismatches() {
        let mut oracle = Oracle::load();
        oracle.state("fig6.geomean.t4".into(), Fact::Text("2.08".into()));
        assert!(oracle.mismatches.is_empty());
        oracle.state("fig6.geomean.t4".into(), Fact::Text("2.09".into()));
        oracle.state("no.such.key".into(), Fact::Int(1));
        assert_eq!(oracle.mismatches.len(), 2);
    }

    #[test]
    fn figure6_cross_check_reads_the_table() {
        let mut facts = BTreeMap::new();
        for (k, v) in [
            ("fig6.fft.t4.ratio", "1.95"),
            ("fig6.fft.t32.ratio", "1.16"),
            ("fig6.geomean.t4", "2.08"),
            ("fig6.geomean.t32", "1.20"),
        ] {
            facts.insert(k.to_string(), Fact::Text(v.to_string()));
        }
        let figure6 = "FFT                  1.95x      1.16x\n\
                       geomean: 2.08x at 4 threads (paper: 2.15x), 1.20x at 32 threads (paper: 1.16x)\n";
        assert!(check_against_figure6(&facts, figure6, &[("FFT", "fft")]).is_ok());
        facts.insert("fig6.fft.t4.ratio".into(), Fact::Text("1.96".into()));
        assert_eq!(check_against_figure6(&facts, figure6, &[("FFT", "fft")]).unwrap_err().len(), 1);
    }
}
