//! Autonomous-System concentration analysis: Table I and the routing-attack
//! refinement of §IV-A1 (how many ASes an adversary must hijack to isolate
//! half the nodes of each class).

use bitsync_json::{ToJson, Value};
use std::collections::HashMap;

/// One row of a Table I-style report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AsShare {
    /// The AS number.
    pub asn: u32,
    /// Nodes hosted.
    pub count: usize,
    /// Share of all nodes, in percent.
    pub percent: f64,
}

impl ToJson for AsShare {
    fn to_json(&self) -> Value {
        Value::object()
            .with("asn", self.asn)
            .with("count", self.count)
            .with("percent", self.percent)
    }
}

/// Concentration statistics of a node-to-AS assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct AsConcentration {
    /// Total nodes analyzed.
    pub total_nodes: usize,
    /// Distinct ASes.
    pub distinct_ases: usize,
    /// ASes sorted by hosted count, descending.
    pub ranked: Vec<AsShare>,
}

impl AsConcentration {
    /// Builds the analysis from node ASNs.
    pub fn from_asns(asns: impl IntoIterator<Item = u32>) -> AsConcentration {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        let mut total = 0usize;
        for asn in asns {
            *counts.entry(asn).or_insert(0) += 1;
            total += 1;
        }
        let mut ranked: Vec<AsShare> = counts
            .into_iter()
            .map(|(asn, count)| AsShare {
                asn,
                count,
                percent: if total == 0 {
                    0.0
                } else {
                    100.0 * count as f64 / total as f64
                },
            })
            .collect();
        ranked.sort_by(|a, b| b.count.cmp(&a.count).then(a.asn.cmp(&b.asn)));
        AsConcentration {
            total_nodes: total,
            distinct_ases: ranked.len(),
            ranked,
        }
    }

    /// The top-`k` rows (Table I shows k = 20).
    pub fn top(&self, k: usize) -> &[AsShare] {
        &self.ranked[..k.min(self.ranked.len())]
    }

    /// Minimum number of top ASes whose combined hosting reaches
    /// `fraction` of all nodes — the paper's "hijack k ASes to isolate
    /// 50%" metric.
    pub fn ases_to_cover(&self, fraction: f64) -> usize {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        let target = (self.total_nodes as f64 * fraction).ceil() as usize;
        let mut covered = 0usize;
        for (i, share) in self.ranked.iter().enumerate() {
            covered += share.count;
            if covered >= target {
                return i + 1;
            }
        }
        self.ranked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AsConcentration {
        // 10 nodes: AS1 ×5, AS2 ×3, AS3 ×2.
        AsConcentration::from_asns(vec![1, 1, 1, 1, 1, 2, 2, 2, 3, 3])
    }

    #[test]
    fn ranking_is_descending() {
        let c = sample();
        assert_eq!(c.total_nodes, 10);
        assert_eq!(c.distinct_ases, 3);
        assert_eq!(c.ranked[0].asn, 1);
        assert_eq!(c.ranked[0].count, 5);
        assert_eq!(c.ranked[0].percent, 50.0);
        assert_eq!(c.ranked[2].asn, 3);
    }

    #[test]
    fn ases_to_cover_half() {
        let c = sample();
        assert_eq!(c.ases_to_cover(0.5), 1); // AS1 alone hosts 50%
        assert_eq!(c.ases_to_cover(0.6), 2);
        assert_eq!(c.ases_to_cover(1.0), 3);
    }

    #[test]
    fn ties_break_by_asn() {
        let c = AsConcentration::from_asns(vec![7, 7, 5, 5]);
        assert_eq!(c.ranked[0].asn, 5);
        assert_eq!(c.ranked[1].asn, 7);
    }

    #[test]
    fn top_clamps() {
        let c = sample();
        assert_eq!(c.top(20).len(), 3);
        assert_eq!(c.top(2).len(), 2);
    }

    #[test]
    fn empty_input() {
        let c = AsConcentration::from_asns(Vec::<u32>::new());
        assert_eq!(c.total_nodes, 0);
        assert_eq!(c.ases_to_cover(0.5), 0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        sample().ases_to_cover(1.5);
    }
}
