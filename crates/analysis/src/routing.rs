//! The §IV-A1 routing-attack refinement: how an adversary planning a
//! BGP-hijack partition should pick target ASes once the *unreachable* and
//! *responsive* populations are taken into account.
//!
//! Prior work (reference 22 in the paper) planned hijacks against the reachable
//! network only; the paper shows the plan changes materially — e.g. AS4134
//! is rank 20 for reachable nodes but rank 1 or 2 for responsive nodes, so
//! an adversary who acknowledges responsive nodes prefers it.

use crate::as_concentration::AsConcentration;

/// A hijack plan: which ASes to target, in order, to isolate a fraction of
/// a node population.
#[derive(Clone, Debug, PartialEq)]
pub struct HijackPlan {
    /// Targeted ASNs in attack order.
    pub targets: Vec<u32>,
    /// Nodes isolated by the plan.
    pub isolated: usize,
    /// The population size.
    pub total: usize,
}

impl HijackPlan {
    /// Fraction of the population isolated.
    pub fn isolated_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.isolated as f64 / self.total as f64
        }
    }
}

/// Builds the greedy hijack plan isolating at least `fraction` of the
/// population described by `conc`.
pub fn plan_hijack(conc: &AsConcentration, fraction: f64) -> HijackPlan {
    assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
    let target_count = (conc.total_nodes as f64 * fraction).ceil() as usize;
    let mut targets = Vec::new();
    let mut isolated = 0usize;
    for share in &conc.ranked {
        if isolated >= target_count {
            break;
        }
        targets.push(share.asn);
        isolated += share.count;
    }
    HijackPlan {
        targets,
        isolated,
        total: conc.total_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conc(data: &[(u32, usize)]) -> AsConcentration {
        let asns: Vec<u32> = data
            .iter()
            .flat_map(|(asn, n)| std::iter::repeat_n(*asn, *n))
            .collect();
        AsConcentration::from_asns(asns)
    }

    #[test]
    fn greedy_plan_hits_fraction() {
        let c = conc(&[(1, 50), (2, 30), (3, 20)]);
        let plan = plan_hijack(&c, 0.5);
        assert_eq!(plan.targets, vec![1]);
        assert_eq!(plan.isolated, 50);
        assert!((plan.isolated_fraction() - 0.5).abs() < 1e-9);
        let plan = plan_hijack(&c, 0.75);
        assert_eq!(plan.targets, vec![1, 2]);
    }

    #[test]
    fn plan_covers_everything_at_fraction_one() {
        let c = conc(&[(1, 5), (2, 5), (3, 5)]);
        let plan = plan_hijack(&c, 1.0);
        assert_eq!(plan.targets.len(), 3);
        assert_eq!(plan.isolated, 15);
    }
}
