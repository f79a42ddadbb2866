//! Eclipse-attack exposure analysis.
//!
//! The paper's §IV-B shows the addressing protocol lets an adversary flood
//! victims' IP tables with attacker-controlled (or useless) addresses —
//! exactly the precondition of the eclipse attack of Heilman et al.
//! (reference 10 in the paper). This module quantifies the exposure: given
//! the composition of a victim's `new`/`tried` tables, the probability that
//! *every* outbound slot lands on an attacker address, eclipsing the node.

/// Composition of a victim's address tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TableExposure {
    /// Attacker-controlled entries in the `new` table.
    pub attacker_new: usize,
    /// Honest entries in the `new` table.
    pub honest_new: usize,
    /// Attacker-controlled entries in the `tried` table.
    pub attacker_tried: usize,
    /// Honest entries in the `tried` table.
    pub honest_tried: usize,
}

impl TableExposure {
    /// Probability one selection draws an attacker address, under Core's
    /// equal-probability table choice followed by a uniform entry draw.
    pub fn per_draw_probability(&self) -> f64 {
        let new_total = self.attacker_new + self.honest_new;
        let tried_total = self.attacker_tried + self.honest_tried;
        let p_new = if new_total == 0 {
            0.0
        } else {
            self.attacker_new as f64 / new_total as f64
        };
        let p_tried = if tried_total == 0 {
            0.0
        } else {
            self.attacker_tried as f64 / tried_total as f64
        };
        match (new_total, tried_total) {
            (0, 0) => 0.0,
            (0, _) => p_tried,
            (_, 0) => p_new,
            _ => 0.5 * p_new + 0.5 * p_tried,
        }
    }

    /// Probability all `slots` outbound connections land on attacker
    /// addresses (i.i.d. approximation of repeated selection).
    pub fn eclipse_probability(&self, slots: u32) -> f64 {
        self.per_draw_probability().powi(slots as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_tables_cannot_be_eclipsed() {
        let e = TableExposure {
            attacker_new: 0,
            honest_new: 1000,
            attacker_tried: 0,
            honest_tried: 100,
        };
        assert_eq!(e.per_draw_probability(), 0.0);
        assert_eq!(e.eclipse_probability(8), 0.0);
    }

    #[test]
    fn full_domination_is_certain() {
        let e = TableExposure {
            attacker_new: 500,
            honest_new: 0,
            attacker_tried: 50,
            honest_tried: 0,
        };
        assert_eq!(e.per_draw_probability(), 1.0);
        assert_eq!(e.eclipse_probability(8), 1.0);
    }

    #[test]
    fn honest_tried_table_caps_the_attack() {
        // Attacker owns the whole new table but none of tried: per-draw is
        // 50%, so eight slots give 1/256 — the protection the paper's §V
        // tried-only proposals lean on.
        let e = TableExposure {
            attacker_new: 10_000,
            honest_new: 0,
            attacker_tried: 0,
            honest_tried: 64,
        };
        assert!((e.per_draw_probability() - 0.5).abs() < 1e-12);
        assert!((e.eclipse_probability(8) - 0.5f64.powi(8)).abs() < 1e-12);
    }

    #[test]
    fn empty_table_edge_cases() {
        let empty = TableExposure {
            attacker_new: 0,
            honest_new: 0,
            attacker_tried: 0,
            honest_tried: 0,
        };
        assert_eq!(empty.per_draw_probability(), 0.0);
        let new_only = TableExposure {
            attacker_new: 5,
            honest_new: 5,
            attacker_tried: 0,
            honest_tried: 0,
        };
        assert!((new_only.per_draw_probability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probability_monotone_in_slots() {
        let e = TableExposure {
            attacker_new: 900,
            honest_new: 100,
            attacker_tried: 10,
            honest_tried: 90,
        };
        assert!(e.eclipse_probability(2) > e.eclipse_probability(8));
    }
}
