//! Ground-truth node classes and what a probe of each one sees.
//!
//! The paper's census (§IV-A): ~10K reachable nodes online at a time (28,781
//! unique over 60 days), 694,696 unique unreachable addresses of which
//! 163,496 (23.5%) are *responsive* (drop inbound connections by answering a
//! VER probe with FIN). The populations themselves are generated where they
//! are used — the census network in `bitsync-crawler`, the node world in
//! `bitsync-node` — and share this vocabulary.

/// Ground-truth classification of a node (what the crawler tries to infer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Accepts inbound connections (up to 117) and makes 8 outbound.
    Reachable,
    /// Behind NAT/firewall but running Bitcoin: refuses inbound connections
    /// with a FIN, so a VER probe gets a response.
    UnreachableResponsive,
    /// Unreachable and silent: inbound packets are dropped (strict firewall
    /// or the address is stale/fabricated).
    UnreachableSilent,
}

impl NodeClass {
    /// Whether the node is unreachable (either kind).
    pub fn is_unreachable(self) -> bool {
        !matches!(self, NodeClass::Reachable)
    }
}

/// What happens when a remote endpoint sends this node a TCP SYN / VER
/// probe (the paper's Algorithm 2 mechanics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Connection accepted: the node is reachable.
    Accepted,
    /// Connection refused with FIN: the node is unreachable but responsive.
    RefusedFin,
    /// No answer at all: silent.
    Silent,
}

impl ProbeOutcome {
    /// The outcome a node of `class` produces.
    pub fn for_class(class: NodeClass) -> ProbeOutcome {
        match class {
            NodeClass::Reachable => ProbeOutcome::Accepted,
            NodeClass::UnreachableResponsive => ProbeOutcome::RefusedFin,
            NodeClass::UnreachableSilent => ProbeOutcome::Silent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_outcomes_follow_class() {
        for (class, expected) in [
            (NodeClass::Reachable, ProbeOutcome::Accepted),
            (NodeClass::UnreachableResponsive, ProbeOutcome::RefusedFin),
            (NodeClass::UnreachableSilent, ProbeOutcome::Silent),
        ] {
            assert_eq!(ProbeOutcome::for_class(class), expected);
            assert_eq!(class.is_unreachable(), class != NodeClass::Reachable);
        }
    }
}
