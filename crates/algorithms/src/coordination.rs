//! Coordination protocols — the third variation point.
//!
//! "There are many decentralized cooperative protocols (e.g., distributed
//! voting, auction-based)" (§4.3). A [`CoordinationProtocol`] turns a set of
//! per-host scored alternatives into one agreed choice; the decentralized
//! analyzer composes one of these with whatever algorithm body it runs.
//! [`VotingProtocol`] is the one it uses (§5.2). The auction-based protocol
//! is DecAp itself: its per-component auctions are their own kernel in
//! [`crate::decap`].

use redep_model::HostId;
use std::fmt;

/// Chooses among alternatives scored independently by multiple hosts.
///
/// `proposals[i]` holds every host's score for alternative `i`. A protocol
/// returns the index of the chosen alternative, or `None` when there is
/// nothing to choose from. All protocols are deterministic: ties break
/// toward the lower index.
pub trait CoordinationProtocol: fmt::Debug {
    /// The protocol's name.
    fn name(&self) -> &str;

    /// Decides among the alternatives. Larger scores are better.
    fn decide(&self, proposals: &[Vec<(HostId, f64)>]) -> Option<usize>;
}

/// Distributed voting: each host votes for the alternative it scores
/// highest; the alternative with the most votes wins (plurality).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VotingProtocol;

impl CoordinationProtocol for VotingProtocol {
    fn name(&self) -> &str {
        "voting"
    }

    fn decide(&self, proposals: &[Vec<(HostId, f64)>]) -> Option<usize> {
        if proposals.is_empty() {
            return None;
        }
        // Collect the set of voters across all alternatives.
        let mut voters: Vec<HostId> = proposals
            .iter()
            .flat_map(|p| p.iter().map(|(h, _)| *h))
            .collect();
        voters.sort_unstable();
        voters.dedup();
        if voters.is_empty() {
            return Some(0);
        }
        let mut votes = vec![0usize; proposals.len()];
        for voter in voters {
            let mut best: Option<(usize, f64)> = None;
            for (i, scores) in proposals.iter().enumerate() {
                if let Some((_, s)) = scores.iter().find(|(h, _)| *h == voter) {
                    let better = match best {
                        Some((_, bs)) => *s > bs,
                        None => true,
                    };
                    if better {
                        best = Some((i, *s));
                    }
                }
            }
            if let Some((i, _)) = best {
                votes[i] += 1;
            }
        }
        (0..proposals.len()).reduce(|x, y| if votes[y] > votes[x] { y } else { x })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u32) -> HostId {
        HostId::new(n)
    }

    #[test]
    fn voting_plurality_wins() {
        // Hosts 0 and 1 prefer alternative 1; host 2 prefers alternative 0.
        let proposals = vec![
            vec![(h(0), 0.1), (h(1), 0.2), (h(2), 0.9)],
            vec![(h(0), 0.8), (h(1), 0.7), (h(2), 0.1)],
        ];
        assert_eq!(VotingProtocol.decide(&proposals), Some(1));
    }

    #[test]
    fn voting_tie_breaks_to_lower_index() {
        let proposals = vec![vec![(h(0), 1.0)], vec![(h(1), 1.0)]];
        assert_eq!(VotingProtocol.decide(&proposals), Some(0));
    }

    #[test]
    fn empty_proposals_yield_none() {
        assert_eq!(VotingProtocol.decide(&[]), None);
    }
}
