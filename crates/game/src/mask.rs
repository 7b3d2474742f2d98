//! Per-(player, strategy) availability filters for fault masking.
//!
//! A [`StrategyFilter`] marks individual strategies as allowed or
//! disallowed *without changing the game's shape*: the
//! [`GameStructure`](crate::GameStructure) (and therefore every cache keyed
//! on it) is untouched, and filtered solvers simply skip disallowed entries
//! when scanning best responses. This is how failure masking composes with
//! the structure/weights split — a down server or severed link disallows
//! every strategy touching its resources for one slot, and lifting the
//! filter restores bit-identical behavior to the never-masked path.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::{GameStructure, ShardSpec};

/// An allow/deny mark per (player, strategy), stored flat.
///
/// Construct with [`StrategyFilter::allow_all`] or
/// [`StrategyFilter::from_masked_resources`]; refine with
/// [`StrategyFilter::disallow`]. A filter is only meaningful for the
/// structure it was built from (same players, same strategy counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyFilter {
    /// Per-player start offset into `allowed`; `offsets.len() == players + 1`.
    offsets: Vec<usize>,
    allowed: Vec<bool>,
    disallowed_total: usize,
}

impl StrategyFilter {
    /// A filter allowing every strategy of every player.
    pub fn allow_all(structure: &GameStructure) -> Self {
        let mut offsets = Vec::with_capacity(structure.num_players() + 1);
        let mut total = 0;
        offsets.push(0);
        for i in 0..structure.num_players() {
            total += structure.strategies(i).len();
            offsets.push(total);
        }
        Self { offsets, allowed: vec![true; total], disallowed_total: 0 }
    }

    /// A filter disallowing every strategy that touches a masked resource.
    ///
    /// `masked[r]` marks resource `r` unavailable; a strategy is disallowed
    /// when *any* of its `(resource, weight)` pairs lands on a masked
    /// resource. Resources beyond `masked.len()` are treated as available.
    pub fn from_masked_resources(structure: &GameStructure, masked: &[bool]) -> Self {
        let mut filter = Self::allow_all(structure);
        for i in 0..structure.num_players() {
            for (s, strategy) in structure.strategies(i).iter().enumerate() {
                if strategy.iter().any(|&(r, _)| masked.get(r).copied().unwrap_or(false)) {
                    filter.disallow(i, s);
                }
            }
        }
        filter
    }

    /// Marks strategy `s` of player `i` disallowed. Idempotent.
    pub fn disallow(&mut self, i: usize, s: usize) {
        let idx = self.offsets[i] + s;
        debug_assert!(idx < self.offsets[i + 1], "strategy index out of range");
        if self.allowed[idx] {
            self.allowed[idx] = false;
            self.disallowed_total += 1;
        }
    }

    /// Whether strategy `s` of player `i` is allowed.
    #[inline]
    pub fn is_allowed(&self, i: usize, s: usize) -> bool {
        self.allowed[self.offsets[i] + s]
    }

    /// The allow marks flat in `(player, strategy)` order — the layout of
    /// the CGBA kernel's entry arena for the same structure.
    pub(crate) fn allowed_flat(&self) -> &[bool] {
        &self.allowed
    }

    /// Whether the filter disallows nothing (the fast-path check: an
    /// all-allowed filter must not change any solver's behavior).
    pub fn all_allowed(&self) -> bool {
        self.disallowed_total == 0
    }

    /// Total number of disallowed (player, strategy) entries.
    pub fn disallowed_count(&self) -> usize {
        self.disallowed_total
    }

    /// Number of strategies still allowed for player `i`.
    pub fn allowed_count(&self, i: usize) -> usize {
        self.allowed[self.offsets[i]..self.offsets[i + 1]].iter().filter(|&&a| a).count()
    }

    /// The first allowed strategy index for player `i`, if any.
    pub fn first_allowed(&self, i: usize) -> Option<usize> {
        self.allowed[self.offsets[i]..self.offsets[i + 1]].iter().position(|&a| a)
    }

    /// Re-allows every strategy of player `i` — the best-effort escape hatch
    /// when masking would leave a player with an empty strategy set (the
    /// game model has no "do nothing" strategy, so such a player must be
    /// allowed to use nominally-masked resources rather than have no move).
    pub fn allow_all_for_player(&mut self, i: usize) {
        for idx in self.offsets[i]..self.offsets[i + 1] {
            if !self.allowed[idx] {
                self.allowed[idx] = true;
                self.disallowed_total -= 1;
            }
        }
    }

    /// Number of players the filter covers.
    pub fn num_players(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Projects a global filter onto one shard's local view.
    ///
    /// `local` is the structure [`ShardSpec::build_local`] produced for
    /// `shard`. The result allocates only shard-sized storage — masking
    /// cost scales with the shard, not the global game — and allows local
    /// strategy `(li, ls)` exactly when the global filter allows its global
    /// image, so a filtered local scan visits the same allowed set in the
    /// same order as the restriction of the global scan.
    pub fn project(&self, shard: &ShardSpec, local: &GameStructure) -> Self {
        let mut out = Self::allow_all(local);
        if self.all_allowed() {
            return out;
        }
        for (li, &gi) in shard.players().iter().enumerate() {
            for ls in 0..local.strategies(li).len() {
                if !self.is_allowed(gi, shard.global_strategy(li, ls)) {
                    out.disallow(li, ls);
                }
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::CongestionGame;

    fn two_player_game() -> CongestionGame {
        let mut g = CongestionGame::new(vec![1.0, 1.0, 1.0]);
        g.add_player(vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(2, 1.0)]]);
        g.add_player(vec![vec![(0, 1.0), (1, 1.0)], vec![(2, 1.0)]]);
        g
    }

    #[test]
    fn allow_all_allows_everything() {
        let g = two_player_game();
        let f = StrategyFilter::allow_all(g.structure());
        assert!(f.all_allowed());
        assert_eq!(f.num_players(), 2);
        assert_eq!(f.allowed_count(0), 3);
        assert_eq!(f.allowed_count(1), 2);
        assert_eq!(f.disallowed_count(), 0);
    }

    #[test]
    fn masked_resource_disallows_touching_strategies() {
        let g = two_player_game();
        let f = StrategyFilter::from_masked_resources(g.structure(), &[false, true, false]);
        // Player 0: strategy 1 touches resource 1.
        assert!(f.is_allowed(0, 0));
        assert!(!f.is_allowed(0, 1));
        assert!(f.is_allowed(0, 2));
        // Player 1: strategy 0 touches resources {0, 1}.
        assert!(!f.is_allowed(1, 0));
        assert!(f.is_allowed(1, 1));
        assert_eq!(f.disallowed_count(), 2);
        assert_eq!(f.first_allowed(0), Some(0));
        assert_eq!(f.first_allowed(1), Some(1));
    }

    #[test]
    fn disallow_is_idempotent_and_reversible_per_player() {
        let g = two_player_game();
        let mut f = StrategyFilter::allow_all(g.structure());
        f.disallow(0, 1);
        f.disallow(0, 1);
        assert_eq!(f.disallowed_count(), 1);
        assert!(!f.all_allowed());
        f.allow_all_for_player(0);
        assert!(f.all_allowed());
    }

    #[test]
    fn fully_masked_player_has_no_first_allowed() {
        let g = two_player_game();
        let f = StrategyFilter::from_masked_resources(g.structure(), &[true, true, true]);
        assert_eq!(f.first_allowed(0), None);
        assert_eq!(f.allowed_count(0), 0);
    }

    #[test]
    fn projection_is_shard_local_and_faithful() {
        // Two disconnected 3-resource blocks; mask one resource of block 1.
        let mut g = CongestionGame::new(vec![1.0; 6]);
        g.add_player(vec![vec![(0, 1.0), (2, 1.0)], vec![(1, 1.0), (2, 1.0)]]);
        g.add_player(vec![vec![(3, 1.0), (5, 1.0)], vec![(4, 1.0), (5, 1.0)]]);
        let plan = crate::ShardPlan::compute(g.structure(), 0);
        let global =
            StrategyFilter::from_masked_resources(g.structure(), &[false, false, false, true]);

        let spec = plan.shard(1);
        let (local, _) = spec.build_local(g.structure(), g.weights());
        let projected = global.project(spec, &local);
        // Shard 1 holds only player 1 → one player, two strategies.
        assert_eq!(projected.num_players(), 1);
        assert!(!projected.is_allowed(0, 0)); // global (1, 0) touches r3
        assert!(projected.is_allowed(0, 1));
        assert_eq!(projected.disallowed_count(), 1);

        // The untouched shard projects to an all-allowing filter.
        let spec0 = plan.shard(0);
        let (local0, _) = spec0.build_local(g.structure(), g.weights());
        assert!(global.project(spec0, &local0).all_allowed());
    }

    #[test]
    fn short_mask_treats_tail_resources_as_available() {
        let g = two_player_game();
        let f = StrategyFilter::from_masked_resources(g.structure(), &[true]);
        assert!(!f.is_allowed(0, 0));
        assert!(f.is_allowed(0, 1));
        assert!(f.is_allowed(0, 2));
        assert!(!f.is_allowed(1, 0));
        assert!(f.is_allowed(1, 1));
    }
}
