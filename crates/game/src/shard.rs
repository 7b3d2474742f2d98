//! Sharding a congestion game into independent subgames.
//!
//! Two strategies of *different* players interact only when they share a
//! resource, so the game graph — resources as nodes, strategies as
//! hyperedges — decomposes into connected components. On MEC topologies
//! whose base stations reach disjoint server clusters this makes the P2-A
//! game block-diagonal: each block can be solved by an independent CGBA run
//! and the results merged. [`ShardPlan`] computes the blocks with a
//! union-find pass over each strategy's resources, remaps each block into a
//! dense, cache-linear local [`GameStructure`]/[`ResourceWeights`] pair
//! (resources renumbered `0..`, players in ascending global order so the
//! MaxGain tie-break is preserved), and provides the choice split/merge
//! maps.
//!
//! Players whose strategy set spans several components (*cut players*, e.g.
//! devices covered by two BS islands) are homed to the component holding
//! most of their strategies; their out-of-home strategies are dropped from
//! the local view and a bounded global reconciliation pass after the merge
//! restores their best response (see `eotora-core::sharded`). When cut
//! players exceed [`MAX_CUT_FRACTION`] of the population the cut is *not*
//! weak — sharding would mutilate too many strategy sets — so the plan
//! collapses to a single shard and the solve degrades gracefully to the
//! sequential path.

use eotora_util::UnionFind;

use crate::{GameStructure, ResourceWeights, Strategy};

/// Fraction of cut players above which [`ShardPlan::compute`] refuses to
/// cut and returns a single-shard plan. A cut is only worth taking when it
/// is *weak* — nearly all players live entirely inside one component.
pub const MAX_CUT_FRACTION: f64 = 0.25;

/// A fixed-capacity bitset over `0..len` backed by `u64` words — the
/// branch-light membership structure used for cut-player marking and
/// shard-local masks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An all-zeros bitset of capacity `len`.
    pub fn new(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// Capacity in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// One shard of a [`ShardPlan`]: which global players and resources it
/// owns, plus the strategy maps for its cut players.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Global player ids, ascending — local player `li` is `players[li]`.
    players: Vec<usize>,
    /// Global resource ids, ascending — local resource `lr` is
    /// `resources[lr]`.
    resources: Vec<usize>,
    /// Per local player: local strategy index → global strategy index.
    /// Empty means the identity (the player is not cut — every global
    /// strategy survives in the local view).
    strategy_maps: Vec<Vec<u32>>,
}

impl ShardSpec {
    /// Global player ids owned by this shard, ascending.
    pub fn players(&self) -> &[usize] {
        &self.players
    }

    /// Global resource ids owned by this shard, ascending.
    pub fn resources(&self) -> &[usize] {
        &self.resources
    }

    /// Maps local player `li`'s local strategy `ls` to its global strategy
    /// index.
    #[inline]
    pub fn global_strategy(&self, li: usize, ls: usize) -> usize {
        let map = &self.strategy_maps[li];
        if map.is_empty() {
            ls
        } else {
            map[ls] as usize
        }
    }

    /// The local-strategy → global-strategy map of local player `li`;
    /// empty when the identity.
    pub fn strategy_map(&self, li: usize) -> &[u32] {
        &self.strategy_maps[li]
    }

    /// Builds the dense local game: resources renumbered to `0..`, players
    /// in ascending global order, strategy resource order preserved — so
    /// local cost sums run over bit-identical float sequences and the
    /// MaxGain tie-break (lowest player index) matches the global order.
    pub fn build_local(
        &self,
        structure: &GameStructure,
        weights: &ResourceWeights,
    ) -> (GameStructure, ResourceWeights) {
        let mut local_of = vec![u32::MAX; structure.num_resources()];
        for (lr, &gr) in self.resources.iter().enumerate() {
            local_of[gr] = lr as u32;
        }
        let players: Vec<Vec<Strategy>> = self
            .players
            .iter()
            .enumerate()
            .map(|(li, &gi)| {
                let all = structure.strategies(gi);
                let map = &self.strategy_maps[li];
                let kept: Box<dyn Iterator<Item = &Strategy>> = if map.is_empty() {
                    Box::new(all.iter())
                } else {
                    Box::new(map.iter().map(|&gs| &all[gs as usize]))
                };
                kept.map(|strategy| {
                    strategy.iter().map(|&(r, w)| (local_of[r] as usize, w)).collect()
                })
                .collect()
            })
            .collect();
        let local_structure = GameStructure::new(self.resources.len(), players)
            .expect("local view of a valid game must validate");
        let local_weights =
            ResourceWeights::from_raw(self.resources.iter().map(|&gr| weights.get(gr)).collect());
        (local_structure, local_weights)
    }

    /// Refreshes a previously built local game in place from the current
    /// global weights: resource weights `m_r` (BDMA round updates) and
    /// per-player strategy weights `p_{i,r}` (per-slot state updates). The
    /// shape is untouched, so local `CgbaScratch` caches stay valid.
    ///
    /// # Panics
    ///
    /// Panics if `local` was built from a structurally different game.
    pub fn sync_local(
        &self,
        structure: &GameStructure,
        weights: &ResourceWeights,
        local_structure: &mut GameStructure,
        local_weights: &mut ResourceWeights,
    ) {
        for (lr, &gr) in self.resources.iter().enumerate() {
            local_weights.set(lr, weights.get(gr));
        }
        for (li, &gi) in self.players.iter().enumerate() {
            let all = structure.strategies(gi);
            for ls in 0..local_structure.strategies(li).len() {
                let gs = self.global_strategy(li, ls);
                let global_strategy = &all[gs];
                let local_strategy = &mut local_structure.players[li][ls];
                assert_eq!(local_strategy.len(), global_strategy.len(), "shape drift");
                for (slot, &(_, w)) in local_strategy.iter_mut().zip(global_strategy) {
                    slot.1 = w;
                }
            }
        }
    }
}

/// The decomposition of a [`GameStructure`] into independent subgames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<ShardSpec>,
    /// Per global player: owning shard.
    player_shard: Vec<u32>,
    /// Per global player: index within its shard.
    player_local: Vec<u32>,
    cut_players: Vec<usize>,
    cut_bits: BitSet,
    num_components: usize,
    fingerprint: (usize, usize, usize),
}

impl ShardPlan {
    /// Computes the plan for `structure`, packing components into at most
    /// `max_shards` shards (`0` = one shard per component).
    ///
    /// Resources are connected when they co-occur in any strategy; each
    /// connected component is a candidate shard. Cut players are homed to
    /// the component holding most of their strategies (tie → smallest
    /// component id). The plan collapses to a single shard when the game
    /// has one component, when `max_shards == 1`, or when more than
    /// [`MAX_CUT_FRACTION`] of players are cut (the cut is not weak).
    pub fn compute(structure: &GameStructure, max_shards: usize) -> Self {
        let num_players = structure.num_players();
        let num_resources = structure.num_resources();

        let mut uf = UnionFind::new(num_resources);
        for i in 0..num_players {
            for strategy in structure.strategies(i) {
                for pair in strategy.windows(2) {
                    uf.union(pair[0].0, pair[1].0);
                }
            }
        }
        let comp_of = uf.component_ids();
        let num_components = uf.components();

        // Home every player; collect cut players.
        let mut player_home = vec![0usize; num_players];
        let mut cut_players = Vec::new();
        let mut cut_bits = BitSet::new(num_players);
        let mut votes: Vec<(usize, usize)> = Vec::new(); // (component, count)
        for (i, home_slot) in player_home.iter_mut().enumerate() {
            votes.clear();
            for strategy in structure.strategies(i) {
                let Some(&(r, _)) = strategy.first() else { continue };
                let c = comp_of[r];
                match votes.iter_mut().find(|(vc, _)| *vc == c) {
                    Some((_, n)) => *n += 1,
                    None => votes.push((c, 1)),
                }
            }
            votes.sort_unstable();
            let home =
                votes.iter().copied().max_by_key(|&(c, n)| (n, usize::MAX - c)).map(|(c, _)| c);
            *home_slot = home.unwrap_or(0);
            if votes.len() > 1 {
                cut_players.push(i);
                cut_bits.insert(i);
            }
        }

        let fingerprint = Self::shape_fingerprint(structure);
        let weak_cut = (cut_players.len() as f64) <= MAX_CUT_FRACTION * num_players as f64;
        if num_components <= 1 || max_shards == 1 || !weak_cut {
            return Self::trivial(structure, num_components, fingerprint);
        }

        // Players and resources per component (only player-bearing
        // components become shards; unused resources attach to whichever
        // component union-find put them in and are dropped with it).
        let mut comp_players = vec![0usize; num_components];
        for &c in &player_home {
            comp_players[c] += 1;
        }
        let live: Vec<usize> = (0..num_components).filter(|&c| comp_players[c] > 0).collect();
        if live.len() <= 1 {
            return Self::trivial(structure, num_components, fingerprint);
        }

        // Greedy balanced bin-packing of components into shards: heaviest
        // component first into the lightest bin (ties → lowest index) — a
        // deterministic assignment independent of worker count.
        let bins = if max_shards == 0 { live.len() } else { max_shards.min(live.len()) };
        let mut order = live.clone();
        order.sort_unstable_by_key(|&c| (usize::MAX - comp_players[c], c));
        let mut comp_bin = vec![usize::MAX; num_components];
        let mut bin_load = vec![0usize; bins];
        for &c in &order {
            let lightest = bin_load
                .iter()
                .enumerate()
                .min_by_key(|&(b, &load)| (load, b))
                .map(|(b, _)| b)
                .unwrap_or(0);
            comp_bin[c] = lightest;
            bin_load[lightest] += comp_players[c];
        }

        let mut shards: Vec<ShardSpec> = (0..bins)
            .map(|_| ShardSpec {
                players: Vec::new(),
                resources: Vec::new(),
                strategy_maps: Vec::new(),
            })
            .collect();
        for (r, &c) in comp_of.iter().enumerate() {
            if comp_bin[c] != usize::MAX {
                shards[comp_bin[c]].resources.push(r);
            }
        }
        let mut player_shard = vec![0u32; num_players];
        let mut player_local = vec![0u32; num_players];
        for i in 0..num_players {
            let home = player_home[i];
            let bin = comp_bin[home];
            let shard = &mut shards[bin];
            player_shard[i] = bin as u32;
            player_local[i] = shard.players.len() as u32;
            shard.players.push(i);
            let map = if cut_bits.contains(i) {
                structure
                    .strategies(i)
                    .iter()
                    .enumerate()
                    .filter(|(_, strategy)| {
                        strategy.first().is_none_or(|&(r, _)| comp_of[r] == home)
                    })
                    .map(|(s, _)| s as u32)
                    .collect()
            } else {
                Vec::new()
            };
            shard.strategy_maps.push(map);
        }

        Self {
            shards,
            player_shard,
            player_local,
            cut_players,
            cut_bits,
            num_components,
            fingerprint,
        }
    }

    /// The single-shard fallback: identity mapping over the whole game.
    fn trivial(
        structure: &GameStructure,
        num_components: usize,
        fingerprint: (usize, usize, usize),
    ) -> Self {
        let num_players = structure.num_players();
        Self {
            shards: vec![ShardSpec {
                players: (0..num_players).collect(),
                resources: (0..structure.num_resources()).collect(),
                strategy_maps: vec![Vec::new(); num_players],
            }],
            player_shard: vec![0; num_players],
            player_local: (0..num_players as u32).collect(),
            cut_players: Vec::new(),
            cut_bits: BitSet::new(num_players),
            num_components,
            fingerprint,
        }
    }

    /// The shape key a plan is valid for: `(players, resources, total
    /// strategy count)`. Per-slot weight updates keep the shape; adding or
    /// removing players/strategies changes it and invalidates the plan.
    pub fn shape_fingerprint(structure: &GameStructure) -> (usize, usize, usize) {
        let total: usize =
            (0..structure.num_players()).map(|i| structure.strategies(i).len()).sum();
        (structure.num_players(), structure.num_resources(), total)
    }

    /// Whether this plan was computed for a structure of the same shape.
    pub fn matches(&self, structure: &GameStructure) -> bool {
        self.fingerprint == Self::shape_fingerprint(structure)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in deterministic merge order.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// Shard `s`.
    pub fn shard(&self, s: usize) -> &ShardSpec {
        &self.shards[s]
    }

    /// Number of connected resource components found (before bin-packing
    /// and independent of the cut-fraction fallback).
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Whether the plan is the single-shard fallback.
    pub fn is_trivial(&self) -> bool {
        self.shards.len() == 1
    }

    /// Global ids of players whose strategies span several components,
    /// ascending. Empty on separable games — there the sharded solve is
    /// decision-identical to the sequential one.
    pub fn cut_players(&self) -> &[usize] {
        &self.cut_players
    }

    /// Whether global player `i` is a cut player.
    #[inline]
    pub fn is_cut(&self, i: usize) -> bool {
        self.cut_bits.contains(i)
    }

    /// Player count of the most populated shard.
    pub fn largest_shard_players(&self) -> usize {
        self.shards.iter().map(|s| s.players.len()).max().unwrap_or(0)
    }

    /// Splits global per-player choices into per-shard local choice
    /// vectors. A cut player's out-of-home global choice has no local
    /// image; it falls back to local strategy 0 (reconciliation restores
    /// its best response after the merge).
    pub fn split_choices(&self, global: &[usize]) -> Vec<Vec<usize>> {
        let mut locals: Vec<Vec<usize>> =
            self.shards.iter().map(|s| Vec::with_capacity(s.players.len())).collect();
        for (shard, spec) in self.shards.iter().enumerate() {
            let out = &mut locals[shard];
            for (li, &gi) in spec.players.iter().enumerate() {
                let map = &spec.strategy_maps[li];
                let choice = if map.is_empty() {
                    global[gi]
                } else {
                    map.binary_search(&(global[gi] as u32)).unwrap_or(0)
                };
                out.push(choice);
            }
        }
        locals
    }

    /// Merges per-shard local choices back into `out` (global indexing).
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree with the plan.
    pub fn merge_choices(&self, locals: &[Vec<usize>], out: &mut [usize]) {
        assert_eq!(locals.len(), self.shards.len(), "one choice vector per shard");
        assert_eq!(out.len(), self.player_shard.len(), "one output slot per player");
        for (spec, local) in self.shards.iter().zip(locals) {
            assert_eq!(local.len(), spec.players.len(), "one choice per shard player");
            for (li, &gi) in spec.players.iter().enumerate() {
                out[gi] = spec.global_strategy(li, local[li]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CongestionGame, SplitGame};

    /// Two disconnected blocks of 2 players × 3 resources each (strategies
    /// bundle a private resource with the block's shared one, like the
    /// paper's server + link bundles), plus an optional cut player whose
    /// strategies span both blocks.
    fn block_game(with_cut: bool) -> CongestionGame {
        let mut g = CongestionGame::new(vec![1.0; 6]);
        for block in 0..2 {
            let (a, b, c) = (3 * block, 3 * block + 1, 3 * block + 2);
            g.add_player(vec![vec![(a, 1.0), (c, 0.5)], vec![(b, 1.0), (c, 0.5)]]);
            g.add_player(vec![vec![(a, 2.0), (c, 1.0)], vec![(b, 2.0), (c, 1.0)]]);
        }
        if with_cut {
            g.add_player(vec![
                vec![(0, 1.0), (2, 0.5)],
                vec![(1, 1.0), (2, 0.5)],
                vec![(3, 1.0), (5, 0.5)],
            ]);
        }
        g.validate().unwrap();
        g
    }

    #[test]
    fn bitset_basics() {
        let mut b = BitSet::new(130);
        assert!(!b.is_empty() && b.len() == 130);
        for i in [0, 63, 64, 129] {
            b.insert(i);
        }
        assert_eq!(b.count_ones(), 4);
        assert!(b.contains(64) && !b.contains(65) && !b.contains(500));
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        b.remove(64);
        assert!(!b.contains(64));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn separable_game_splits_into_blocks() {
        let g = block_game(false);
        let plan = ShardPlan::compute(g.structure(), 0);
        assert_eq!(plan.num_shards(), 2);
        assert!(plan.cut_players().is_empty());
        assert_eq!(plan.shard(0).players(), &[0, 1]);
        assert_eq!(plan.shard(1).players(), &[2, 3]);
        assert_eq!(plan.shard(0).resources(), &[0, 1, 2]);
        assert_eq!(plan.shard(1).resources(), &[3, 4, 5]);
        assert_eq!(plan.largest_shard_players(), 2);
        assert!(plan.matches(g.structure()));
    }

    #[test]
    fn cut_player_is_homed_by_strategy_majority() {
        let g = block_game(true);
        let plan = ShardPlan::compute(g.structure(), 0);
        assert_eq!(plan.num_shards(), 2);
        assert_eq!(plan.cut_players(), &[4]);
        assert!(plan.is_cut(4) && !plan.is_cut(0));
        // Two of three strategies live in block 0 → homed there, with the
        // block-1 strategy dropped from the local view.
        assert_eq!(plan.shard(0).players(), &[0, 1, 4]);
        assert_eq!(plan.shard(0).strategy_map(2), &[0, 1]);
        assert_eq!(plan.shard(0).global_strategy(2, 1), 1);
    }

    #[test]
    fn heavy_cut_collapses_to_single_shard() {
        // Every player straddles both resource blocks → cut fraction 1.0.
        let mut g = CongestionGame::new(vec![1.0; 2]);
        for _ in 0..4 {
            g.add_player(vec![vec![(0, 1.0)], vec![(1, 1.0)]]);
        }
        // Two singleton components but all players cut: not a weak cut.
        let plan = ShardPlan::compute(g.structure(), 0);
        assert!(plan.is_trivial());
        assert_eq!(plan.num_components(), 2);
    }

    #[test]
    fn max_shards_bin_packs_components() {
        // Four 1-player blocks packed into 2 shards → 2 players each.
        let mut g = CongestionGame::new(vec![1.0; 12]);
        for block in 0..4 {
            let (a, b, c) = (3 * block, 3 * block + 1, 3 * block + 2);
            g.add_player(vec![vec![(a, 1.0), (c, 0.5)], vec![(b, 1.0), (c, 0.5)]]);
        }
        let plan = ShardPlan::compute(g.structure(), 2);
        assert_eq!(plan.num_shards(), 2);
        assert_eq!(plan.num_components(), 4);
        let sizes: Vec<usize> = plan.shards().iter().map(|s| s.players().len()).collect();
        assert_eq!(sizes, vec![2, 2]);
        // Every player appears in exactly one shard.
        let mut seen = vec![0usize; 4];
        for s in plan.shards() {
            for &p in s.players() {
                seen[p] += 1;
            }
        }
        assert_eq!(seen, vec![1; 4]);
    }

    #[test]
    fn local_game_costs_match_global() {
        let g = block_game(false);
        let plan = ShardPlan::compute(g.structure(), 0);
        let global_choices = vec![0, 1, 1, 0];
        let global = crate::Profile::from_choices(&g, global_choices.clone());
        let locals = plan.split_choices(&global_choices);
        let mut total = 0.0;
        for (spec, local_choices) in plan.shards().iter().zip(&locals) {
            let (ls, lw) = spec.build_local(g.structure(), g.weights());
            let game = SplitGame { structure: &ls, weights: &lw };
            let p = crate::Profile::from_choices(&game, local_choices.clone());
            total += p.total_cost(&game);
        }
        assert!((total - global.total_cost(&g)).abs() < 1e-12);
    }

    #[test]
    fn split_then_merge_is_identity_on_separable_games() {
        let g = block_game(false);
        let plan = ShardPlan::compute(g.structure(), 0);
        for choices in [[0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]] {
            let locals = plan.split_choices(&choices);
            let mut out = vec![usize::MAX; 4];
            plan.merge_choices(&locals, &mut out);
            assert_eq!(out, choices);
        }
    }

    #[test]
    fn sync_local_tracks_weight_updates() {
        let mut g = block_game(false);
        let plan = ShardPlan::compute(g.structure(), 0);
        let spec = plan.shard(1);
        let (mut ls, mut lw) = spec.build_local(g.structure(), g.weights());
        g.set_resource_weight(3, 7.0);
        g.set_strategy_weights(3, 0, &[9.0, 4.0]);
        spec.sync_local(g.structure(), g.weights(), &mut ls, &mut lw);
        // Global resource 3 is local resource 0 of shard 1.
        assert_eq!(lw.get(0), 7.0);
        // Global player 3 is local player 1; its strategy 0 bundles global
        // resources (3, 5) → local (0, 2).
        assert_eq!(ls.strategies(1)[0], vec![(0, 9.0), (2, 4.0)]);
    }
}
