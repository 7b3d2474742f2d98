//! CGBA(λ) best-response dynamics (paper Algorithm 3) with an incremental
//! MaxGain scheduler.
//!
//! The naive MaxGain loop rescans every `(player, strategy)` cost each
//! iteration — O(I·S) work per move. [`CgbaScratch`] instead keeps every
//! cost *term* `m_r·p_{i,r}·(p_r − own_i(r) + p_{i,r})` current, one per
//! (player, resource, weight) key, and refreshes only the best responses of
//! players whose terms changed.
//!
//! **The term table.** Terms live in flat arrays (weight, own share, value,
//! owner, head slot) ordered by resource, so refreshing a resource is one
//! contiguous sweep of `m_r·w·(L_r − own + w)` — the addend
//! [`Profile::strategy_cost`] adds, by the same expression. A move changes
//! only the loads of the mover's old and new resources: each such resource
//! whose load changed bit pattern is swept whole, and on the others only
//! the mover's own terms (whose `own` share moved) are recomputed.
//!
//! **Groups and head sets.** A strategy's cost is `((0 + t₀) + t₁) + …`
//! over its terms in strategy order. A *group* is a run of one player's
//! consecutive strategies whose terms agree at every position but the
//! first, the *head*; in the P2-A game one base station's servers form a
//! group, sharing the station's access and fronthaul terms. A *head set*
//! is a player's groups with identical head-term sequences (in P2-A, the
//! stations linked to one server cluster), and caches its minimum head
//! `h₁`, the first position holding it, and its second-smallest distinct
//! head `h₂`.
//!
//! **Per-player refresh.** A term whose value changes bit pattern marks
//! its owner dirty; a dirty player refolds every group from the head-set
//! caches. A group costs `f(h₁)`, where `f` folds the shared suffix onto a
//! head. Rounded float addition is monotone (`a ≤ b ⇒ a ⊕ c ≤ b ⊕ c`), so
//! every head other than `h₁` costs at least `f(h₂)`: when `f(h₂) > f(h₁)`
//! only the positions holding `h₁` attain the minimum and the strict-`<`
//! rescan picks the first of them. When rounding ties `f(h₂)` to `f(h₁)`
//! the group rescans its members in order, as does any group the filter
//! partly disallows. The player's best response is the first group, in
//! strategy order, with the smallest cost — the rescan's pick again.
//!
//! **Head-set updates.** A changed head term that held neither `h₁` nor
//! `h₂` (`old > h₂`, so not NaN either) updates the cache in place:
//! `new < h₁` makes it the minimum at its position `k` with the old `h₁`
//! second; `new == h₁` moves the first position to `min(pos, k)`;
//! `h₁ < new < h₂` makes it the second head; anything else, NaN included,
//! leaves the cache as it was. Every other change marks the head set for
//! an in-order rescan. Both forms agree on every float the kernel reads:
//! `==` ties `+0.0` with `−0.0`, so a cached zero minimum may carry the
//! other sign than a rescan would give, but `0 + h` erases the sign of a
//! zero head before any suffix is added; and a NaN head compares false,
//! so neither form ever picks it. Hence movers, costs and every float
//! match [`cgba_from_reference`] exactly (asserted per-iteration under
//! `cfg(test)` or the `naive-check` feature, and property-tested in
//! `tests/incremental.rs`, `tests/filtered_incremental.rs` and
//! `tests/grouped_ties.rs`).
//!
//! [`cgba_kernel`] is the one MaxGain loop every solve path runs: plain
//! cold restarts ([`cgba_from_with_scratch`]), warm starts
//! ([`cgba_warm_from_with_scratch`]) and the fault-tolerant path, which adds
//! a [`StrategyFilter`] and an anytime `should_stop` predicate.
//! [`cgba_from_reference`] keeps the pre-refactor rescan loop verbatim as
//! the equivalence oracle and benchmark baseline.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use eotora_util::rng::Pcg32;

use crate::{validate_parts, GameRef, GameStructure, Profile, StrategyFilter};

/// How CGBA picks which improvable player moves next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulingRule {
    /// The paper's Algorithm 3 line 3: the player with the largest absolute
    /// improvement `T_i(z) − min T_i(·, z_{−i})`.
    #[default]
    MaxGain,
    /// Cyclic scan (ablation baseline): first improvable player in index
    /// order after the last mover.
    RoundRobin,
}

/// Configuration for [`cgba`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CgbaConfig {
    /// Approximation slack `λ ∈ [0, 0.125)`; larger converges faster with a
    /// worse guarantee (Theorem 2).
    pub lambda: f64,
    /// Hard iteration cap (the potential argument guarantees finite
    /// termination; this guards pathological float behaviour).
    pub max_iterations: usize,
    /// Player-selection rule.
    pub scheduling: SchedulingRule,
}

impl Default for CgbaConfig {
    fn default() -> Self {
        Self { lambda: 0.0, max_iterations: 1_000_000, scheduling: SchedulingRule::MaxGain }
    }
}

/// Outcome of a [`cgba`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CgbaReport {
    /// Final profile `ẑ`.
    pub profile: Profile,
    /// Social cost `T(ẑ)` of the final profile.
    pub total_cost: f64,
    /// Social cost of the *seed* profile the dynamics started from — a
    /// uniformly random profile under [`cgba`], the caller-supplied (e.g.
    /// retained previous-slot) profile under [`cgba_from`] and the warm
    /// entry points.
    pub initial_cost: f64,
    /// Number of best-response moves performed.
    pub iterations: usize,
    /// Whether the λ-equilibrium condition was reached (vs. iteration cap).
    pub converged: bool,
}

/// Marks "no head set": a group of one empty strategy, which has no head,
/// and a term that heads no group.
const NO_HEAD: u32 = u32::MAX;
/// Marks a term that heads more than one head-set position.
const MANY_HEADS: u32 = u32::MAX - 1;

/// A compressed sparse row index: `items[start[k]..start[k + 1]]` are the
/// items of key `k`.
#[derive(Debug, Clone, Default)]
struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Rebuilds the index over `keys` keys from the `(key, item)` pairs
    /// `pairs` yields (called twice), keeping each key's items in pair order.
    fn build<I: Iterator<Item = (u32, u32)>>(&mut self, keys: usize, pairs: impl Fn() -> I) {
        self.start.clear();
        self.start.resize(keys + 1, 0);
        for (k, _) in pairs() {
            self.start[k as usize + 1] += 1;
        }
        for k in 0..keys {
            self.start[k + 1] += self.start[k];
        }
        self.items.clear();
        self.items.resize(self.start[keys] as usize, 0);
        for (k, item) in pairs() {
            let cursor = &mut self.start[k as usize];
            self.items[*cursor as usize] = item;
            *cursor += 1;
        }
        // Each cursor now sits at the next key's start.
        self.start.copy_within(0..keys, 1);
        self.start[0] = 0;
    }

    fn range(&self, k: usize) -> Range<usize> {
        self.start[k] as usize..self.start[k + 1] as usize
    }

    fn get(&self, k: usize) -> &[u32] {
        &self.items[self.range(k)]
    }
}

/// A run of one player's consecutive strategies whose terms agree at every
/// position but the first.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// The group's entries.
    first: u32,
    end: u32,
    /// The positions of the shared suffix terms in the first strategy.
    suffix: (u32, u32),
    /// The group's head set, or [`NO_HEAD`].
    head: u32,
}

/// Cached per head set: the minimum head value, the first position holding
/// it, and the second-smallest distinct head value (`∞` if none).
#[derive(Debug, Clone, Copy)]
struct HeadSet {
    min: f64,
    second: f64,
    pos: u32,
    dirty: bool,
}

/// The data-oriented layout of one game structure: the term table, the
/// strategy groups and the head sets (see the module docs).
///
/// Term values are kept current eagerly; head-set caches are refreshed
/// lazily behind dirty flags. The term weights double as the warm snapshot
/// of every strategy weight.
#[derive(Debug, Clone, Default)]
struct Layout {
    /// `by_resource.range(r)` are the terms on resource `r`, ordered by
    /// owner; its items map each term to its build-order key (build time
    /// only).
    by_resource: Csr,
    /// Per term, in resource order: the weight `p_{i,r}`, the owner's share
    /// `own_i(r)` of the resource (the weight its current strategy puts
    /// there, or 0), the value `m_r·p_{i,r}·(p_r − own_i(r) + p_{i,r})` at
    /// the current profile, the owner and the head slot: the head set and
    /// position the term heads, with the set [`NO_HEAD`] for a term that
    /// heads nothing and [`MANY_HEADS`] for one that heads several
    /// positions, whose change dirties every head set of its owner.
    weight: Vec<f64>,
    own: Vec<f64>,
    value: Vec<f64>,
    player: Vec<u32>,
    head_slot: Vec<(u32, u32)>,
    /// `entry_pos[e]..entry_pos[e + 1]` are entry `e`'s positions — one per
    /// resource of its strategy, in strategy order.
    entry_pos: Vec<u32>,
    /// The term each position reads.
    pos_term: Vec<u32>,
    /// `player_groups[i]..player_groups[i + 1]` are player `i`'s groups.
    player_groups: Vec<u32>,
    groups: Vec<Group>,
    heads: Vec<HeadSet>,
    /// Each head set's head terms, in strategy order within a group.
    head_terms: Csr,
    /// Whether the structure the layout was built from passed validation.
    validated: bool,
    /// Build-time helpers: the terms' `(player, resource, weight)` keys in
    /// build order, each key's term, the last `(player, key)` created per
    /// resource, and the last head set created per first head key.
    keys: Vec<(u32, u32, f64)>,
    rank: Vec<u32>,
    last: Vec<(u32, u32)>,
    head_by_first: Vec<u32>,
}

/// `u32` indices halve the layout; every conversion is checked.
fn index(x: usize) -> u32 {
    u32::try_from(x).expect("layout index fits in u32")
}

impl Layout {
    /// Derives the term table, groups and head sets from `structure`'s
    /// current weights, unvalidated, with every head set dirty. Own shares
    /// and values are left for [`CgbaScratch::reset`].
    fn build(&mut self, structure: &GameStructure) {
        let n = structure.num_players();
        let num_resources = structure.num_resources();
        self.entry_pos.clear();
        self.entry_pos.push(0);
        self.pos_term.clear();
        self.keys.clear();
        self.player_groups.clear();
        self.groups.clear();
        self.last.clear();
        self.last.resize(num_resources, (NO_HEAD, 0));
        let mut entry = 0;
        for i in 0..n {
            let player = index(i);
            self.player_groups.push(index(self.groups.len()));
            for (s, strategy) in structure.strategies(i).iter().enumerate() {
                let first = self.pos_term.len();
                for &(r, w) in strategy {
                    let (owner, k) = self.last[r];
                    // Equal weights on one resource share a term. Only the
                    // player's latest term on `r` is checked, which finds
                    // every share in the P2-A layout; a miss only costs a
                    // duplicate term, never a wrong value.
                    let k = if owner == player && self.keys[k as usize].2.to_bits() == w.to_bits() {
                        k
                    } else {
                        self.keys.push((player, index(r), w));
                        self.last[r] = (player, index(self.keys.len() - 1));
                        index(self.keys.len() - 1)
                    };
                    self.pos_term.push(k);
                }
                self.entry_pos.push(index(self.pos_term.len()));
                // A non-empty strategy joins the open group when its terms
                // agree with the group's first strategy everywhere but the
                // head. An empty strategy has no head and stands alone.
                let len = strategy.len();
                let suffix = (first + 1).min(first + len)..first + len;
                let joins = s > 0
                    && len > 0
                    && self.groups.last().is_some_and(|group| {
                        let e = group.first as usize;
                        let shared = group.suffix.0 as usize..group.suffix.1 as usize;
                        (self.entry_pos[e + 1] - self.entry_pos[e]) as usize == len
                            && self.pos_term[shared] == self.pos_term[suffix.clone()]
                    });
                match self.groups.last_mut() {
                    Some(group) if joins => group.end += 1,
                    _ => self.groups.push(Group {
                        first: index(entry),
                        end: index(entry + 1),
                        suffix: (index(suffix.start), index(suffix.end)),
                        head: NO_HEAD,
                    }),
                }
                entry += 1;
            }
        }
        let terms = self.keys.len();
        self.player_groups.push(index(self.groups.len()));

        // Head sets: groups of one player with identical head sequences.
        // Only the latest head set per first head term is checked, which
        // finds every share in the P2-A layout; a miss only costs a
        // duplicate head set.
        self.head_by_first.clear();
        self.head_by_first.resize(terms, NO_HEAD);
        self.head_terms.start.clear();
        self.head_terms.start.push(0);
        self.head_terms.items.clear();
        for g in 0..self.groups.len() {
            let entries = self.groups[g].first as usize..self.groups[g].end as usize;
            if self.entry_pos[entries.start] == self.entry_pos[entries.start + 1] {
                continue;
            }
            let head = |e: usize| self.pos_term[self.entry_pos[e] as usize];
            let first = head(entries.start) as usize;
            let known = self.head_by_first[first];
            let h = if known != NO_HEAD
                && self.head_terms.get(known as usize).iter().copied().eq(entries.clone().map(head))
            {
                known
            } else {
                let h = index(self.head_terms.start.len() - 1);
                self.head_terms.items.extend(entries.map(head));
                self.head_terms.start.push(index(self.head_terms.items.len()));
                self.head_by_first[first] = h;
                h
            };
            self.groups[g].head = h;
        }
        let heads = self.head_terms.start.len() - 1;
        self.heads.clear();
        self.heads.resize(heads, HeadSet { min: 0.0, second: 0.0, pos: 0, dirty: true });

        // Order the terms by resource (stably, so by owner within one) and
        // renumber every reference to them.
        self.by_resource.build(num_resources, || {
            self.keys.iter().enumerate().map(|(k, &(_, r, _))| (r, index(k)))
        });
        self.rank.clear();
        self.rank.resize(terms, 0);
        self.weight.clear();
        self.player.clear();
        for (t, &k) in self.by_resource.items.iter().enumerate() {
            let (player, _, w) = self.keys[k as usize];
            self.rank[k as usize] = index(t);
            self.weight.push(w);
            self.player.push(player);
        }
        for t in self.pos_term.iter_mut().chain(&mut self.head_terms.items) {
            *t = self.rank[*t as usize];
        }
        self.head_slot.clear();
        self.head_slot.resize(terms, (NO_HEAD, 0));
        for h in 0..heads {
            for (k, &t) in self.head_terms.get(h).iter().enumerate() {
                let slot = &mut self.head_slot[t as usize];
                *slot = if slot.0 == NO_HEAD { (index(h), index(k)) } else { (MANY_HEADS, 0) };
            }
        }
        self.own.resize(terms, 0.0);
        self.value.resize(terms, 0.0);
        self.validated = false;
    }

    /// Player `i`'s terms on resource `r`.
    fn player_run(&self, r: usize, i: usize) -> Range<usize> {
        let run = self.by_resource.range(r);
        let owners = &self.player[run.clone()];
        let lo = owners.partition_point(|&p| (p as usize) < i);
        let len = owners[lo..].partition_point(|&p| p as usize == i);
        run.start + lo..run.start + lo + len
    }

    /// Keeps term `t`'s head set current after the term's value changed
    /// from `old` to `new` (the rules in the module docs).
    fn update_head(&mut self, t: usize, old: f64, new: f64) {
        let (set, pos) = self.head_slot[t];
        if set == MANY_HEADS {
            let i = self.player[t] as usize;
            for g in self.player_groups[i] as usize..self.player_groups[i + 1] as usize {
                if let Some(head) = self.heads.get_mut(self.groups[g].head as usize) {
                    head.dirty = true;
                }
            }
            return;
        }
        match self.heads.get_mut(set as usize) {
            // A term above the second head held neither cached value, so a
            // clean cache can absorb its new value; otherwise rescan.
            Some(head) if !head.dirty && old > head.second => {
                if new < head.min {
                    *head = HeadSet { min: new, second: head.min, pos, dirty: false };
                } else if new == head.min {
                    head.pos = head.pos.min(pos);
                } else if new < head.second {
                    head.second = new;
                }
            }
            Some(head) => head.dirty = true,
            None => {} // NO_HEAD
        }
    }

    /// Re-derives head set `h`'s minimum, its first position and the
    /// second-smallest distinct head. NaN heads compare false and are
    /// skipped, as the strict-`<` rescan never picks them either.
    fn refresh_head(&mut self, h: usize) {
        let (mut min, mut pos, mut second) = (f64::INFINITY, 0, f64::INFINITY);
        for (k, &t) in self.head_terms.get(h).iter().enumerate() {
            let v = self.value[t as usize];
            if v < min {
                second = min;
                min = v;
                pos = k;
            } else if v > min && v < second {
                second = v;
            }
        }
        self.heads[h] = HeadSet { min, second, pos: index(pos), dirty: false };
    }

    /// The cost of a strategy of `group` with head value `head`: the same
    /// additions, in the same order, as [`Profile::strategy_cost`].
    fn fold(&self, group: &Group, head: f64) -> f64 {
        let suffix = &self.pos_term[group.suffix.0 as usize..group.suffix.1 as usize];
        suffix.iter().fold(0.0 + head, |cost, &t| cost + self.value[t as usize])
    }

    /// The cost of entry `e`, summed position by position.
    fn entry_cost(&self, e: usize) -> f64 {
        let positions = self.entry_pos[e] as usize..self.entry_pos[e + 1] as usize;
        self.pos_term[positions].iter().fold(0.0, |cost, &t| cost + self.value[t as usize])
    }

    /// Group `g`'s best allowed strategy (an index among its player's
    /// strategies, whose entries start at `offset`), its cost (`∞` when no
    /// allowed strategy costs less) and the number of strategy costs
    /// evaluated.
    fn group_best(&mut self, g: usize, offset: usize, allowed: &[bool]) -> (usize, f64, u64) {
        let group = self.groups[g];
        let entries = group.first as usize..group.end as usize;
        let unfiltered = allowed.is_empty() || allowed[entries.clone()].iter().all(|&a| a);
        let mut probes = 0;
        if group.head != NO_HEAD && unfiltered {
            let h = group.head as usize;
            if self.heads[h].dirty {
                self.refresh_head(h);
            }
            let head = self.heads[h];
            let cost = self.fold(&group, head.min);
            // Costs are monotone in the head, so every head above the
            // minimum costs at least `fold(second)`. When that is strictly
            // more, the first minimum head wins outright; otherwise rounding
            // tied them and the group is rescanned in order.
            let tie_free = if head.second == f64::INFINITY {
                // Every other head is `∞` or NaN: dearer than any finite
                // minimum, or never picked.
                probes = 1;
                cost < f64::INFINITY
            } else {
                probes = 2;
                self.fold(&group, head.second) > cost
            };
            if tie_free {
                return (entries.start + head.pos as usize - offset, cost, probes);
            }
        }
        let mut best = (entries.start, f64::INFINITY);
        for e in entries {
            if !allowed.is_empty() && !allowed[e] {
                continue;
            }
            let cost = self.entry_cost(e);
            probes += 1;
            if cost < best.1 {
                best = (e, cost);
            }
        }
        (best.0 - offset, best.1, probes)
    }
}

/// Reusable state for the incremental MaxGain kernel: the term table with
/// its group and head-set caches, per-player current costs and best
/// responses behind dirty flags, and the warm snapshot. Owning one across
/// calls makes the steady-state solve allocation-free; a cold call
/// recomputes every term and marks everything dirty at its start, so weight
/// updates between calls need no bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct CgbaScratch {
    /// `offsets[i]..offsets[i+1]` indexes player `i`'s entries (one per
    /// strategy) in the flat filter and layout arenas.
    offsets: Vec<usize>,
    /// Cached `Profile::player_cost` per player.
    cur_cost: Vec<f64>,
    cur_dirty: Vec<bool>,
    /// Cached best response per player (valid when `!player_dirty`).
    best_s: Vec<usize>,
    best_cost: Vec<f64>,
    player_dirty: Vec<bool>,
    moves: Vec<(usize, usize)>,
    /// Move-local buffer of `(resource, pre-move load bits)` pairs.
    touched: Vec<(usize, u64)>,
    layout: Layout,
    /// Warm-start snapshot of the last converged MaxGain run: when the next
    /// warm call starts from the snapshotted profile under the same filter
    /// and strategy weights, only terms on resources whose weight or load
    /// changed bit pattern since that run are recomputed. Strategy weights
    /// are snapshotted by the term table.
    snap_valid: bool,
    snap_choices: Vec<usize>,
    snap_loads: Vec<u64>,
    snap_weights: Vec<u64>,
    snap_filter: Option<StrategyFilter>,
    /// Monotonic count of cost evaluations — one per `player_cost` call and
    /// one per strategy cost evaluated in a best-response scan — performed
    /// by solves using this scratch: the hot path's unit of work, surfaced
    /// as the `cgba.probes` counter. Never reset, so callers can emit
    /// per-solve deltas.
    probes: u64,
}

impl CgbaScratch {
    /// Rebuilds the layout unless every strategy of `structure` still
    /// matches it. With `validate`, first checks the structure, unless the
    /// layout matches and was built from a validated structure: the match
    /// compares every resource and weight bit, so the verdict carries over.
    ///
    /// # Panics
    ///
    /// Panics if `validate` is set and the structure fails validation.
    fn prepare(&mut self, structure: &GameStructure, validate: bool) {
        let matches = self.layout_matches(structure);
        if validate && !(matches && self.layout.validated) {
            structure.validate().expect("game must validate before solving");
        }
        if !matches {
            self.offsets.clear();
            self.offsets.push(0);
            for i in 0..structure.num_players() {
                self.offsets.push(self.offsets[i] + structure.strategies(i).len());
            }
            self.layout.build(structure);
            self.snap_valid = false;
        }
        self.layout.validated |= validate;
    }

    /// Sizes the per-player caches for `game`, computes the term values at
    /// `profile` and marks every cache dirty.
    fn reset<G: GameRef>(&mut self, game: &G, profile: &Profile) {
        let n = game.structure().num_players();
        for head in &mut self.layout.heads {
            head.dirty = true;
        }
        self.cur_cost.clear();
        self.cur_cost.resize(n, 0.0);
        self.cur_dirty.clear();
        self.cur_dirty.resize(n, true);
        self.best_s.clear();
        self.best_s.resize(n, 0);
        self.best_cost.clear();
        self.best_cost.resize(n, 0.0);
        self.player_dirty.clear();
        self.player_dirty.resize(n, true);
        self.moves.clear();
        self.layout.own.fill(0.0);
        for i in 0..n {
            for &(r, w) in &game.structure().strategies(i)[profile.choices[i]] {
                let run = self.layout.player_run(r, i);
                self.layout.own[run].fill(w);
            }
        }
        for r in 0..game.structure().num_resources() {
            self.sweep(game, profile, r, self.layout.by_resource.range(r));
        }
        // A cold start means the caches will be rebuilt for an arbitrary
        // profile; any retained warm snapshot no longer describes them.
        self.snap_valid = false;
    }

    /// Attempts the warm first-iteration fast path: when `initial` is
    /// exactly the profile the last converged run ended on, `filter` is the
    /// filter it ran under and the layout was not rebuilt since (so every
    /// strategy weight is unchanged), the caches in this scratch are still
    /// *valid* except where a resource weight or load changed bit pattern —
    /// the cost expressions are deterministic, so a rescan would reproduce
    /// every other cached float exactly. Recomputes the terms on those
    /// resources, dirtying what reads a changed one, and returns `true`.
    ///
    /// Returns `false` (caller must [`CgbaScratch::reset`]) when there is no
    /// snapshot or the seed or filter differs from the snapshot.
    fn try_warm<G: GameRef>(
        &mut self,
        game: &G,
        initial: &Profile,
        filter: Option<&StrategyFilter>,
    ) -> bool {
        let weights = game.weights();
        if !self.snap_valid
            || self.snap_choices != initial.choices
            || self.snap_filter.as_ref() != filter
            || self.snap_weights.len() != weights.len()
        {
            return false;
        }

        // The converged run left every allowed cache clean and every term
        // current for the snapshotted loads and weights.
        self.moves.clear();
        for r in 0..self.snap_weights.len() {
            if weights.get(r).to_bits() != self.snap_weights[r]
                || initial.loads[r].to_bits() != self.snap_loads[r]
            {
                self.sweep(game, initial, r, self.layout.by_resource.range(r));
            }
        }
        true
    }

    /// Whether every strategy of `structure` reads the resources and weights
    /// the layout was built from, over as many resources. New weights may
    /// regroup the terms.
    fn layout_matches(&self, structure: &GameStructure) -> bool {
        let n = structure.num_players();
        let layout = &self.layout;
        if self.offsets.len() != n + 1
            || layout.by_resource.start.len() != structure.num_resources() + 1
        {
            return false;
        }
        let mut pos = 0;
        for i in 0..n {
            let strategies = structure.strategies(i);
            if self.offsets[i + 1] - self.offsets[i] != strategies.len() {
                return false;
            }
            for (s, strategy) in strategies.iter().enumerate() {
                let e = self.offsets[i] + s;
                if layout.entry_pos[e] as usize != pos
                    || layout.entry_pos[e + 1] as usize - pos != strategy.len()
                {
                    return false;
                }
                for &(r, w) in strategy {
                    let t = layout.pos_term[pos] as usize;
                    if r >= structure.num_resources()
                        || !layout.by_resource.range(r).contains(&t)
                        || layout.weight[t].to_bits() != w.to_bits()
                    {
                        return false;
                    }
                    pos += 1;
                }
            }
        }
        pos == layout.pos_term.len()
    }

    /// Records the converged profile plus the weight/load bit patterns and
    /// the filter its caches were computed against, enabling
    /// [`CgbaScratch::try_warm`] on the next call.
    fn store_snapshot<G: GameRef>(
        &mut self,
        game: &G,
        profile: &Profile,
        filter: Option<&StrategyFilter>,
    ) {
        let weights = game.weights();
        self.snap_choices.clear();
        self.snap_choices.extend_from_slice(&profile.choices);
        self.snap_loads.clear();
        self.snap_loads.extend(profile.loads.iter().map(|l| l.to_bits()));
        self.snap_weights.clear();
        self.snap_weights.extend(weights.as_slice().iter().map(|w| w.to_bits()));
        match (filter, &mut self.snap_filter) {
            (Some(f), Some(snap)) => snap.clone_from(f),
            (Some(f), snap) => *snap = Some(f.clone()),
            (None, snap) => *snap = None,
        }
        self.snap_valid = true;
    }

    /// The `(player, strategy)` moves of the most recent run, in order —
    /// lets equivalence tests compare the incremental scheduler's decisions
    /// against a naive-rescan trace, not just the final profile.
    pub fn moves(&self) -> &[(usize, usize)] {
        &self.moves
    }

    /// Monotonic count of cost evaluations performed by every solve that
    /// used this scratch: one per player's current cost and one per
    /// strategy cost evaluated in a best-response scan. A dirty player
    /// refreshes every one of its groups, and a group whose cached minimum
    /// is tie-free costs one or two. Callers snapshot before/after a solve
    /// and emit the delta as the `cgba.probes` counter.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Recomputes the terms `run` of resource `r` at `profile`, in one
    /// pass. Each dirties its owner's current cost when the owner uses `r`,
    /// and when its value changed bit pattern, the owner's best response
    /// and the term's head set.
    fn sweep<G: GameRef>(&mut self, game: &G, profile: &Profile, r: usize, run: Range<usize>) {
        let (m, load) = (game.weights().get(r), profile.loads[r]);
        let layout = &mut self.layout;
        for t in run {
            let (w, own) = (layout.weight[t], layout.own[t]);
            let value = m * w * (load - own + w);
            let old = std::mem::replace(&mut layout.value[t], value);
            let i = layout.player[t] as usize;
            // Validated weights are positive, so a zero share means unused.
            self.cur_dirty[i] |= own != 0.0;
            if value.to_bits() != old.to_bits() {
                self.player_dirty[i] = true;
                layout.update_head(t, old, value);
            }
        }
    }

    /// Refolds player `i`'s groups and caches its best allowed response:
    /// the first group, in strategy order, with the smallest cost — the
    /// strict-`<` rescan's pick.
    fn refresh_player(&mut self, profile: &Profile, i: usize, allowed: &[bool]) {
        let mut best = (profile.choices[i], f64::INFINITY);
        let groups =
            self.layout.player_groups[i] as usize..self.layout.player_groups[i + 1] as usize;
        for g in groups {
            let (s, cost, probes) = self.layout.group_best(g, self.offsets[i], allowed);
            self.probes += probes;
            if cost < best.1 {
                best = (s, cost);
            }
        }
        self.best_s[i] = best.0;
        self.best_cost[i] = best.1;
        self.player_dirty[i] = false;
    }

    /// Performs player `i`'s move to strategy `s` (via [`Profile::switch`])
    /// and recomputes every term the move can change.
    ///
    /// A non-mover's term depends only on the *value* of its resource's load
    /// (and its own unchanged choice), so only resources whose load actually
    /// changed bit pattern are swept whole; on the mover's other touched
    /// resources only its own terms, whose `own` share may have moved, are
    /// recomputed (its terms elsewhere keep a zero share and an unchanged
    /// load). When the old and new strategy share a resource with the
    /// same weight (e.g. a server switch that keeps the base station), the
    /// `-w` then `+w` round-trip usually restores the load bits exactly, so
    /// the loads are snapshotted before the switch and compared after.
    fn apply_move<G: GameRef>(&mut self, game: &G, profile: &mut Profile, i: usize, s: usize) {
        let strategies = game.structure().strategies(i);
        self.touched.clear();
        for strat in [profile.choices[i], s] {
            for &(r, _) in &strategies[strat] {
                if !self.touched.iter().any(|&(tr, _)| tr == r) {
                    self.touched.push((r, profile.loads[r].to_bits()));
                }
            }
        }
        profile.switch(game, i, s);
        // The mover's cost and best response follow its choice.
        self.player_dirty[i] = true;
        self.cur_dirty[i] = true;
        for idx in 0..self.touched.len() {
            let (r, before) = self.touched[idx];
            let own = strategies[s].iter().find(|&&(nr, _)| nr == r).map_or(0.0, |&(_, w)| w);
            let mine = self.layout.player_run(r, i);
            self.layout.own[mine.clone()].fill(own);
            let run = if profile.loads[r].to_bits() != before {
                self.layout.by_resource.range(r)
            } else {
                mine
            };
            self.sweep(game, profile, r, run);
        }
    }
}

/// Runs CGBA(λ) (paper Algorithm 3) from a uniformly random initial profile.
///
/// # Panics
///
/// Panics if the game has no players or `λ ∉ [0, 1)`. Validity of the game
/// is a construction-time concern ([`GameStructure::new`],
/// [`crate::ResourceWeights::new`]) and only debug-asserted here.
pub fn cgba<G: GameRef>(game: &G, config: &CgbaConfig, rng: &mut Pcg32) -> CgbaReport {
    let initial = Profile::random(game, rng);
    cgba_from(game, initial, config)
}

/// Runs CGBA(λ) from a caller-supplied initial profile (used for
/// deterministic ablations and warm starts).
///
/// # Panics
///
/// Same conditions as [`cgba`].
pub fn cgba_from<G: GameRef>(game: &G, initial: Profile, config: &CgbaConfig) -> CgbaReport {
    cgba_from_with_scratch(game, initial, config, &mut CgbaScratch::default())
}

/// Runs CGBA(λ) reusing caller-owned [`CgbaScratch`] — the allocation-free
/// steady-state entry point: [`cgba_kernel`] cold, unfiltered and never
/// stopped. Produces bit-identical results to [`cgba_from_reference`] for
/// any game, initial profile, and config.
///
/// # Panics
///
/// Same conditions as [`cgba`].
pub fn cgba_from_with_scratch<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    scratch: &mut CgbaScratch,
) -> CgbaReport {
    check_preconditions(game, config);
    debug_assert!(
        validate_parts(game.structure(), game.weights()).is_ok(),
        "game must validate before solving"
    );
    scratch.prepare(game.structure(), false);
    run_kernel(game, initial, config, None, false, || false, scratch)
}

/// Runs CGBA(λ) from a caller-supplied profile with the warm
/// first-iteration fast path: [`cgba_kernel`] warm, unfiltered and never
/// stopped. When `initial` equals the profile the previous converged run
/// on this scratch ended on, only the terms on resources whose weight or
/// load changed bit pattern since then are recomputed, and only the
/// players owning a changed term refresh their best responses (the
/// scratch's `try_warm` step); everything else is reused. Falls back to a
/// full scratch reset whenever the snapshot does not apply, so the result
/// is *always* bit-identical to [`cgba_from_reference`] for the same game,
/// initial profile, and config — warm starts change how fast the mover
/// sequence is found, never which moves are made.
///
/// Only the MaxGain scheduler has an incremental cache to warm; RoundRobin
/// degrades to the cold path.
///
/// # Panics
///
/// Same conditions as [`cgba`].
pub fn cgba_warm_from_with_scratch<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    scratch: &mut CgbaScratch,
) -> CgbaReport {
    check_preconditions(game, config);
    debug_assert!(
        validate_parts(game.structure(), game.weights()).is_ok(),
        "game must validate before solving"
    );
    scratch.prepare(game.structure(), false);
    run_kernel(game, initial, config, None, true, || false, scratch)
}

/// The CGBA kernel every solve path runs, with the fault-tolerance hooks:
/// a [`StrategyFilter`] restricting each player's best-response scan to
/// allowed strategies, and a `should_stop` predicate polled once per
/// iteration before the mover scan (the anytime-deadline hook — returning
/// `true` breaks out with `converged == false` and the best-so-far
/// profile). `warm` tries the snapshot fast path of
/// [`cgba_warm_from_with_scratch`]; the snapshot is keyed on the filter as
/// well as the profile and weights. Every converged MaxGain run leaves a
/// snapshot behind, so a cold solve can seed warm ones.
///
/// The game is validated on every call: the resource weights each time,
/// the strategies only when the scratch's layout does not already describe
/// a validated structure with the same bits. The run is bit-identical
/// to the naive filtered rescan from the same initial profile: same scan
/// order, same float expressions, same mover selection (property-tested
/// in `tests/filtered_incremental.rs`). Players the filter leaves with
/// *no* allowed strategy never move; callers must seed `initial` with
/// those players already on a deliberate (best-effort) strategy.
///
/// # Panics
///
/// Panics if the game has no players, `λ ∉ [0, 1)`, the game fails
/// validation, or `filter` covers a different number of strategies than
/// the game.
pub fn cgba_kernel<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
    warm: bool,
    should_stop: impl FnMut() -> bool,
    scratch: &mut CgbaScratch,
) -> CgbaReport {
    check_preconditions(game, config);
    game.weights().validate().expect("game must validate before solving");
    scratch.prepare(game.structure(), true);
    run_kernel(game, initial, config, filter, warm, should_stop, scratch)
}

fn check_preconditions<G: GameRef>(game: &G, config: &CgbaConfig) {
    assert!(game.structure().num_players() > 0, "game has no players");
    assert!((0.0..1.0).contains(&config.lambda), "lambda must be in [0, 1)");
}

fn run_kernel<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
    warm: bool,
    should_stop: impl FnMut() -> bool,
    scratch: &mut CgbaScratch,
) -> CgbaReport {
    // An all-allowing filter changes nothing: run (and snapshot) it as
    // unfiltered.
    let filter = filter.filter(|f| !f.all_allowed());
    match config.scheduling {
        SchedulingRule::MaxGain => {
            if !(warm && scratch.try_warm(game, &initial, filter)) {
                scratch.reset(game, &initial);
            }
            let report = cgba_max_gain(game, initial, config, filter, should_stop, scratch);
            // Only a converged run leaves every allowed cache clean (the
            // final no-mover scan refreshed them all); a capped or stopped
            // exit leaves dirty caches behind and cannot seed the fast path.
            if report.converged {
                scratch.store_snapshot(game, &report.profile, filter);
            } else {
                scratch.snap_valid = false;
            }
            report
        }
        SchedulingRule::RoundRobin => {
            scratch.moves.clear();
            scratch.snap_valid = false;
            cgba_round_robin(game, initial, config, filter, should_stop, scratch)
        }
    }
}

/// Incremental MaxGain loop: refresh dirty caches, pick the max-gap
/// mover from the caches, dirty only what the move invalidates.
fn cgba_max_gain<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
    mut should_stop: impl FnMut() -> bool,
    scratch: &mut CgbaScratch,
) -> CgbaReport {
    let mut profile = initial;
    let initial_cost = profile.total_cost(game);
    let mut iterations = 0;
    let mut converged = false;
    let n = game.structure().num_players();
    let allowed: &[bool] = filter.map_or(&[], StrategyFilter::allowed_flat);
    assert!(
        allowed.is_empty() || Some(&allowed.len()) == scratch.offsets.last(),
        "filter was built for a different game structure"
    );

    while iterations < config.max_iterations {
        if should_stop() {
            break;
        }
        let mut mover: Option<(usize, usize)> = None; // (player, strategy)
        let mut best_gap = 0.0;
        for i in 0..n {
            if scratch.cur_dirty[i] {
                scratch.cur_cost[i] = profile.player_cost(game, i);
                scratch.cur_dirty[i] = false;
                scratch.probes += 1;
            }
            if scratch.player_dirty[i] {
                scratch.refresh_player(&profile, i, allowed);
            }
            // A player with no allowed strategy keeps `best_cost = ∞` and
            // can never pass the move test.
            let cost = scratch.cur_cost[i];
            let br = scratch.best_cost[i];
            if (1.0 - config.lambda) * cost > br {
                let gap = cost - br;
                if gap > best_gap {
                    best_gap = gap;
                    mover = Some((i, scratch.best_s[i]));
                }
            }
        }
        #[cfg(any(test, feature = "naive-check"))]
        assert_eq!(
            mover,
            naive_max_gain_mover(game, &profile, config, filter),
            "incremental MaxGain diverged from naive rescan at iteration {iterations}"
        );
        match mover {
            Some((i, s)) => {
                scratch.apply_move(game, &mut profile, i, s);
                scratch.moves.push((i, s));
                iterations += 1;
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    let total_cost = profile.total_cost(game);
    CgbaReport { profile, total_cost, initial_cost, iterations, converged }
}

/// RoundRobin is an ablation baseline, not a hot path: keep the naive scan.
fn cgba_round_robin<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
    mut should_stop: impl FnMut() -> bool,
    scratch: &mut CgbaScratch,
) -> CgbaReport {
    let mut profile = initial;
    let initial_cost = profile.total_cost(game);
    let mut iterations = 0;
    let mut converged = false;
    let mut rr_cursor = 0usize;
    let n = game.structure().num_players();

    while iterations < config.max_iterations {
        if should_stop() {
            break;
        }
        let mut mover: Option<(usize, usize)> = None;
        for step in 0..n {
            let i = (rr_cursor + step) % n;
            let cost = profile.player_cost(game, i);
            let response = match filter {
                Some(f) => {
                    scratch.probes += 1 + f.allowed_count(i) as u64;
                    profile.best_response_filtered(game, i, f)
                }
                None => {
                    scratch.probes += 1 + game.structure().strategies(i).len() as u64;
                    Some(profile.best_response(game, i))
                }
            };
            let Some((s, br)) = response else {
                continue;
            };
            if (1.0 - config.lambda) * cost > br {
                mover = Some((i, s));
                rr_cursor = (i + 1) % n;
                break;
            }
        }
        match mover {
            Some((i, s)) => {
                profile.switch(game, i, s);
                scratch.moves.push((i, s));
                iterations += 1;
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    let total_cost = profile.total_cost(game);
    CgbaReport { profile, total_cost, initial_cost, iterations, converged }
}

/// One step of the pre-refactor MaxGain selection: full rescan of every
/// player's cost and (filtered) best response. The incremental loop
/// asserts against this each iteration under `cfg(test)` / the
/// `naive-check` feature.
#[cfg(any(test, feature = "naive-check"))]
fn naive_max_gain_mover<G: GameRef>(
    game: &G,
    profile: &Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
) -> Option<(usize, usize)> {
    let mut mover: Option<(usize, usize)> = None;
    let mut best_gap = 0.0;
    for i in 0..game.structure().num_players() {
        let cost = profile.player_cost(game, i);
        let response = match filter {
            Some(f) => profile.best_response_filtered(game, i, f),
            None => Some(profile.best_response(game, i)),
        };
        let Some((s, br)) = response else {
            continue;
        };
        if (1.0 - config.lambda) * cost > br {
            let gap = cost - br;
            if gap > best_gap {
                best_gap = gap;
                mover = Some((i, s));
            }
        }
    }
    mover
}

/// Runs the pre-refactor CGBA(λ) loop from a random initial profile — the
/// equivalence oracle and benchmark baseline. See [`cgba_from_reference`].
///
/// # Panics
///
/// Panics if the game has no players, `λ ∉ [0, 1)`, or the game fails
/// validation.
pub fn cgba_reference<G: GameRef>(game: &G, config: &CgbaConfig, rng: &mut Pcg32) -> CgbaReport {
    let initial = Profile::random(game, rng);
    cgba_from_reference(game, initial, config)
}

/// The pre-refactor `cgba_from` body, verbatim: full validation on entry
/// and a naive O(I·S) rescan per move. Kept as the oracle the incremental
/// path is tested (and benchmarked) against; not used on any hot path.
///
/// # Panics
///
/// Same conditions as [`cgba_reference`].
pub fn cgba_from_reference<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
) -> CgbaReport {
    let n = game.structure().num_players();
    assert!(n > 0, "game has no players");
    assert!((0.0..1.0).contains(&config.lambda), "lambda must be in [0, 1)");
    validate_parts(game.structure(), game.weights()).expect("game must validate before solving");

    let mut profile = initial;
    let initial_cost = profile.total_cost(game);
    let mut iterations = 0;
    let mut converged = false;
    let mut rr_cursor = 0usize;

    while iterations < config.max_iterations {
        // Find the mover per the scheduling rule.
        let mut mover: Option<(usize, usize)> = None; // (player, strategy)
        match config.scheduling {
            SchedulingRule::MaxGain => {
                let mut best_gap = 0.0;
                for i in 0..n {
                    let cost = profile.player_cost(game, i);
                    let (s, br) = profile.best_response(game, i);
                    if (1.0 - config.lambda) * cost > br {
                        let gap = cost - br;
                        if gap > best_gap {
                            best_gap = gap;
                            mover = Some((i, s));
                        }
                    }
                }
            }
            SchedulingRule::RoundRobin => {
                for step in 0..n {
                    let i = (rr_cursor + step) % n;
                    let cost = profile.player_cost(game, i);
                    let (s, br) = profile.best_response(game, i);
                    if (1.0 - config.lambda) * cost > br {
                        mover = Some((i, s));
                        rr_cursor = (i + 1) % n;
                        break;
                    }
                }
            }
        }
        match mover {
            Some((i, s)) => {
                profile.switch(game, i, s);
                iterations += 1;
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    let total_cost = profile.total_cost(game);
    CgbaReport { profile, total_cost, initial_cost, iterations, converged }
}

/// The naive filtered rescan: the [`cgba_from_reference`] loop with
/// [`cgba_kernel`]'s two fault-tolerance hooks, a [`StrategyFilter`]
/// restricting each player's best-response scan to allowed strategies and
/// a `should_stop` predicate polled once per iteration. Kept only as the
/// oracle [`cgba_kernel`] is tested against; no solve path runs it.
///
/// With an all-allowing filter and a never-stopping predicate this is
/// bit-identical to [`cgba_from_reference`] from the same initial profile:
/// same scan order, same float expressions, same mover selection
/// (property-tested in `tests/masking.rs`).
///
/// # Panics
///
/// Same conditions as [`cgba_reference`].
#[cfg(any(test, feature = "reference-oracle"))]
pub fn cgba_from_filtered<G: GameRef>(
    game: &G,
    initial: Profile,
    config: &CgbaConfig,
    filter: &StrategyFilter,
    mut should_stop: impl FnMut() -> bool,
) -> CgbaReport {
    let n = game.structure().num_players();
    assert!(n > 0, "game has no players");
    assert!((0.0..1.0).contains(&config.lambda), "lambda must be in [0, 1)");
    validate_parts(game.structure(), game.weights()).expect("game must validate before solving");

    let mut profile = initial;
    let initial_cost = profile.total_cost(game);
    let mut iterations = 0;
    let mut converged = false;
    let mut rr_cursor = 0usize;

    while iterations < config.max_iterations {
        if should_stop() {
            break;
        }
        let mut mover: Option<(usize, usize)> = None; // (player, strategy)
        match config.scheduling {
            SchedulingRule::MaxGain => {
                let mut best_gap = 0.0;
                for i in 0..n {
                    let cost = profile.player_cost(game, i);
                    let Some((s, br)) = profile.best_response_filtered(game, i, filter) else {
                        continue;
                    };
                    if (1.0 - config.lambda) * cost > br {
                        let gap = cost - br;
                        if gap > best_gap {
                            best_gap = gap;
                            mover = Some((i, s));
                        }
                    }
                }
            }
            SchedulingRule::RoundRobin => {
                for step in 0..n {
                    let i = (rr_cursor + step) % n;
                    let cost = profile.player_cost(game, i);
                    let Some((s, br)) = profile.best_response_filtered(game, i, filter) else {
                        continue;
                    };
                    if (1.0 - config.lambda) * cost > br {
                        mover = Some((i, s));
                        rr_cursor = (i + 1) % n;
                        break;
                    }
                }
            }
        }
        match mover {
            Some((i, s)) => {
                profile.switch(game, i, s);
                iterations += 1;
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    let total_cost = profile.total_cost(game);
    CgbaReport { profile, total_cost, initial_cost, iterations, converged }
}

/// Exhaustively computes the social optimum of a *small* game.
///
/// Returns the optimal choices and cost. The profile space must not exceed
/// `max_profiles` (guard against accidental exponential blowups).
///
/// # Errors
///
/// Returns the actual profile-space size when it exceeds `max_profiles`.
///
/// # Examples
///
/// ```
/// use eotora_game::{brute_force_optimum, CongestionGame};
///
/// let mut g = CongestionGame::new(vec![1.0, 1.0]);
/// g.add_player(vec![vec![(0, 1.0)], vec![(1, 1.0)]]);
/// g.add_player(vec![vec![(0, 1.0)], vec![(1, 1.0)]]);
/// let (choices, cost) = brute_force_optimum(&g, 1_000_000).unwrap();
/// assert_eq!(cost, 2.0); // spread across the two resources
/// assert_ne!(choices[0], choices[1]);
/// ```
pub fn brute_force_optimum<G: GameRef>(
    game: &G,
    max_profiles: u128,
) -> Result<(Vec<usize>, f64), u128> {
    let structure = game.structure();
    let mut space: u128 = 1;
    for i in 0..structure.num_players() {
        space = space.saturating_mul(structure.strategies(i).len() as u128);
        if space > max_profiles {
            return Err(space);
        }
    }
    let n = structure.num_players();
    let mut choices = vec![0usize; n];
    let mut best_choices = choices.clone();
    let mut best = f64::INFINITY;
    loop {
        let cost = Profile::from_choices(game, choices.clone()).total_cost(game);
        if cost < best {
            best = cost;
            best_choices = choices.clone();
        }
        // Odometer increment over the mixed-radix strategy space.
        let mut i = 0;
        loop {
            if i == n {
                return Ok((best_choices, best));
            }
            choices[i] += 1;
            if choices[i] < structure.strategies(i).len() {
                break;
            }
            choices[i] = 0;
            i += 1;
        }
    }
}

/// Empirical price-of-anarchy scan: runs CGBA(0) from `samples` random
/// starts and compares the worst equilibrium found against the brute-force
/// optimum. For weighted congestion games with affine costs the true PoA is
/// at most 2.62 (the constant in the paper's Theorem 2).
///
/// # Errors
///
/// Propagates [`brute_force_optimum`]'s size guard.
pub fn empirical_price_of_anarchy<G: GameRef>(
    game: &G,
    samples: usize,
    max_profiles: u128,
    rng: &mut Pcg32,
) -> Result<f64, u128> {
    let (_, opt) = brute_force_optimum(game, max_profiles)?;
    let mut worst: f64 = 1.0;
    for _ in 0..samples {
        let report = cgba(game, &CgbaConfig::default(), rng);
        if opt > 0.0 {
            worst = worst.max(report.total_cost / opt);
        }
    }
    Ok(worst)
}
