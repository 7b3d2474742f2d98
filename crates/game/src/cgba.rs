//! CGBA(λ) best-response dynamics (paper Algorithm 3) with an incremental
//! MaxGain scheduler.
//!
//! The naive MaxGain loop rescans every `(player, strategy)` cost each
//! iteration — O(I·S) work per move. [`CgbaScratch`] instead keeps every
//! cost *term* `m_r·p_{i,r}·(p_r − own_i(r) + p_{i,r})` current, one per
//! (player, resource, weight) key, and caches best responses over *groups*
//! of strategies. A move changes only the loads of the mover's old and new
//! resources, so it recomputes the terms on those resources whose load
//! changed bit pattern (plus the mover's own terms, whose `own` share
//! moved), each once, and dirties only the groups that read a term whose
//! value changed.
//!
//! **Groups and head sets.** A strategy's cost is `((0 + t₀) + t₁) + …`
//! over its terms in strategy order, the additions
//! [`Profile::strategy_cost`] makes. A *group* is a run of one player's
//! consecutive strategies whose terms agree at every position but the
//! first, the *head*; in the P2-A game one base station's servers form a
//! group, sharing the station's access and fronthaul terms. A *head set*
//! is a player's groups with identical head-term sequences (in P2-A, the
//! stations linked to one server cluster), and caches its minimum head
//! `h₁`, the first position holding it, and its second-smallest distinct
//! head `h₂`.
//!
//! **Why the result is bit-identical.** Rounded float addition is monotone
//! (`a ≤ b ⇒ a ⊕ c ≤ b ⊕ c`), so within a group the cost is a
//! non-decreasing function `f` of the head, and the group minimum is
//! `f(h₁)`. Every head other than `h₁` is at least `h₂`, so when
//! `f(h₂) > f(h₁)` only the positions holding `h₁` attain the minimum and
//! the strict-`<` rescan picks the first of them; the group takes it
//! without evaluating the rest. When rounding ties `f(h₂)` to `f(h₁)` the
//! group rescans its members in order, as does any group the filter partly
//! disallows. NaN heads compare false and are never picked, in either
//! form. The player's best response is the first group, in strategy order,
//! with the smallest cost — the rescan's pick again. Hence movers, costs and
//! every float match [`cgba_from_reference`] exactly (asserted
//! per-iteration under `cfg(test)` or the `naive-check` feature, and
//! property-tested in `tests/incremental.rs`,
//! `tests/filtered_incremental.rs` and `tests/grouped_ties.rs`).
//!
//! [`cgba_kernel`] is the one MaxGain loop every solve path runs: plain
//! cold restarts ([`cgba_from_with_scratch`]), warm starts
//! ([`cgba_warm_from_with_scratch`]) and the fault-tolerant path, which adds
//! a [`StrategyFilter`] and an anytime `should_stop` predicate.
//! [`cgba_from_reference`] keeps the pre-refactor rescan loop verbatim as
//! the equivalence oracle and benchmark baseline.

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

/// Marks "no head set": a group of one empty strategy, which has no head.
const NO_HEAD: u32 = u32::MAX;

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

    fn get(&self, k: usize) -> &[u32] {
        &self.items[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

/// A shared cost term: one per (player, resource, weight bits) key.
#[derive(Debug, Clone, Copy)]
struct Term {
    player: u32,
    resource: u32,
    /// The weight `p_{i,r}`.
    weight: f64,
    /// The player's own share `own_i(r)` of the resource: the weight its
    /// current strategy puts there, or 0.
    own: f64,
}

/// A run of one player's consecutive strategies whose terms agree at every
/// position but the first, with its cached best response.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// The group's entries.
    first: u32,
    end: u32,
    /// The positions of the shared suffix terms in the first strategy.
    suffix: (u32, u32),
    /// The group's head set, or [`NO_HEAD`].
    head: u32,
    /// Cached best allowed strategy (an index among the player's
    /// strategies) and its cost, `∞` when no allowed strategy costs less.
    best: u32,
    cost: f64,
    /// Whether the cached best came from the head set's cache alone, so
    /// it stays valid while that cache does.
    fast: bool,
    dirty: bool,
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

/// The grouped layout of one game structure: the shared cost terms, the
/// strategy groups and head sets the best responses are cached over (see
/// the module docs), and the indices a changed term dirties them through.
///
/// Term values are kept current eagerly — every term on a resource whose
/// load or weight changed bit pattern is recomputed once — while group and
/// head-set caches are refreshed lazily behind dirty flags. The term keys
/// double as the warm snapshot of every strategy weight.
#[derive(Debug, Clone, Default)]
struct Layout {
    /// `entry_pos[e]..entry_pos[e + 1]` are entry `e`'s positions — one per
    /// resource of its strategy, in strategy order.
    entry_pos: Vec<u32>,
    /// The term each position reads.
    pos_term: Vec<u32>,
    terms: Vec<Term>,
    /// Each term's value `m_r·p_{i,r}·(p_r − own_i(r) + p_{i,r})` at the
    /// current profile.
    value: Vec<f64>,
    /// `player_terms[i]..player_terms[i + 1]` are player `i`'s terms.
    player_terms: Vec<u32>,
    /// `player_groups[i]..player_groups[i + 1]` are player `i`'s groups.
    player_groups: Vec<u32>,
    groups: Vec<Group>,
    heads: Vec<HeadSet>,
    /// Each head set's head terms, in strategy order within a group.
    head_terms: Csr,
    /// Each head set's groups.
    head_groups: Csr,
    /// The terms on each resource.
    resource_terms: Csr,
    /// The head sets each term heads.
    term_heads: Csr,
    /// The groups whose suffix reads each term.
    term_groups: Csr,
    /// Build-time helpers: the last `(player, term)` created per resource,
    /// and the last head set created per first head term.
    last: Vec<(u32, u32)>,
    head_by_first: Vec<u32>,
}

/// `u32` indices halve the layout; every conversion is checked.
fn index(x: usize) -> u32 {
    u32::try_from(x).expect("layout index fits in u32")
}

impl Layout {
    /// Derives the terms, groups, head sets and indices from `structure`'s
    /// current weights and marks every cache dirty. Term values are left
    /// for [`Layout::refresh_all`].
    fn build(&mut self, structure: &GameStructure) {
        let n = structure.num_players();
        let num_resources = structure.num_resources();
        self.entry_pos.clear();
        self.entry_pos.push(0);
        self.pos_term.clear();
        self.terms.clear();
        self.player_terms.clear();
        self.player_groups.clear();
        self.groups.clear();
        self.last.clear();
        self.last.resize(num_resources, (NO_HEAD, 0));
        let mut entry = 0;
        for i in 0..n {
            let player = index(i);
            self.player_terms.push(index(self.terms.len()));
            self.player_groups.push(index(self.groups.len()));
            for (s, strategy) in structure.strategies(i).iter().enumerate() {
                let first = self.pos_term.len();
                for &(r, w) in strategy {
                    let (owner, t) = self.last[r];
                    // Equal weights on one resource share a term. Only the
                    // player's latest term on `r` is checked, which finds
                    // every share in the P2-A layout; a miss only costs a
                    // duplicate term, never a wrong value.
                    let t = if owner == player
                        && self.terms[t as usize].weight.to_bits() == w.to_bits()
                    {
                        t
                    } else {
                        let t = index(self.terms.len());
                        self.terms.push(Term { player, resource: index(r), weight: w, own: 0.0 });
                        self.last[r] = (player, t);
                        t
                    };
                    self.pos_term.push(t);
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
                        best: 0,
                        cost: 0.0,
                        fast: false,
                        dirty: true,
                    }),
                }
                entry += 1;
            }
        }
        let terms = self.terms.len();
        self.player_terms.push(index(terms));
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

        self.resource_terms.build(num_resources, || {
            self.terms.iter().enumerate().map(|(t, term)| (term.resource, index(t)))
        });
        self.term_heads.build(terms, || {
            (0..heads).flat_map(|h| self.head_terms.get(h).iter().map(move |&t| (t, index(h))))
        });
        self.term_groups.build(terms, || {
            self.groups.iter().enumerate().flat_map(|(g, group)| {
                let suffix = &self.pos_term[group.suffix.0 as usize..group.suffix.1 as usize];
                suffix.iter().map(move |&t| (t, index(g)))
            })
        });
        self.head_groups.build(heads, || {
            self.groups
                .iter()
                .enumerate()
                .filter(|(_, group)| group.head != NO_HEAD)
                .map(|(g, group)| (group.head, index(g)))
        });
        self.value.clear();
        self.value.resize(terms, 0.0);
    }

    /// Marks every group and head-set cache dirty.
    fn dirty_all(&mut self) {
        for group in &mut self.groups {
            group.dirty = true;
        }
        for head in &mut self.heads {
            head.dirty = true;
        }
    }

    /// Re-reads player `i`'s own share of every resource its terms are on
    /// from its current strategy.
    fn refresh_own<G: GameRef>(&mut self, game: &G, profile: &Profile, i: usize) {
        let current = &game.structure().strategies(i)[profile.choices[i]];
        for term in
            &mut self.terms[self.player_terms[i] as usize..self.player_terms[i + 1] as usize]
        {
            let r = term.resource as usize;
            term.own = current.iter().find(|&&(cr, _)| cr == r).map(|&(_, cw)| cw).unwrap_or(0.0);
        }
    }

    /// Recomputes term `t` at `profile` — the addend
    /// [`Profile::strategy_cost`] adds for it, by the same expression.
    /// Returns the previous value when the value changed bit pattern.
    fn refresh_term<G: GameRef>(&mut self, game: &G, profile: &Profile, t: usize) -> Option<f64> {
        let Term { resource, weight: w, own, .. } = self.terms[t];
        let r = resource as usize;
        let value = game.weights().get(r) * w * (profile.loads[r] - own + w);
        let old = std::mem::replace(&mut self.value[t], value);
        (value.to_bits() != old.to_bits()).then_some(old)
    }

    /// Computes every own share and term value at `profile`.
    fn refresh_all<G: GameRef>(&mut self, game: &G, profile: &Profile) {
        for i in 0..self.player_terms.len() - 1 {
            self.refresh_own(game, profile, i);
        }
        for t in 0..self.terms.len() {
            self.refresh_term(game, profile, t);
        }
    }

    /// Dirties what reads term `t` after its value changed from `old`;
    /// returns whether any group was dirtied.
    ///
    /// A head set's cache survives a head moving from above its second
    /// head to above it again; then only the groups that did not take
    /// their best from that cache (rounding ties, filtered groups) are
    /// dirtied.
    fn mark(&mut self, t: usize, old: f64) -> bool {
        let new = self.value[t];
        let mut dirtied = false;
        for &h in self.term_heads.get(t) {
            let head = &mut self.heads[h as usize];
            let cached = !head.dirty && old > head.second && new > head.second;
            head.dirty = !cached;
            for &g in self.head_groups.get(h as usize) {
                let group = &mut self.groups[g as usize];
                if !(cached && group.fast) {
                    group.dirty = true;
                    dirtied = true;
                }
            }
        }
        for &g in self.term_groups.get(t) {
            self.groups[g as usize].dirty = true;
            dirtied = true;
        }
        dirtied
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

    /// Re-derives group `g`'s best allowed strategy (an index among its
    /// player's strategies, whose entries start at `offset`) and its cost;
    /// returns the number of strategy costs evaluated.
    fn refresh_group(&mut self, g: usize, offset: usize, allowed: &[bool]) -> u64 {
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
                let best = index(entries.start + head.pos as usize - offset);
                self.groups[g] = Group { best, cost, fast: true, dirty: false, ..group };
                return probes;
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
        let best_index = index(best.0 - offset);
        self.groups[g] =
            Group { best: best_index, cost: best.1, fast: false, dirty: false, ..group };
        probes
    }
}

/// Reusable state for the incremental MaxGain kernel: the grouped layout
/// with its term values and group caches, per-player current costs and best
/// responses behind dirty flags, and the warm snapshot. Owning one across
/// calls makes the steady-state solve allocation-free; a cold call
/// recomputes every term (rebuilding the layout when a strategy changed)
/// and marks everything dirty at its start, so weight updates between calls
/// need no bookkeeping.
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
    /// are snapshotted by the term keys.
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
    /// Sizes the caches for `game`, rebuilds the layout unless every
    /// strategy still matches it, computes the term values at `profile` and
    /// marks every cache dirty.
    fn reset<G: GameRef>(&mut self, game: &G, profile: &Profile) {
        let structure = game.structure();
        let n = structure.num_players();
        // Between BDMA rounds only resource weights change, and the layout
        // depends on the strategies alone.
        if self.layout_matches(structure) {
            self.layout.dirty_all();
        } else {
            self.offsets.clear();
            self.offsets.push(0);
            let mut total = 0;
            for i in 0..n {
                total += structure.strategies(i).len();
                self.offsets.push(total);
            }
            self.layout.build(structure);
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
        self.layout.refresh_all(game, profile);
        // A cold start means the caches will be rebuilt for an arbitrary
        // profile; any retained warm snapshot no longer describes them.
        self.snap_valid = false;
    }

    /// Attempts the warm first-iteration fast path: when `initial` is
    /// exactly the profile the last converged run ended on, `filter` is the
    /// filter it ran under and every strategy weight is unchanged, the
    /// caches in this scratch are still *valid* except where a resource
    /// weight or load changed bit pattern — the cost expressions are
    /// deterministic, so a rescan would reproduce every other cached float
    /// exactly. Recomputes the terms on those resources, dirties what reads
    /// a changed term, and returns `true`.
    ///
    /// Returns `false` (caller must [`CgbaScratch::reset`]) when there is no
    /// snapshot, the seed, filter or a strategy weight differs from the
    /// snapshot, or the game structure drifted.
    fn try_warm<G: GameRef>(
        &mut self,
        game: &G,
        initial: &Profile,
        filter: Option<&StrategyFilter>,
    ) -> bool {
        if !self.snap_valid {
            return false;
        }
        let weights = game.weights();
        if self.snap_choices != initial.choices
            || self.snap_filter.as_ref() != filter
            || self.snap_weights.len() != weights.len()
            || !self.layout_matches(game.structure())
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
                self.refresh_resource(game, initial, r);
            }
        }
        true
    }

    /// Whether every strategy of `structure` reads the resources and weights
    /// the layout was built from. New weights may regroup the terms.
    fn layout_matches(&self, structure: &GameStructure) -> bool {
        let n = structure.num_players();
        if self.offsets.len() != n + 1 {
            return false;
        }
        let layout = &self.layout;
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
                    let term = &layout.terms[layout.pos_term[pos] as usize];
                    if term.resource as usize != r || term.weight.to_bits() != w.to_bits() {
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
    /// strategy cost evaluated in a best-response scan (a group whose
    /// cached minimum is tie-free costs one or two). Callers snapshot
    /// before/after a solve and emit the delta as the `cgba.probes` counter.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Recomputes term `t`, dirtying its player's current cost when the
    /// player uses the term's resource and whatever reads the term when
    /// its value changed.
    fn refresh_term<G: GameRef>(&mut self, game: &G, profile: &Profile, t: usize) {
        let i = self.layout.terms[t].player as usize;
        // Validated weights are positive, so a zero share means unused.
        self.cur_dirty[i] |= self.layout.terms[t].own != 0.0;
        if let Some(old) = self.layout.refresh_term(game, profile, t) {
            self.player_dirty[i] |= self.layout.mark(t, old);
        }
    }

    /// [`CgbaScratch::refresh_term`] for every term on resource `r`.
    fn refresh_resource<G: GameRef>(&mut self, game: &G, profile: &Profile, r: usize) {
        let terms = &self.layout.resource_terms;
        for k in terms.start[r] as usize..terms.start[r + 1] as usize {
            let t = self.layout.resource_terms.items[k] as usize;
            self.refresh_term(game, profile, t);
        }
    }

    /// Refreshes player `i`'s dirty groups and caches its best allowed
    /// response: the first group, in strategy order, with the smallest
    /// cost — the strict-`<` rescan's pick.
    fn refresh_player(&mut self, profile: &Profile, i: usize, allowed: &[bool]) {
        let layout = &mut self.layout;
        let mut best = (profile.choices[i], f64::INFINITY);
        for g in layout.player_groups[i] as usize..layout.player_groups[i + 1] as usize {
            if layout.groups[g].dirty {
                self.probes += layout.refresh_group(g, self.offsets[i], allowed);
            }
            let group = &layout.groups[g];
            if group.cost < best.1 {
                best = (group.best as usize, group.cost);
            }
        }
        self.best_s[i] = best.0;
        self.best_cost[i] = best.1;
        self.player_dirty[i] = false;
    }

    /// Performs player `i`'s move to strategy `s` (via [`Profile::switch`])
    /// and recomputes every term the move can change, dirtying what reads
    /// a changed one.
    ///
    /// A non-mover's term depends only on the *value* of its resource's load
    /// (and its own unchanged choice), so only resources whose load actually
    /// changed bit pattern are refreshed. When the old and new strategy
    /// share a resource with the same weight (e.g. a server switch that
    /// keeps the base station), the `-w` then `+w` round-trip usually
    /// restores the load bits exactly, so the loads are snapshotted before
    /// the switch and compared after.
    fn apply_move<G: GameRef>(&mut self, game: &G, profile: &mut Profile, i: usize, s: usize) {
        let structure = game.structure();
        self.touched.clear();
        for strat in [profile.choices[i], s] {
            for &(r, _) in &structure.strategies(i)[strat] {
                if !self.touched.iter().any(|&(tr, _)| tr == r) {
                    self.touched.push((r, profile.loads[r].to_bits()));
                }
            }
        }
        profile.switch(game, i, s);
        // The mover's `own` share followed its choice, so all its terms may
        // change, as do its cost and best response.
        self.player_dirty[i] = true;
        self.cur_dirty[i] = true;
        self.layout.refresh_own(game, profile, i);
        for t in self.layout.player_terms[i] as usize..self.layout.player_terms[i + 1] as usize {
            self.refresh_term(game, profile, t);
        }
        for idx in 0..self.touched.len() {
            let (r, before) = self.touched[idx];
            if profile.loads[r].to_bits() != before {
                self.refresh_resource(game, profile, r);
            }
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
    run_kernel(game, initial, config, None, false, || false, scratch)
}

/// Runs CGBA(λ) from a caller-supplied profile with the warm
/// first-iteration fast path: [`cgba_kernel`] warm, unfiltered and never
/// stopped. When `initial` equals the profile the previous converged run
/// on this scratch ended on, only the terms on resources whose weight or
/// load changed bit pattern since then are recomputed, and only what reads
/// a changed term is rescanned (the scratch's `try_warm` step); everything
/// else is reused. Falls back to a full scratch reset whenever
/// the snapshot does not apply, so the result is *always* bit-identical to
/// [`cgba_from_reference`] for the same game, initial profile, and config —
/// warm starts change how fast the mover sequence is found, never which
/// moves are made.
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
/// The game is fully validated on every call. The run is bit-identical
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
    validate_parts(game.structure(), game.weights()).expect("game must validate before solving");
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
