//! CGBA(λ) best-response dynamics (paper Algorithm 3) with an incremental
//! MaxGain scheduler.
//!
//! The naive MaxGain loop rescans every `(player, strategy)` cost each
//! iteration — O(I·S) work per move. A best-response move only changes the
//! loads of the resources in the mover's old and new strategies, so only
//! entries whose strategy touches one of those resources (plus the mover's
//! own entries) can change value. [`CgbaScratch`] caches per-entry costs and
//! uses [`GameStructure::touching`] to mark exactly those entries dirty.
//!
//! A dirty entry is re-summed from cached cost *terms*
//! `m_r·p_{i,r}·(p_r − own + p_{i,r})`, one per (player, resource, weight)
//! key. Strategies of one player that put the same weight on the same
//! resource share the term — in the P2-A game every strategy through one
//! base station shares its access and fronthaul terms, and every strategy
//! onto one server shares its compute term — so a load change recomputes
//! each term once rather than once per strategy. Each entry still adds the
//! same addends in the same order as [`Profile::strategy_cost`], so the
//! mover sequence and every intermediate float are bit-identical to the
//! rescan (asserted per-iteration under `cfg(test)` or the `naive-check`
//! feature, and property-tested in `tests/incremental.rs` and
//! `tests/filtered_incremental.rs`).
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

/// Cached cost terms `m_r·p_{i,r}·(p_r − own_i(r) + p_{i,r})`, deduplicated
/// per player by `(resource, weight bits)`.
///
/// Validity is tracked with stamps rather than dirty flags: a term is
/// current when its stamp is at least the stamp of its resource (bumped
/// when the resource's load or weight changes bit pattern) and of its
/// player (bumped when the player moves, which shifts its `own` share).
/// The keys double as the warm snapshot of every strategy weight.
#[derive(Debug, Clone, Default)]
struct TermCache {
    /// `entry_pos[e]..entry_pos[e + 1]` are entry `e`'s positions — one per
    /// resource of its strategy, in strategy order.
    entry_pos: Vec<u32>,
    /// The term each position reads.
    pos_term: Vec<u32>,
    /// Key of each term: its resource and the bits of its weight `p_{i,r}`.
    resource: Vec<u32>,
    weight_bits: Vec<u64>,
    value: Vec<f64>,
    stamp: Vec<u64>,
    resource_stamp: Vec<u64>,
    player_stamp: Vec<u64>,
    clock: u64,
    /// Build-time helper: the last `(player, term)` created per resource.
    last: Vec<(u32, u32)>,
}

impl TermCache {
    /// Derives the term table from `structure`'s current weights and
    /// invalidates every term.
    fn build(&mut self, structure: &GameStructure) {
        let n = structure.num_players();
        let num_resources = structure.num_resources();
        self.entry_pos.clear();
        self.entry_pos.push(0);
        self.pos_term.clear();
        self.resource.clear();
        self.weight_bits.clear();
        self.last.clear();
        self.last.resize(num_resources, (u32::MAX, 0));
        // `u32` indices halve the table; every conversion is checked.
        let index = |x: usize| u32::try_from(x).expect("term table index fits in u32");
        for i in 0..n {
            let player = index(i);
            for strategy in structure.strategies(i) {
                for &(r, w) in strategy {
                    let bits = w.to_bits();
                    let (owner, t) = self.last[r];
                    // Equal weights on one resource share a term. Only the
                    // player's latest term on `r` is checked, which finds
                    // every share in the P2-A layout; a miss only costs a
                    // duplicate term, never a wrong value.
                    let t = if owner == player && self.weight_bits[t as usize] == bits {
                        t
                    } else {
                        let t = index(self.resource.len());
                        self.resource.push(index(r));
                        self.weight_bits.push(bits);
                        self.last[r] = (player, t);
                        t
                    };
                    self.pos_term.push(t);
                }
                self.entry_pos.push(index(self.pos_term.len()));
            }
        }
        let terms = self.resource.len();
        self.value.clear();
        self.value.resize(terms, 0.0);
        self.stamp.clear();
        self.stamp.resize(terms, 0);
        self.resource_stamp.clear();
        self.resource_stamp.resize(num_resources, 1);
        self.player_stamp.clear();
        self.player_stamp.resize(n, 1);
        self.clock = 1;
    }

    /// Starts a new invalidation epoch; stamp resources and players with
    /// the returned clock to invalidate their terms.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// Reusable state for the incremental MaxGain kernel: cached
/// `(player, strategy)` costs in a flat arena plus dirty flags, the shared
/// cost-term cache they are summed from, and the warm snapshot. Owning one
/// across calls makes the steady-state solve allocation-free; a cold call
/// marks everything dirty at its start, so weight updates between calls
/// need no bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct CgbaScratch {
    /// `offsets[i]..offsets[i+1]` indexes player `i`'s entries in the arena.
    offsets: Vec<usize>,
    /// Cached `Profile::strategy_cost` per `(player, strategy)` entry.
    strat_cost: Vec<f64>,
    entry_dirty: Vec<bool>,
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
    terms: TermCache,
    /// Warm-start snapshot of the last converged MaxGain run: when the next
    /// warm call starts from the snapshotted profile under the same filter,
    /// only entries whose inputs changed bit pattern since that run need a
    /// rescan. Strategy weights are snapshotted by the term keys.
    snap_valid: bool,
    snap_choices: Vec<usize>,
    snap_loads: Vec<u64>,
    snap_weights: Vec<u64>,
    snap_filter: Option<StrategyFilter>,
    /// Monotonic count of cost evaluations (`player_cost` /
    /// `strategy_cost` calls) performed by solves using this scratch —
    /// the hot path's unit of work, surfaced as the `cgba.probes`
    /// counter. Never reset, so callers can emit per-solve deltas.
    probes: u64,
}

impl CgbaScratch {
    /// Sizes the arena for `structure`, rebuilds the term table and marks
    /// every cache entry dirty.
    fn reset(&mut self, structure: &GameStructure) {
        let n = structure.num_players();
        self.offsets.clear();
        self.offsets.push(0);
        let mut total = 0;
        for i in 0..n {
            total += structure.strategies(i).len();
            self.offsets.push(total);
        }
        self.strat_cost.clear();
        self.strat_cost.resize(total, 0.0);
        self.entry_dirty.clear();
        self.entry_dirty.resize(total, true);
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
        self.terms.build(structure);
        // A cold start means the caches will be rebuilt for an arbitrary
        // profile; any retained warm snapshot no longer describes them.
        self.snap_valid = false;
    }

    /// Attempts the warm first-iteration fast path: when `initial` is
    /// exactly the profile the last converged run ended on and `filter` is
    /// the filter it ran under, the caches in this scratch are still
    /// *valid* for every entry whose inputs (resource weight, resource
    /// load, own strategy weights) kept the same bit pattern — the cost
    /// expressions are deterministic, so a rescan would reproduce the
    /// cached float exactly. Marks dirty precisely the entries touching a
    /// changed resource or owned by a player whose strategy weights
    /// changed, and returns `true`.
    ///
    /// Returns `false` (caller must [`CgbaScratch::reset`]) when there is no
    /// snapshot, the seed or filter differs from the snapshot, or the game
    /// structure drifted (player/resource/strategy shape mismatch).
    fn try_warm<G: GameRef>(
        &mut self,
        game: &G,
        initial: &Profile,
        filter: Option<&StrategyFilter>,
    ) -> bool {
        if !self.snap_valid {
            return false;
        }
        let structure = game.structure();
        let weights = game.weights();
        let n = structure.num_players();
        if self.snap_choices != initial.choices
            || self.snap_filter.as_ref() != filter
            || self.snap_weights.len() != structure.num_resources()
            || self.offsets.len() != n + 1
        {
            return false;
        }
        for i in 0..n {
            if self.offsets[i + 1] - self.offsets[i] != structure.strategies(i).len() {
                return false;
            }
        }

        // The converged run left every allowed entry, current cost and best
        // response clean; disallowed entries stay dirty and, under the
        // same filter, unread.
        self.moves.clear();

        // Pass 1: resources whose weight or load changed bit pattern dirty
        // every entry that touches them (and the current cost of players
        // whose *chosen* strategy touches them).
        let epoch = self.terms.tick();
        for r in 0..self.snap_weights.len() {
            if weights.get(r).to_bits() == self.snap_weights[r]
                && initial.loads[r].to_bits() == self.snap_loads[r]
            {
                continue;
            }
            self.terms.resource_stamp[r] = epoch;
            for &(p, ps) in structure.touching(r) {
                let (p, ps) = (p as usize, ps as usize);
                self.entry_dirty[self.offsets[p] + ps] = true;
                self.player_dirty[p] = true;
                if ps == initial.choices[p] {
                    self.cur_dirty[p] = true;
                }
            }
        }

        // Pass 2: per-player strategy weights, compared against the term
        // keys. A changed weight in strategy `s` dirties entry `(i, s)`; a
        // change in the *chosen* strategy also shifts the `own` term of
        // every entry of `i` and `i`'s current cost. Any drift in the
        // resource lists themselves means this is a different structure —
        // bail out to a full reset.
        let terms = &self.terms;
        let mut reweighted = false;
        let mut pos = 0;
        for i in 0..n {
            for (s, strategy) in structure.strategies(i).iter().enumerate() {
                let e = self.offsets[i] + s;
                if terms.entry_pos[e] as usize != pos
                    || terms.entry_pos[e + 1] as usize - pos != strategy.len()
                {
                    return false;
                }
                for &(r, w) in strategy {
                    let t = terms.pos_term[pos] as usize;
                    if terms.resource[t] as usize != r {
                        return false;
                    }
                    if w.to_bits() != terms.weight_bits[t] {
                        reweighted = true;
                        self.entry_dirty[e] = true;
                        self.player_dirty[i] = true;
                        if s == initial.choices[i] {
                            for d in &mut self.entry_dirty[self.offsets[i]..self.offsets[i + 1]] {
                                *d = true;
                            }
                            self.cur_dirty[i] = true;
                        }
                    }
                    pos += 1;
                }
            }
        }
        if pos != terms.pos_term.len() {
            return false;
        }
        // New weights may regroup the shared terms: re-derive the table.
        // Clean entries keep their cached sums, which stay exact.
        if reweighted {
            self.terms.build(structure);
        }
        true
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
    /// used this scratch. Callers snapshot before/after a solve and emit
    /// the delta as the `cgba.probes` counter.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Re-sums player `i`'s dirty allowed entries from the term cache
    /// (recomputing stale terms) and caches its best allowed response.
    // Indexing by `s` reads a strategy only when its entry is dirty; most
    // entries of a dirty player are clean.
    #[allow(clippy::needless_range_loop)]
    fn refresh_player<G: GameRef>(
        &mut self,
        game: &G,
        profile: &Profile,
        i: usize,
        allowed: &[bool],
    ) {
        let strategies = game.structure().strategies(i);
        let weights = game.weights();
        let current = &strategies[profile.choices[i]];
        let terms = &mut self.terms;
        let player_stamp = terms.player_stamp[i];
        let off = self.offsets[i];
        let mut best = (profile.choices[i], f64::INFINITY);
        for s in 0..(self.offsets[i + 1] - off) {
            let e = off + s;
            if !allowed.is_empty() && !allowed[e] {
                continue;
            }
            if self.entry_dirty[e] {
                // The same addends, in the same order, as
                // `Profile::strategy_cost`.
                let pos = terms.entry_pos[e] as usize;
                let mut cost = 0.0;
                for (k, &(r, w)) in strategies[s].iter().enumerate() {
                    let t = terms.pos_term[pos + k] as usize;
                    let stamp = terms.stamp[t];
                    if stamp < player_stamp || stamp < terms.resource_stamp[r] {
                        let own: f64 = current
                            .iter()
                            .find(|&&(cr, _)| cr == r)
                            .map(|&(_, cw)| cw)
                            .unwrap_or(0.0);
                        terms.value[t] = weights.get(r) * w * (profile.loads[r] - own + w);
                        terms.stamp[t] = terms.clock;
                    }
                    cost += terms.value[t];
                }
                self.strat_cost[e] = cost;
                self.entry_dirty[e] = false;
                self.probes += 1;
            }
            let cost = self.strat_cost[e];
            if cost < best.1 {
                best = (s, cost);
            }
        }
        self.best_s[i] = best.0;
        self.best_cost[i] = best.1;
        self.player_dirty[i] = false;
    }

    /// Performs player `i`'s move to strategy `s` (via [`Profile::switch`])
    /// and marks every cache entry and term the move invalidates.
    ///
    /// A non-mover's cached cost depends only on the *values* of its
    /// strategy's resource loads (and its own unchanged choice), so only
    /// resources whose load actually changed bit pattern can invalidate it.
    /// When the old and new strategy share a resource with the same weight
    /// (e.g. a server switch that keeps the base station), the `-w` then
    /// `+w` round-trip usually restores the load bits exactly — those
    /// entries would recompute to the identical float and stay valid, so
    /// the loads are snapshotted before the switch and compared after.
    fn apply_move<G: GameRef>(&mut self, game: &G, profile: &mut Profile, i: usize, s: usize) {
        let structure = game.structure();
        // The mover's own entries and terms all change (its `own`
        // contribution follows its current choice), as do its cost and
        // best response.
        for e in &mut self.entry_dirty[self.offsets[i]..self.offsets[i + 1]] {
            *e = true;
        }
        self.player_dirty[i] = true;
        self.cur_dirty[i] = true;
        let epoch = self.terms.tick();
        self.terms.player_stamp[i] = epoch;

        self.touched.clear();
        for strat in [profile.choices[i], s] {
            for &(r, _) in &structure.strategies(i)[strat] {
                if !self.touched.iter().any(|&(tr, _)| tr == r) {
                    self.touched.push((r, profile.loads[r].to_bits()));
                }
            }
        }
        profile.switch(game, i, s);
        for idx in 0..self.touched.len() {
            let (r, before) = self.touched[idx];
            if profile.loads[r].to_bits() == before {
                continue;
            }
            self.terms.resource_stamp[r] = epoch;
            for &(p, ps) in structure.touching(r) {
                let (p, ps) = (p as usize, ps as usize);
                self.entry_dirty[self.offsets[p] + ps] = true;
                self.player_dirty[p] = true;
                // A player's *current* cost only moves if its chosen
                // strategy uses the touched resource.
                if ps == profile.choices[p] {
                    self.cur_dirty[p] = true;
                }
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
/// on this scratch ended on, only cache entries whose inputs changed bit
/// pattern since then are rescanned (the scratch's `try_warm` step);
/// everything else is reused. Falls back to a full scratch reset whenever
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
                scratch.reset(game.structure());
            }
            let report = cgba_max_gain(game, initial, config, filter, should_stop, scratch);
            // Only a converged run leaves every allowed cache entry clean
            // (the final no-mover scan refreshed them all); a capped or
            // stopped exit leaves stale entries behind and cannot seed the
            // fast path.
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

/// Incremental MaxGain loop: refresh dirty cache entries, pick the max-gap
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
        allowed.is_empty() || allowed.len() == scratch.strat_cost.len(),
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
                scratch.refresh_player(game, &profile, i, allowed);
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
