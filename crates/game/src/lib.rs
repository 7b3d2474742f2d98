//! Weighted congestion games and the paper's CGBA algorithm (§V-B).
//!
//! Subproblem P2-A — choosing each device's (base station, server) pair to
//! minimize total latency — is interpreted by the paper as a *weighted
//! congestion game* `WCG = (D, {Z_i}, {T_i})`:
//!
//! * **Resources** `r ∈ R` are the compute capacity of each server and the
//!   access/fronthaul bandwidth of each base station, each with a weight
//!   `m_r` (`1/ω_n`, `1/W_k^A`, `1/W_k^F`).
//! * **Players** are the devices; a strategy `z_i` picks a feasible resource
//!   bundle (the server + the two link resources of the chosen station),
//!   contributing a player-resource weight `p_{i,r}` to each.
//! * **Cost** of player `i` is `T_i(z) = Σ_{r∈R_i(z_i)} m_r · p_{i,r} ·
//!   p_r(z)`, where `p_r(z) = Σ_{j uses r} p_{j,r}` is the load.
//!
//! The identity `Σ_i T_i(z) = Σ_r m_r · p_r(z)²` makes the game's social
//! cost exactly the latency `T_t` of eq. (18)–(19) (see `eotora-core::p2a`
//! for the mapping; DESIGN.md documents the `p_{i,C_n}` typo fix).
//!
//! This game admits the **exact potential**
//! `Φ(z) = ½ Σ_r m_r (p_r(z)² + Σ_{i∈I_r(z)} p_{i,r}²)`
//! — every unilateral improvement decreases Φ by the same amount, which is
//! why best-response dynamics terminate. [`cgba`] implements Algorithm 3:
//! repeatedly move the player with the *largest* improvement gap until no
//! player can improve its cost by more than a factor `λ`, giving the
//! `2.62/(1−8λ)` approximation of Theorem 2 in
//! `O((1/λ)·log(Φ₀/Φ_min))` iterations.
//!
//! # Structure/weights split
//!
//! The game is stored as an immutable-shape [`GameStructure`] (players and
//! their strategies) plus a mutable [`ResourceWeights`] view. The BDMA
//! alternation only changes the per-server `m_r` between rounds, and across
//! slots only the per-player weights change — neither perturbs the shape,
//! so solvers can reuse the structure (and the incremental-scheduling
//! caches keyed on it) without a rebuild. [`GameRef`] abstracts over "owns
//! both halves" ([`CongestionGame`]) and "borrows them separately"
//! ([`SplitGame`]); every [`Profile`] method and the CGBA entry points are
//! generic over it.
//!
//! # Examples
//!
//! ```
//! use eotora_game::{CongestionGame, CgbaConfig, cgba};
//! use eotora_util::rng::Pcg32;
//!
//! // Two players, two identical resources; each strategy uses one resource.
//! let mut g = CongestionGame::new(vec![1.0, 1.0]);
//! g.add_player(vec![vec![(0, 1.0)], vec![(1, 1.0)]]);
//! g.add_player(vec![vec![(0, 1.0)], vec![(1, 1.0)]]);
//! let report = cgba(&g, &CgbaConfig::default(), &mut Pcg32::seed(1));
//! // The equilibrium spreads the players: total cost 1² + 1² = 2.
//! assert_eq!(report.total_cost, 2.0);
//! ```

use serde::{Deserialize, Serialize};

mod cgba;
mod mask;
mod profile;
mod shard;

#[cfg(any(test, feature = "reference-oracle"))]
pub use cgba::cgba_from_filtered;
pub use cgba::{
    brute_force_optimum, cgba, cgba_from, cgba_from_reference, cgba_from_with_scratch, cgba_kernel,
    cgba_reference, cgba_warm_from_with_scratch, empirical_price_of_anarchy, CgbaConfig,
    CgbaReport, CgbaScratch, SchedulingRule,
};
pub use mask::StrategyFilter;
pub use profile::Profile;
pub use shard::{BitSet, ShardPlan, ShardSpec, MAX_CUT_FRACTION};

/// A strategy: the resource bundle it uses, as `(resource index, p_{i,r})`
/// pairs. Indices must be unique within a strategy.
pub type Strategy = Vec<(usize, f64)>;

/// Errors detected by [`CongestionGame::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum GameError {
    /// A strategy references a resource index `>= num_resources`.
    DanglingResource {
        /// Offending player.
        player: usize,
        /// Offending resource index.
        resource: usize,
    },
    /// A player has no strategies.
    NoStrategies {
        /// Offending player.
        player: usize,
    },
    /// A weight (`m_r` or `p_{i,r}`) is non-positive or non-finite.
    BadWeight {
        /// Human-readable description.
        context: String,
    },
    /// A strategy uses the same resource twice.
    DuplicateResource {
        /// Offending player.
        player: usize,
    },
}

impl std::fmt::Display for GameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DanglingResource { player, resource } => {
                write!(f, "player {player} references missing resource {resource}")
            }
            Self::NoStrategies { player } => write!(f, "player {player} has no strategies"),
            Self::BadWeight { context } => write!(f, "bad weight: {context}"),
            Self::DuplicateResource { player } => {
                write!(f, "player {player} has a strategy with duplicate resources")
            }
        }
    }
}

impl std::error::Error for GameError {}

/// The shape of a congestion game: every player's strategy set, with the
/// per-player weights `p_{i,r}`.
///
/// The *shape* (which resources each strategy touches) is immutable after
/// construction; the per-player weights may be refreshed in place via
/// [`GameStructure::set_strategy_weights`] — across slots the P2-A mapping
/// changes only those, never the shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GameStructure {
    num_resources: usize,
    players: Vec<Vec<Strategy>>,
}

impl GameStructure {
    /// Builds and validates a structure over `num_resources` resources.
    ///
    /// # Errors
    ///
    /// Returns the first structural [`GameError`] found (dangling or
    /// duplicate resources, empty strategy sets, bad player weights).
    pub fn new(num_resources: usize, players: Vec<Vec<Strategy>>) -> Result<Self, GameError> {
        let mut structure = Self::empty(num_resources);
        for strategies in players {
            structure.push_player_unchecked(strategies);
        }
        structure.validate()?;
        Ok(structure)
    }

    fn empty(num_resources: usize) -> Self {
        Self { num_resources, players: Vec::new() }
    }

    /// Appends a player without validating (the lazy [`CongestionGame`]
    /// construction path). Dangling resource indices are tolerated here and
    /// reported by [`GameStructure::validate`].
    fn push_player_unchecked(&mut self, strategies: Vec<Strategy>) -> usize {
        self.players.push(strategies);
        self.players.len() - 1
    }

    /// Number of players `I`.
    pub fn num_players(&self) -> usize {
        self.players.len()
    }

    /// Number of resources `|R|`.
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// Player `i`'s strategies.
    pub fn strategies(&self, i: usize) -> &[Strategy] {
        &self.players[i]
    }

    /// Overwrites the per-resource player weights of strategy `s` of player
    /// `i` in place, preserving the resource shape (`weights[j]` replaces
    /// the weight of the `j`-th resource of the strategy).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the strategy's resource count.
    pub fn set_strategy_weights(&mut self, i: usize, s: usize, weights: &[f64]) {
        let strategy = &mut self.players[i][s];
        assert_eq!(weights.len(), strategy.len(), "one weight per strategy resource");
        for (slot, &w) in strategy.iter_mut().zip(weights) {
            debug_assert!(w > 0.0 && w.is_finite(), "player weight must be positive and finite");
            slot.1 = w;
        }
    }

    /// Checks the structural invariants (player side of
    /// [`CongestionGame::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`GameError`] found.
    pub fn validate(&self) -> Result<(), GameError> {
        // One buffer for the whole check: each strategy unmarks its
        // resources once it passes.
        let mut seen = vec![false; self.num_resources];
        for (i, strategies) in self.players.iter().enumerate() {
            if strategies.is_empty() {
                return Err(GameError::NoStrategies { player: i });
            }
            for s in strategies {
                for &(r, w) in s {
                    if r >= self.num_resources {
                        return Err(GameError::DanglingResource { player: i, resource: r });
                    }
                    if seen[r] {
                        return Err(GameError::DuplicateResource { player: i });
                    }
                    seen[r] = true;
                    if w <= 0.0 || w.is_nan() || !w.is_finite() {
                        return Err(GameError::BadWeight {
                            context: format!("player {i} resource {r} weight {w}"),
                        });
                    }
                }
                for &(r, _) in s {
                    seen[r] = false;
                }
            }
        }
        Ok(())
    }
}

/// The mutable half of the split game: the resource weights `m_r`. BDMA
/// rounds refresh only the `N` server entries via [`ResourceWeights::set`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceWeights {
    weights: Vec<f64>,
}

impl ResourceWeights {
    /// Builds and validates a weight vector.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::BadWeight`] on a non-positive or non-finite
    /// entry.
    pub fn new(weights: Vec<f64>) -> Result<Self, GameError> {
        let unchecked = Self::from_raw(weights);
        unchecked.validate()?;
        Ok(unchecked)
    }

    /// Wraps a weight vector without validating (the lazy
    /// [`CongestionGame::new`] path; [`ResourceWeights::validate`] reports
    /// bad entries later).
    pub fn from_raw(weights: Vec<f64>) -> Self {
        Self { weights }
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether there are no resources.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight `m_r` of resource `r`.
    #[inline]
    pub fn get(&self, r: usize) -> f64 {
        self.weights[r]
    }

    /// All weights, in resource order.
    pub fn as_slice(&self) -> &[f64] {
        &self.weights
    }

    /// Overwrites the weight of resource `r` in place.
    #[inline]
    pub fn set(&mut self, r: usize, m: f64) {
        debug_assert!(m > 0.0 && m.is_finite(), "resource weight must be positive and finite");
        self.weights[r] = m;
    }

    /// Checks every weight is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::BadWeight`] for the first offending entry.
    pub fn validate(&self) -> Result<(), GameError> {
        for (r, &m) in self.weights.iter().enumerate() {
            if m <= 0.0 || m.is_nan() || !m.is_finite() {
                return Err(GameError::BadWeight { context: format!("resource {r} weight {m}") });
            }
        }
        Ok(())
    }
}

/// Read access to the two halves of a congestion game. [`Profile`] and the
/// CGBA solvers are generic over this, so they work both on an owned
/// [`CongestionGame`] and on separately borrowed halves ([`SplitGame`]).
pub trait GameRef {
    /// The immutable-shape half: players and their strategies.
    fn structure(&self) -> &GameStructure;
    /// The mutable half: the resource weights `m_r`.
    fn weights(&self) -> &ResourceWeights;
}

impl<G: GameRef + ?Sized> GameRef for &G {
    fn structure(&self) -> &GameStructure {
        (**self).structure()
    }
    fn weights(&self) -> &ResourceWeights {
        (**self).weights()
    }
}

/// A congestion game borrowed as its two halves — lets a caller hold the
/// weights mutably elsewhere between solves while sharing one structure.
///
/// # Examples
///
/// ```
/// use eotora_game::{cgba_from, CgbaConfig, GameStructure, Profile, ResourceWeights, SplitGame};
///
/// let structure = GameStructure::new(
///     2,
///     vec![vec![vec![(0, 1.0)], vec![(1, 1.0)]], vec![vec![(0, 1.0)], vec![(1, 1.0)]]],
/// )
/// .unwrap();
/// let mut weights = ResourceWeights::new(vec![1.0, 1.0]).unwrap();
/// weights.set(1, 0.5); // in-place weight update, no game rebuild
/// let game = SplitGame { structure: &structure, weights: &weights };
/// let initial = Profile::from_choices(&game, vec![0, 0]);
/// let report = cgba_from(&game, initial, &CgbaConfig::default());
/// assert!(report.converged);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SplitGame<'a> {
    /// The immutable-shape half.
    pub structure: &'a GameStructure,
    /// The resource weights.
    pub weights: &'a ResourceWeights,
}

impl GameRef for SplitGame<'_> {
    fn structure(&self) -> &GameStructure {
        self.structure
    }
    fn weights(&self) -> &ResourceWeights {
        self.weights
    }
}

/// Validates the two halves of a game together, in the order the original
/// monolithic check used: resource weights first, then the player side.
///
/// # Errors
///
/// Returns the first [`GameError`] found.
pub fn validate_parts(
    structure: &GameStructure,
    weights: &ResourceWeights,
) -> Result<(), GameError> {
    weights.validate()?;
    structure.validate()
}

/// A weighted congestion game with linear (load-proportional) resource
/// costs: a [`GameStructure`] plus its [`ResourceWeights`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestionGame {
    structure: GameStructure,
    weights: ResourceWeights,
}

impl CongestionGame {
    /// Creates a game over resources with weights `m_r`.
    ///
    /// # Panics
    ///
    /// Panics if `resource_weights` is empty.
    pub fn new(resource_weights: Vec<f64>) -> Self {
        assert!(!resource_weights.is_empty(), "need at least one resource");
        Self {
            structure: GameStructure::empty(resource_weights.len()),
            weights: ResourceWeights::from_raw(resource_weights),
        }
    }

    /// Assembles a game from pre-validated halves.
    ///
    /// # Panics
    ///
    /// Panics if the halves disagree on the resource count.
    pub fn from_parts(structure: GameStructure, weights: ResourceWeights) -> Self {
        assert_eq!(structure.num_resources(), weights.len(), "structure/weights resource count");
        Self { structure, weights }
    }

    /// Adds a player with the given strategy set; returns its index.
    pub fn add_player(&mut self, strategies: Vec<Strategy>) -> usize {
        self.structure.push_player_unchecked(strategies)
    }

    /// Number of players `I`.
    pub fn num_players(&self) -> usize {
        self.structure.num_players()
    }

    /// Number of resources `|R|`.
    pub fn num_resources(&self) -> usize {
        self.weights.len()
    }

    /// The weight `m_r` of resource `r`.
    pub fn resource_weight(&self, r: usize) -> f64 {
        self.weights.get(r)
    }

    /// Overwrites the weight `m_r` of resource `r` in place (the BDMA
    /// round-to-round server-weight refresh).
    pub fn set_resource_weight(&mut self, r: usize, m: f64) {
        self.weights.set(r, m);
    }

    /// Overwrites the per-resource player weights of strategy `s` of player
    /// `i` in place (see [`GameStructure::set_strategy_weights`]).
    pub fn set_strategy_weights(&mut self, i: usize, s: usize, weights: &[f64]) {
        self.structure.set_strategy_weights(i, s, weights);
    }

    /// Player `i`'s strategies.
    pub fn strategies(&self, i: usize) -> &[Strategy] {
        self.structure.strategies(i)
    }

    /// The immutable-shape half of the game.
    pub fn structure(&self) -> &GameStructure {
        &self.structure
    }

    /// The resource-weight half of the game.
    pub fn weights(&self) -> &ResourceWeights {
        &self.weights
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first [`GameError`] found.
    pub fn validate(&self) -> Result<(), GameError> {
        validate_parts(&self.structure, &self.weights)
    }
}

impl GameRef for CongestionGame {
    fn structure(&self) -> &GameStructure {
        &self.structure
    }
    fn weights(&self) -> &ResourceWeights {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_util::assert_close;
    use eotora_util::rng::Pcg32;

    /// I players, R resources, each strategy = exactly one resource, with
    /// player weight `w[i]` on every resource.
    fn singleton_game(weights: &[f64], m: &[f64]) -> CongestionGame {
        let mut g = CongestionGame::new(m.to_vec());
        for &w in weights {
            let strategies = (0..m.len()).map(|r| vec![(r, w)]).collect();
            g.add_player(strategies);
        }
        g
    }

    #[test]
    fn social_cost_identity() {
        // Σ_i T_i == Σ_r m_r p_r² for arbitrary profiles.
        let g = singleton_game(&[1.0, 2.0, 3.0], &[0.5, 2.0]);
        for choices in [[0, 0, 0], [0, 1, 0], [1, 1, 1], [0, 1, 1]] {
            let p = Profile::from_choices(&g, choices.to_vec());
            let by_players: f64 = (0..3).map(|i| p.player_cost(&g, i)).sum();
            assert_close!(by_players, p.total_cost(&g), 1e-12);
        }
    }

    #[test]
    fn potential_change_equals_cost_change() {
        let g = singleton_game(&[1.5, 2.5], &[1.0, 3.0]);
        let mut p = Profile::from_choices(&g, vec![0, 0]);
        let phi0 = p.potential(&g);
        let c0 = p.player_cost(&g, 1);
        p.switch(&g, 1, 1);
        let phi1 = p.potential(&g);
        let c1 = p.player_cost(&g, 1);
        assert_close!(phi1 - phi0, c1 - c0, 1e-12);
    }

    #[test]
    fn best_response_spreads_load() {
        let g = singleton_game(&[1.0, 1.0], &[1.0, 1.0]);
        let p = Profile::from_choices(&g, vec![0, 0]);
        let (s, cost) = p.best_response(&g, 1);
        assert_eq!(s, 1);
        assert_close!(cost, 1.0, 1e-12);
    }

    #[test]
    fn cgba_reaches_nash_on_symmetric_game() {
        let g = singleton_game(&[1.0; 4], &[1.0, 1.0]);
        let mut rng = Pcg32::seed(5);
        let r = cgba(&g, &CgbaConfig::default(), &mut rng);
        assert!(r.converged);
        assert!(r.profile.is_lambda_equilibrium(&g, 0.0, 1e-12));
        // Balanced split: loads (2, 2) → total cost 8. Any imbalance is worse.
        assert_close!(r.total_cost, 8.0, 1e-12);
    }

    #[test]
    fn cgba_never_increases_cost_vs_start() {
        let mut rng = Pcg32::seed(6);
        for seed in 0..20u64 {
            let mut wr = Pcg32::seed(seed);
            let weights: Vec<f64> = (0..8).map(|_| wr.uniform_in(0.5, 3.0)).collect();
            let m: Vec<f64> = (0..4).map(|_| wr.uniform_in(0.2, 2.0)).collect();
            let g = singleton_game(&weights, &m);
            let r = cgba(&g, &CgbaConfig::default(), &mut rng);
            assert!(r.total_cost <= r.initial_cost + 1e-9);
            assert!(r.converged);
        }
    }

    #[test]
    fn potential_decreases_along_cgba_moves() {
        // Replay CGBA manually and check Φ strictly decreases.
        let mut wr = Pcg32::seed(8);
        let weights: Vec<f64> = (0..6).map(|_| wr.uniform_in(0.5, 2.0)).collect();
        let m: Vec<f64> = (0..3).map(|_| wr.uniform_in(0.5, 2.0)).collect();
        let g = singleton_game(&weights, &m);
        let mut p = Profile::from_choices(&g, vec![0; 6]);
        let mut phi = p.potential(&g);
        for _ in 0..1000 {
            let mut moved = false;
            for i in 0..6 {
                let cost = p.player_cost(&g, i);
                let (s, br) = p.best_response(&g, i);
                if br < cost - 1e-12 {
                    p.switch(&g, i, s);
                    let new_phi = p.potential(&g);
                    assert!(new_phi < phi - 1e-12, "potential must strictly decrease");
                    phi = new_phi;
                    moved = true;
                    break;
                }
            }
            if !moved {
                return;
            }
        }
        panic!("best-response dynamics failed to converge");
    }

    #[test]
    fn lambda_relaxes_convergence() {
        let mut wr = Pcg32::seed(10);
        let weights: Vec<f64> = (0..20).map(|_| wr.uniform_in(0.5, 3.0)).collect();
        let m: Vec<f64> = (0..5).map(|_| wr.uniform_in(0.2, 2.0)).collect();
        let g = singleton_game(&weights, &m);
        let mut iters = Vec::new();
        let mut costs = Vec::new();
        for lambda in [0.0, 0.06, 0.12] {
            // Average over several starts to smooth randomness.
            let mut total_iters = 0;
            let mut total_cost = 0.0;
            for seed in 0..10u64 {
                let mut rng = Pcg32::seed(seed);
                let cfg = CgbaConfig { lambda, ..Default::default() };
                let r = cgba(&g, &cfg, &mut rng);
                assert!(r.converged);
                assert!(r.profile.is_lambda_equilibrium(&g, lambda, 1e-9));
                total_iters += r.iterations;
                total_cost += r.total_cost;
            }
            iters.push(total_iters);
            costs.push(total_cost);
        }
        // More slack → no more iterations than exact best response.
        assert!(iters[2] <= iters[0], "iters {iters:?}");
        // Final costs stay in the same ballpark (λ only weakens the
        // guarantee; which equilibrium is hit is start-dependent).
        assert!((costs[2] - costs[0]).abs() <= 0.05 * costs[0], "costs {costs:?}");
    }

    #[test]
    fn round_robin_also_converges_to_nash() {
        let mut wr = Pcg32::seed(11);
        let weights: Vec<f64> = (0..10).map(|_| wr.uniform_in(0.5, 3.0)).collect();
        let m: Vec<f64> = (0..4).map(|_| wr.uniform_in(0.2, 2.0)).collect();
        let g = singleton_game(&weights, &m);
        let mut rng = Pcg32::seed(12);
        let cfg = CgbaConfig { scheduling: SchedulingRule::RoundRobin, ..Default::default() };
        let r = cgba(&g, &cfg, &mut rng);
        assert!(r.converged);
        assert!(r.profile.is_lambda_equilibrium(&g, 0.0, 1e-9));
    }

    #[test]
    fn price_of_anarchy_within_theorem_bound() {
        // Exhaustively compute the optimum on small instances and check
        // T(ẑ) ≤ 2.62 · T(z*) for λ = 0 (Theorem 2).
        for seed in 0..30u64 {
            let mut wr = Pcg32::seed(seed);
            let weights: Vec<f64> = (0..5).map(|_| wr.uniform_in(0.5, 3.0)).collect();
            let m: Vec<f64> = (0..3).map(|_| wr.uniform_in(0.2, 2.0)).collect();
            let g = singleton_game(&weights, &m);
            // Brute force optimum over 3^5 profiles.
            let mut opt = f64::INFINITY;
            for code in 0..3usize.pow(5) {
                let mut c = code;
                let choices: Vec<usize> = (0..5)
                    .map(|_| {
                        let v = c % 3;
                        c /= 3;
                        v
                    })
                    .collect();
                opt = opt.min(Profile::from_choices(&g, choices).total_cost(&g));
            }
            let mut rng = Pcg32::seed(seed + 1000);
            let r = cgba(&g, &CgbaConfig::default(), &mut rng);
            assert!(
                r.total_cost <= 2.62 * opt + 1e-9,
                "seed {seed}: {} > 2.62 × {opt}",
                r.total_cost
            );
        }
    }

    #[test]
    fn multi_resource_strategies() {
        // Strategies that bundle resources (like BS + server in the paper).
        let mut g = CongestionGame::new(vec![1.0, 1.0, 2.0]);
        g.add_player(vec![vec![(0, 1.0), (2, 0.5)], vec![(1, 1.0), (2, 0.5)]]);
        g.add_player(vec![vec![(0, 2.0), (2, 1.0)], vec![(1, 2.0), (2, 1.0)]]);
        g.validate().unwrap();
        let p = Profile::from_choices(&g, vec![0, 0]);
        // Loads: r0 = 3, r2 = 1.5 → total = 1·9 + 2·2.25 = 13.5.
        assert_close!(p.total_cost(&g), 13.5, 1e-12);
        let identity: f64 = (0..2).map(|i| p.player_cost(&g, i)).sum();
        assert_close!(identity, 13.5, 1e-12);
        let mut rng = Pcg32::seed(1);
        let r = cgba(&g, &CgbaConfig::default(), &mut rng);
        assert!(r.converged);
        // Spreading over r0/r1 is optimal; shared r2 load unchanged.
        // loads: one on r0 (either 1 or 2 weight), other on r1, r2 = 1.5.
        // cost = w1² + w2² + 2·1.5² = 1 + 4 + 4.5 = 9.5.
        assert_close!(r.total_cost, 9.5, 1e-12);
    }

    #[test]
    fn validation_errors() {
        let mut g = CongestionGame::new(vec![1.0]);
        g.add_player(vec![]);
        assert!(matches!(g.validate(), Err(GameError::NoStrategies { player: 0 })));

        let mut g = CongestionGame::new(vec![1.0]);
        g.add_player(vec![vec![(3, 1.0)]]);
        assert!(matches!(g.validate(), Err(GameError::DanglingResource { .. })));

        let mut g = CongestionGame::new(vec![1.0, 1.0]);
        g.add_player(vec![vec![(0, 1.0), (0, 2.0)]]);
        assert!(matches!(g.validate(), Err(GameError::DuplicateResource { .. })));

        let mut g = CongestionGame::new(vec![-1.0]);
        g.add_player(vec![vec![(0, 1.0)]]);
        assert!(matches!(g.validate(), Err(GameError::BadWeight { .. })));

        let mut g = CongestionGame::new(vec![1.0]);
        g.add_player(vec![vec![(0, 0.0)]]);
        assert!(matches!(g.validate(), Err(GameError::BadWeight { .. })));
    }

    #[test]
    fn structure_construction_validates_eagerly() {
        assert!(matches!(
            GameStructure::new(1, vec![vec![vec![(3, 1.0)]]]),
            Err(GameError::DanglingResource { player: 0, resource: 3 })
        ));
        assert!(matches!(GameStructure::new(1, vec![vec![]]), Err(GameError::NoStrategies { .. })));
        assert!(matches!(
            ResourceWeights::new(vec![1.0, f64::NAN]),
            Err(GameError::BadWeight { .. })
        ));
        let st = GameStructure::new(2, vec![vec![vec![(0, 1.0)], vec![(1, 2.0)]]]).unwrap();
        assert_eq!(st.num_players(), 1);
    }

    #[test]
    fn in_place_weight_updates_preserve_shape() {
        let mut g = singleton_game(&[1.0, 2.0], &[1.0, 1.0]);
        let before = g.structure().clone();
        g.set_resource_weight(0, 3.0);
        g.set_strategy_weights(1, 0, &[5.0]);
        assert_eq!(g.resource_weight(0), 3.0);
        assert_eq!(g.strategies(1)[0], vec![(0, 5.0)]);
        // Only the weight payloads changed; every strategy keeps its
        // resources.
        for i in 0..2 {
            let resources = |st: &GameStructure| -> Vec<Vec<usize>> {
                st.strategies(i).iter().map(|s| s.iter().map(|&(r, _)| r).collect()).collect()
            };
            assert_eq!(resources(g.structure()), resources(&before));
        }
        g.validate().unwrap();
    }

    #[test]
    fn brute_force_matches_known_optimum() {
        let g = singleton_game(&[1.0, 2.0], &[1.0, 1.0]);
        let (choices, cost) = brute_force_optimum(&g, 100).unwrap();
        // Separating the players is optimal: 1² + 2² = 5.
        assert_eq!(cost, 5.0);
        assert_ne!(choices[0], choices[1]);
    }

    #[test]
    fn brute_force_guards_against_blowup() {
        let g = singleton_game(&[1.0; 30], &[1.0, 1.0]);
        let err = brute_force_optimum(&g, 1_000).unwrap_err();
        assert!(err > 1_000);
    }

    #[test]
    fn empirical_poa_within_theorem_constant() {
        let mut rng = Pcg32::seed(17);
        for seed in 0..10u64 {
            let mut wr = Pcg32::seed(seed);
            let weights: Vec<f64> = (0..6).map(|_| wr.uniform_in(0.5, 3.0)).collect();
            let m: Vec<f64> = (0..3).map(|_| wr.uniform_in(0.2, 2.0)).collect();
            let g = singleton_game(&weights, &m);
            let poa = empirical_price_of_anarchy(&g, 10, 1_000_000, &mut rng).unwrap();
            assert!((1.0..=2.62 + 1e-9).contains(&poa), "PoA {poa}");
        }
    }

    #[test]
    fn iteration_cap_reported_as_not_converged() {
        let g = singleton_game(&[1.0, 1.0, 1.0, 1.0], &[1.0, 1.0]);
        let mut rng = Pcg32::seed(3);
        let cfg = CgbaConfig { max_iterations: 0, ..Default::default() };
        let r = cgba(&g, &cfg, &mut rng);
        // With zero allowed iterations, convergence can only be claimed if
        // the random start happened to be an equilibrium.
        if !r.converged {
            assert_eq!(r.iterations, 0);
        }
    }

    #[test]
    fn switch_keeps_loads_consistent() {
        let mut wr = Pcg32::seed(14);
        let weights: Vec<f64> = (0..7).map(|_| wr.uniform_in(0.5, 2.0)).collect();
        let m: Vec<f64> = (0..3).map(|_| wr.uniform_in(0.5, 2.0)).collect();
        let g = singleton_game(&weights, &m);
        let mut p = Profile::from_choices(&g, vec![0; 7]);
        let mut rng = Pcg32::seed(15);
        for _ in 0..100 {
            let i = rng.below(7);
            let s = rng.below(3);
            p.switch(&g, i, s);
        }
        let rebuilt = Profile::from_choices(&g, p.choices().to_vec());
        for (a, b) in p.loads().iter().zip(rebuilt.loads()) {
            assert_close!(*a, *b, 1e-9);
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One scratch across games of different shapes and weight updates
        // must behave exactly like a fresh scratch per call.
        let mut scratch = CgbaScratch::default();
        for seed in 0..10u64 {
            let mut wr = Pcg32::seed(seed);
            let players = 2 + (seed as usize % 5);
            let resources = 2 + (seed as usize % 3);
            let weights: Vec<f64> = (0..players).map(|_| wr.uniform_in(0.5, 3.0)).collect();
            let m: Vec<f64> = (0..resources).map(|_| wr.uniform_in(0.2, 2.0)).collect();
            let mut g = singleton_game(&weights, &m);
            for round in 0..3 {
                let initial = Profile::random(&g, &mut Pcg32::seed(seed * 10 + round));
                let cfg = CgbaConfig::default();
                let reused = cgba_from_with_scratch(&g, initial.clone(), &cfg, &mut scratch);
                let fresh = cgba_from_with_scratch(&g, initial, &cfg, &mut CgbaScratch::default());
                assert_eq!(reused, fresh);
                // Perturb a resource weight in place before the next round.
                let r = wr.below(resources);
                g.set_resource_weight(r, wr.uniform_in(0.2, 2.0));
            }
        }
    }
}
