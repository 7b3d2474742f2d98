//! Sharded P2-A solve: per-cluster CGBA subgames merged deterministically.
//!
//! On topologies whose base stations reach disjoint server clusters (BS
//! islands), the P2-A congestion game is block-diagonal: a
//! [`ShardPlan`] splits it into independent subgames, each solved by its
//! own run of the incremental CGBA kernel ([`eotora_game::cgba_kernel`]:
//! cold, warm, or filtered with a deadline on the robust path) on a dense
//! shard-local game, and the per-shard choices are merged back in a fixed
//! order. Shards run on a bounded
//! [`WorkerPool`], so 100k–1M-device slots scale across cores while the
//! result stays independent of worker count.
//!
//! # Why the merge is decision-identical on separable games
//!
//! A move inside one component never changes costs or best-response gaps in
//! another (disjoint resources). Global MaxGain therefore interleaves
//! per-shard mover sequences; whenever it picks a player from shard `S`,
//! that player has the maximal gap *within `S`* — and the tie-break
//! (strict `>` scanning players in ascending index order, with shard-local
//! player order equal to ascending global order) picks the same player the
//! shard-local scan would. By induction each shard's subsequence equals the
//! shard-local MaxGain sequence from the same split initial profile, so the
//! converged profiles agree move for move. Local games preserve strategy
//! and resource order, so every cost is the *bit-identical* float sum.
//! [`ShardedCgbaSolver`] additionally draws its random initial profile
//! from the **global** game exactly like
//! [`CgbaSolver`](crate::bdma::CgbaSolver) does, consuming the same RNG
//! stream — on separable topologies the two solvers are interchangeable
//! (pinned by tests).
//!
//! # Cut players and reconciliation
//!
//! Players whose strategy set spans components (devices covered by two
//! islands) are homed to the majority component; their out-of-home
//! strategies are invisible to the shard solve. After the merge, a bounded
//! number ([`RECONCILE_PASSES`]) of global best-response sweeps over the
//! (sorted) cut players restores their full-strategy-set response using
//! the exact CGBA move condition, so the merged profile stays a
//! λ-equilibrium for every non-cut player and the social-cost gap to the
//! sequential solve is small (≤ 1% on weakly cut topologies, pinned by
//! tests). When the cut is not weak, [`ShardPlan::compute`] already
//! collapses to a single shard and this module degrades exactly to the
//! sequential path.

use std::sync::Mutex;

#[cfg(test)]
use eotora_game::cgba_from_filtered;
use eotora_game::{
    cgba_from_with_scratch, cgba_kernel, cgba_warm_from_with_scratch, CgbaConfig, CgbaReport,
    CgbaScratch, CongestionGame, GameStructure, Profile, ResourceWeights, ShardPlan, SplitGame,
    StrategyFilter,
};
use eotora_obs::{NoopRecorder, Recorder};
use eotora_util::pool::WorkerPool;
use eotora_util::rng::Pcg32;

use crate::bdma::P2aSolver;
use crate::p2a::P2aProblem;

/// Upper bound on post-merge global best-response sweeps over the cut
/// players. Each sweep visits every cut player once in ascending order and
/// stops early when a sweep makes no move; four sweeps settle the small
/// cross-island interactions a weak cut leaves behind without reopening
/// the whole game.
pub const RECONCILE_PASSES: usize = 4;

/// One shard's dense solver state: the remapped local game plus the cold
/// and warm CGBA scratches (separate, for the same reason
/// [`crate::bdma::CgbaSolver`] keeps two — a cold restart must not wipe
/// the warm snapshot).
#[derive(Debug)]
struct ShardState {
    structure: GameStructure,
    weights: ResourceWeights,
    scratch: CgbaScratch,
    warm_scratch: CgbaScratch,
}

/// What one shard's CGBA run reports back to the merge.
struct ShardRun {
    choices: Vec<usize>,
    iterations: usize,
    probes: u64,
    converged: bool,
}

/// A [`P2aSolver`] running CGBA(λ) per shard of a [`ShardPlan`] on a
/// bounded worker pool, then merging deterministically and reconciling cut
/// players. Owns the plan and per-shard state, rebuilt only when the game
/// *shape* changes (per-slot weight updates are synced in place inside the
/// shard jobs, so steady-state slots allocate nothing).
#[derive(Debug, Default)]
pub struct ShardedCgbaSolver {
    /// CGBA parameters (λ, iteration cap, scheduling rule) applied to
    /// every shard.
    pub config: CgbaConfig,
    /// Shard-count cap handed to [`ShardPlan::compute`]; `0` means one
    /// shard per connected component.
    pub max_shards: usize,
    plan: Option<ShardPlan>,
    shards: Vec<Mutex<ShardState>>,
}

impl ShardedCgbaSolver {
    /// Sharded CGBA with the given λ and shard cap (`0` = auto).
    pub fn with_lambda(lambda: f64, max_shards: usize) -> Self {
        Self {
            config: CgbaConfig { lambda, ..Default::default() },
            max_shards,
            ..Default::default()
        }
    }

    /// The plan of the most recent solve, if any — exposes shard counts
    /// and cut players for telemetry and benches.
    pub fn plan(&self) -> Option<&ShardPlan> {
        self.plan.as_ref()
    }

    /// (Re)computes the plan and per-shard local games when the shape
    /// changed; otherwise leaves them in place (weights are synced inside
    /// the shard jobs).
    fn ensure_plan(&mut self, game: &CongestionGame) {
        let structure = game.structure();
        if self.plan.as_ref().is_some_and(|p| p.matches(structure)) {
            return;
        }
        let plan = ShardPlan::compute(structure, self.max_shards);
        self.shards = plan
            .shards()
            .iter()
            .map(|spec| {
                let (local_structure, local_weights) = spec.build_local(structure, game.weights());
                Mutex::new(ShardState {
                    structure: local_structure,
                    weights: local_weights,
                    scratch: CgbaScratch::default(),
                    warm_scratch: CgbaScratch::default(),
                })
            })
            .collect();
        self.plan = Some(plan);
    }

    /// The shared solve body: split `initial_choices`, run CGBA per shard
    /// (cold or warm scratch), merge, reconcile cut players, emit counters.
    fn solve_split(
        &mut self,
        problem: &P2aProblem,
        initial_choices: Vec<usize>,
        warm: bool,
        recorder: &dyn Recorder,
    ) -> Vec<usize> {
        let game = problem.game();
        self.ensure_plan(game);
        let plan = self.plan.as_ref().expect("ensure_plan installed a plan");
        let locals = plan.split_choices(&initial_choices);
        let config = &self.config;
        let structure = game.structure();
        let weights = game.weights();
        let shards = &self.shards;
        let runs: Vec<ShardRun> = WorkerPool::with_default().map_indexed(plan.num_shards(), |s| {
            let state = &mut *shards[s].lock().expect("shard state poisoned");
            plan.shard(s).sync_local(structure, weights, &mut state.structure, &mut state.weights);
            let local_game = SplitGame { structure: &state.structure, weights: &state.weights };
            let initial = Profile::from_choices(&local_game, locals[s].clone());
            let (report, probes) = if warm {
                let before = state.warm_scratch.probes();
                let report = cgba_warm_from_with_scratch(
                    &local_game,
                    initial,
                    config,
                    &mut state.warm_scratch,
                );
                (report, state.warm_scratch.probes() - before)
            } else {
                let before = state.scratch.probes();
                let report =
                    cgba_from_with_scratch(&local_game, initial, config, &mut state.scratch);
                (report, state.scratch.probes() - before)
            };
            ShardRun {
                choices: report.profile.choices().to_vec(),
                iterations: report.iterations,
                probes,
                converged: report.converged,
            }
        });

        let mut merged = initial_choices;
        let choice_vecs: Vec<Vec<usize>> = runs.iter().map(|r| r.choices.clone()).collect();
        plan.merge_choices(&choice_vecs, &mut merged);

        let mut reconcile_moves = 0u64;
        if !plan.cut_players().is_empty() {
            let mut profile = Profile::from_choices(game, merged);
            for _ in 0..RECONCILE_PASSES {
                let mut moved = false;
                for &i in plan.cut_players() {
                    let cost = profile.player_cost(game, i);
                    let (s, br) = profile.best_response(game, i);
                    if (1.0 - self.config.lambda) * cost > br {
                        profile.switch(game, i, s);
                        reconcile_moves += 1;
                        moved = true;
                    }
                }
                if !moved {
                    break;
                }
            }
            merged = profile.choices().to_vec();
        }

        if recorder.is_enabled() {
            let iterations: u64 = runs.iter().map(|r| r.iterations as u64).sum();
            let probes: u64 = runs.iter().map(|r| r.probes).sum();
            recorder.add(eotora_obs::COUNTER_CGBA_ITERATIONS, iterations);
            recorder.add(eotora_obs::COUNTER_CGBA_PROBES, probes);
            if warm {
                recorder.add(eotora_obs::COUNTER_CGBA_WARM_MOVES, iterations);
            }
            if runs.iter().all(|r| r.converged) {
                recorder.add(eotora_obs::COUNTER_CGBA_CONVERGED, 1);
            }
            recorder.add(eotora_obs::COUNTER_SHARD_SOLVES, plan.num_shards() as u64);
            if !plan.cut_players().is_empty() {
                recorder
                    .add(eotora_obs::COUNTER_SHARD_CUT_PLAYERS, plan.cut_players().len() as u64);
                recorder.add(eotora_obs::COUNTER_SHARD_RECONCILE_MOVES, reconcile_moves);
            }
        }
        merged
    }
}

impl P2aSolver for ShardedCgbaSolver {
    fn name(&self) -> &'static str {
        "Sharded-CGBA"
    }

    fn solve(&mut self, problem: &P2aProblem, rng: &mut Pcg32) -> Vec<usize> {
        self.solve_with(problem, rng, &NoopRecorder)
    }

    fn solve_with(
        &mut self,
        problem: &P2aProblem,
        rng: &mut Pcg32,
        recorder: &dyn Recorder,
    ) -> Vec<usize> {
        // The initial profile is drawn from the *global* game, exactly like
        // the sequential CgbaSolver — same RNG consumption, same split seed.
        let initial = Profile::random(problem.game(), rng);
        self.solve_split(problem, initial.choices().to_vec(), false, recorder)
    }

    fn solve_seeded(
        &mut self,
        problem: &P2aProblem,
        seed: Option<&[usize]>,
        rng: &mut Pcg32,
        recorder: &dyn Recorder,
    ) -> Vec<usize> {
        let warm_seed = seed.and_then(|c| Profile::from_retained_choices(problem.game(), c));
        let Some(initial) = warm_seed else {
            return self.solve_with(problem, rng, recorder);
        };
        self.solve_split(problem, initial.choices().to_vec(), true, recorder)
    }
}

/// Result of [`cgba_sharded_filtered`]: the merged report plus shard-level
/// accounting for the robust ladder's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedFilteredOutcome {
    /// The merged profile with global costs — drop-in for the report a
    /// single filtered [`cgba_kernel`] run would have produced. Its
    /// `iterations` include the reconciliation moves.
    pub report: CgbaReport,
    /// Shards the plan produced (1 when the cut was not weak).
    pub shards_used: usize,
    /// Shards whose run ended un-converged — the deadline (or iteration
    /// cap) cut them short and their best-so-far profile was merged. Each
    /// shard degrades alone; converged shards still contribute their
    /// equilibrium.
    pub degraded_shards: u64,
    /// Global best-response moves the cut-player reconciliation made.
    pub reconcile_moves: u64,
    /// Cost evaluations of the shard kernels (the `cgba.probes` unit;
    /// reconciliation scans are not counted, as on the plain path).
    pub probes: u64,
}

/// The sharded counterpart of a filtered [`cgba_kernel`] run: split, solve
/// each shard on the kernel with the filter projected onto its local view
/// ([`StrategyFilter::project`]) and the shared `should_stop` deadline,
/// merge, then reconcile cut players with *filtered* global best responses
/// (also deadline-polled). Built for the robust path, where plans are not
/// cached — locals and their scratches are built per call.
///
/// On separable games with an all-allowing filter and a never-firing
/// `should_stop`, the merged choices equal the sequential filtered run
/// move for move (same restriction argument as the module docs). A shard
/// that misses the deadline merges its best-so-far profile while the
/// others still converge — the failure is contained to the shard.
///
/// # Panics
///
/// Same conditions as [`cgba_kernel`].
pub fn cgba_sharded_filtered(
    game: &CongestionGame,
    initial: Profile,
    config: &CgbaConfig,
    filter: &StrategyFilter,
    max_shards: usize,
    should_stop: &(dyn Fn() -> bool + Sync),
) -> ShardedFilteredOutcome {
    let mut scratch = CgbaScratch::default();
    cgba_sharded_filtered_in(
        game,
        initial,
        config,
        filter,
        max_shards,
        false,
        should_stop,
        &mut scratch,
    )
}

/// [`cgba_sharded_filtered`] with a caller-owned scratch for the
/// single-shard case: when the plan does not cut, the one kernel run uses
/// `scratch`, warm-started when `warm` is set, exactly like the
/// sequential robust solve.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cgba_sharded_filtered_in(
    game: &CongestionGame,
    initial: Profile,
    config: &CgbaConfig,
    filter: &StrategyFilter,
    max_shards: usize,
    warm: bool,
    should_stop: &(dyn Fn() -> bool + Sync),
    scratch: &mut CgbaScratch,
) -> ShardedFilteredOutcome {
    let plan = ShardPlan::compute(game.structure(), max_shards);
    if plan.is_trivial() {
        let before = scratch.probes();
        let report = cgba_kernel(game, initial, config, Some(filter), warm, should_stop, scratch);
        let degraded_shards = u64::from(!report.converged);
        return ShardedFilteredOutcome {
            report,
            shards_used: 1,
            degraded_shards,
            reconcile_moves: 0,
            probes: scratch.probes() - before,
        };
    }

    let initial_cost = initial.total_cost(game);
    let locals = plan.split_choices(initial.choices());
    let structure = game.structure();
    let weights = game.weights();
    let runs: Vec<ShardRun> = WorkerPool::with_default().map_indexed(plan.num_shards(), |s| {
        let spec = plan.shard(s);
        let (local_structure, local_weights) = spec.build_local(structure, weights);
        let local_game = SplitGame { structure: &local_structure, weights: &local_weights };
        let local_filter = filter.project(spec, &local_structure);
        let init = Profile::from_choices(&local_game, locals[s].clone());
        let mut local_scratch = CgbaScratch::default();
        let report = cgba_kernel(
            &local_game,
            init,
            config,
            Some(&local_filter),
            false,
            should_stop,
            &mut local_scratch,
        );
        ShardRun {
            choices: report.profile.choices().to_vec(),
            iterations: report.iterations,
            probes: local_scratch.probes(),
            converged: report.converged,
        }
    });

    let mut merged = initial.choices().to_vec();
    let choice_vecs: Vec<Vec<usize>> = runs.iter().map(|r| r.choices.clone()).collect();
    plan.merge_choices(&choice_vecs, &mut merged);
    let mut iterations: usize = runs.iter().map(|r| r.iterations).sum();
    let probes = runs.iter().map(|r| r.probes).sum();
    let converged = runs.iter().all(|r| r.converged);
    let degraded_shards = runs.iter().filter(|r| !r.converged).count() as u64;

    let mut profile = Profile::from_choices(game, merged);
    let mut reconcile_moves = 0u64;
    if !plan.cut_players().is_empty() {
        'passes: for _ in 0..RECONCILE_PASSES {
            let mut moved = false;
            for &i in plan.cut_players() {
                if should_stop() {
                    break 'passes;
                }
                let cost = profile.player_cost(game, i);
                let Some((s, br)) = profile.best_response_filtered(game, i, filter) else {
                    continue;
                };
                if (1.0 - config.lambda) * cost > br {
                    profile.switch(game, i, s);
                    reconcile_moves += 1;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
    }
    iterations += reconcile_moves as usize;
    let total_cost = profile.total_cost(game);
    ShardedFilteredOutcome {
        report: CgbaReport { profile, total_cost, initial_cost, iterations, converged },
        shards_used: plan.num_shards(),
        degraded_shards,
        reconcile_moves,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdma::{solve_p2, BdmaConfig, CgbaSolver};
    use crate::system::{MecSystem, SystemConfig};
    use eotora_states::{PaperStateConfig, StateProvider, SystemState};
    use eotora_topology::RandomTopologyConfig;

    fn island_system(
        devices: usize,
        islands: usize,
        straddlers: usize,
        seed: u64,
    ) -> (MecSystem, SystemState) {
        let mut topology = RandomTopologyConfig::scale_up(devices, islands);
        topology.island_straddlers = straddlers;
        let config = SystemConfig { topology, ..SystemConfig::paper_defaults(devices) };
        let system = MecSystem::random(&config, seed);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        let state = p.observe(0, system.topology());
        (system, state)
    }

    #[test]
    fn sharded_solve_is_decision_identical_on_separable_topology() {
        let (system, state) = island_system(48, 4, 0, 7);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let mut sequential = CgbaSolver::default();
        let mut sharded = ShardedCgbaSolver::default();
        let mut rng_a = Pcg32::seed(3);
        let mut rng_b = Pcg32::seed(3);
        let a = sequential.solve(&problem, &mut rng_a);
        let b = sharded.solve(&problem, &mut rng_b);
        assert_eq!(a, b, "sharded choices diverged from the sequential oracle");
        assert_eq!(rng_a, rng_b, "RNG streams diverged");
        let plan = sharded.plan().unwrap();
        assert!(plan.num_shards() > 1, "island topology produced {} shards", plan.num_shards());
        assert!(plan.cut_players().is_empty());

        // Warm (seeded) path from the converged profile must also agree.
        let a2 = sequential.solve_seeded(&problem, Some(&a), &mut rng_a, &NoopRecorder);
        let b2 = sharded.solve_seeded(&problem, Some(&b), &mut rng_b, &NoopRecorder);
        assert_eq!(a2, b2);
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn sharded_bdma_solution_matches_sequential_on_separable_topology() {
        let (system, state) = island_system(36, 3, 0, 21);
        let config = BdmaConfig { rounds: 3, ..Default::default() };
        let mut sequential = CgbaSolver::default();
        let mut sharded = ShardedCgbaSolver::default();
        let sol_a =
            solve_p2(&system, &state, 100.0, 40.0, &config, &mut sequential, &mut Pcg32::seed(5));
        let sol_b =
            solve_p2(&system, &state, 100.0, 40.0, &config, &mut sharded, &mut Pcg32::seed(5));
        assert_eq!(sol_a, sol_b);
    }

    #[test]
    fn straddlers_are_reconciled_within_one_percent_social_cost() {
        let (system, state) = island_system(40, 4, 4, 11);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let game = problem.game();
        let mut sequential = CgbaSolver::default();
        let mut sharded = ShardedCgbaSolver::default();
        let a = sequential.solve(&problem, &mut Pcg32::seed(9));
        let b = sharded.solve(&problem, &mut Pcg32::seed(9));
        let plan = sharded.plan().unwrap();
        assert!(!plan.cut_players().is_empty(), "straddlers should be cut players");
        let cost_a = Profile::from_choices(game, a).total_cost(game);
        let cost_b = Profile::from_choices(game, b.clone()).total_cost(game);
        assert!(
            cost_b <= cost_a * 1.01 + 1e-12,
            "sharded social cost {cost_b} more than 1% above sequential {cost_a}"
        );
        // Reconciliation ran to a fixpoint on this instance: every cut
        // player ends on a global best response (non-cut players may be
        // nudged slightly off theirs by those moves — that is exactly the
        // ≤1% social-cost gap asserted above).
        let profile = Profile::from_choices(game, b);
        for &i in plan.cut_players() {
            let cost = profile.player_cost(game, i);
            let (_, br) = profile.best_response(game, i);
            assert!(cost <= br + 1e-9, "cut player {i} not reconciled: {cost} vs {br}");
        }
    }

    #[test]
    fn dense_paper_topology_degrades_to_single_shard() {
        // paper_defaults coverage makes nearly every device a cut player —
        // the plan must refuse to cut and behave exactly sequentially.
        let system = MecSystem::random(&SystemConfig::paper_defaults(20), 33);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 33);
        let state = p.observe(0, system.topology());
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let mut sequential = CgbaSolver::default();
        let mut sharded = ShardedCgbaSolver::default();
        let a = sequential.solve(&problem, &mut Pcg32::seed(1));
        let b = sharded.solve(&problem, &mut Pcg32::seed(1));
        assert_eq!(a, b);
        assert!(sharded.plan().unwrap().is_trivial());
    }

    #[test]
    fn filtered_sharded_matches_sequential_with_open_filter() {
        let (system, state) = island_system(30, 3, 0, 13);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let game = problem.game();
        let filter = StrategyFilter::allow_all(game.structure());
        let config = CgbaConfig::default();
        let initial = Profile::random(game, &mut Pcg32::seed(2));
        let reference = cgba_from_filtered(game, initial.clone(), &config, &filter, || false);
        let out = cgba_sharded_filtered(game, initial, &config, &filter, 0, &|| false);
        assert!(out.shards_used > 1);
        assert_eq!(out.degraded_shards, 0);
        assert_eq!(out.report.profile.choices(), reference.profile.choices());
        assert!(out.report.converged);
    }

    #[test]
    fn expired_deadline_degrades_every_shard_but_still_merges() {
        let (system, state) = island_system(30, 3, 0, 17);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let game = problem.game();
        let filter = StrategyFilter::allow_all(game.structure());
        let initial = Profile::random(game, &mut Pcg32::seed(4));
        let out =
            cgba_sharded_filtered(game, initial, &CgbaConfig::default(), &filter, 0, &|| true);
        assert!(out.shards_used > 1);
        assert_eq!(out.degraded_shards, out.shards_used as u64);
        assert!(!out.report.converged);
        assert_eq!(out.report.profile.choices().len(), game.num_players());
    }

    #[test]
    fn shard_counters_are_emitted() {
        let (system, state) = island_system(40, 4, 2, 19);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let mut sharded = ShardedCgbaSolver::default();
        let rec = eotora_obs::MetricsRecorder::new();
        sharded.solve_with(&problem, &mut Pcg32::seed(6), &rec);
        let shards = sharded.plan().unwrap().num_shards() as u64;
        assert_eq!(rec.counter(eotora_obs::COUNTER_SHARD_SOLVES), shards);
        assert_eq!(rec.counter(eotora_obs::COUNTER_SHARD_CUT_PLAYERS), 2);
        assert!(rec.counter(eotora_obs::COUNTER_CGBA_ITERATIONS) > 0);
    }

    #[test]
    fn max_shards_cap_is_respected() {
        let (system, state) = island_system(48, 6, 0, 23);
        let freqs = system.min_frequencies();
        let problem = P2aProblem::build(&system, &state, &freqs);
        let mut capped = ShardedCgbaSolver { max_shards: 2, ..Default::default() };
        let mut auto = ShardedCgbaSolver::default();
        let a = capped.solve(&problem, &mut Pcg32::seed(8));
        let b = auto.solve(&problem, &mut Pcg32::seed(8));
        assert_eq!(capped.plan().unwrap().num_shards(), 2);
        assert!(auto.plan().unwrap().num_shards() > 2);
        // Bin-packing changes which shards solve which component but not
        // the per-component dynamics: choices agree.
        assert_eq!(a, b);
    }
}
