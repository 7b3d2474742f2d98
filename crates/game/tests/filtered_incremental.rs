//! Property tests for the CGBA kernel under its fault-tolerance hooks: with
//! a strategy filter and a stop predicate, `cgba_kernel` must make the same
//! moves and report the same result as the naive filtered rescan
//! (`cgba_from_filtered`), whether it runs cold, warm from the previous
//! converged profile, or warm after the filter or the weights changed.

use eotora_game::{
    cgba_from_filtered, cgba_kernel, CgbaConfig, CgbaReport, CgbaScratch, CongestionGame, Profile,
    SchedulingRule, StrategyFilter,
};
use eotora_util::rng::Pcg32;
use proptest::prelude::*;

/// A random valid game whose strategies share resources. Each player has a
/// base weight per resource; a strategy uses it on a resource half the
/// time and a fresh weight otherwise, so one player's strategies put both
/// equal and unequal weights on a shared resource.
fn random_game(
    rng: &mut Pcg32,
    players: usize,
    resources: usize,
    max_strats: usize,
) -> CongestionGame {
    let weights: Vec<f64> = (0..resources).map(|_| rng.uniform_in(0.2, 3.0)).collect();
    let mut game = CongestionGame::new(weights);
    for _ in 0..players {
        let base: Vec<f64> = (0..resources).map(|_| rng.uniform_in(0.1, 2.0)).collect();
        let num_strats = 1 + rng.below(max_strats);
        let strategies = (0..num_strats)
            .map(|_| {
                let forced = rng.below(resources);
                let mut strategy = Vec::new();
                for (r, &b) in base.iter().enumerate() {
                    if r == forced || rng.below(2) == 0 {
                        let w = if rng.below(2) == 0 { b } else { rng.uniform_in(0.1, 2.0) };
                        strategy.push((r, w));
                    }
                }
                strategy
            })
            .collect();
        game.add_player(strategies);
    }
    game.validate().expect("generated game is valid");
    game
}

/// A random filter: each strategy is disallowed with probability 1/3, and
/// some players lose every strategy (they must then never move).
fn random_filter(rng: &mut Pcg32, game: &CongestionGame) -> StrategyFilter {
    let mut filter = StrategyFilter::allow_all(game.structure());
    for i in 0..game.num_players() {
        let wipe = rng.below(5) == 0;
        for s in 0..game.strategies(i).len() {
            if wipe || rng.below(3) == 0 {
                filter.disallow(i, s);
            }
        }
    }
    filter
}

/// The naive filtered MaxGain loop through the public API only, recording
/// every move it makes and polling `should_stop` once per iteration.
fn naive_trace(
    game: &CongestionGame,
    initial: Profile,
    config: &CgbaConfig,
    filter: &StrategyFilter,
    mut should_stop: impl FnMut() -> bool,
) -> (Vec<(usize, usize)>, CgbaReport) {
    let mut profile = initial;
    let initial_cost = profile.total_cost(game);
    let mut moves = Vec::new();
    let mut converged = false;
    while moves.len() < config.max_iterations {
        if should_stop() {
            break;
        }
        let mut mover: Option<(usize, usize)> = None;
        let mut best_gap = 0.0;
        for i in 0..game.num_players() {
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
        match mover {
            Some((i, s)) => {
                profile.switch(game, i, s);
                moves.push((i, s));
            }
            None => {
                converged = true;
                break;
            }
        }
    }
    let total_cost = profile.total_cost(game);
    let iterations = moves.len();
    (moves, CgbaReport { profile, total_cost, initial_cost, iterations, converged })
}

/// A predicate that fires from its `(k + 1)`-th poll on: the run makes at
/// most `k` moves.
fn stop_after(k: usize) -> impl FnMut() -> bool {
    let mut polls = 0;
    move || {
        polls += 1;
        polls > k
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    /// Cold kernel runs match the oracle and the naive trace move for move,
    /// under random filters and stop-after-k predicates, for both
    /// scheduling rules.
    #[test]
    fn kernel_matches_the_filtered_oracle(
        seed in 0u64..1_000_000,
        players in 1usize..10,
        resources in 1usize..6,
        max_strats in 1usize..6,
        lambda in 0usize..3,
        stop in 0usize..4,
        scheduling in 0usize..2,
    ) {
        let mut rng = Pcg32::seed(seed);
        let game = random_game(&mut rng, players, resources, max_strats);
        let filter = random_filter(&mut rng, &game);
        let config = CgbaConfig {
            lambda: [0.0, 0.05, 0.12][lambda],
            scheduling: [SchedulingRule::MaxGain, SchedulingRule::RoundRobin][scheduling],
            ..Default::default()
        };
        // Stop after 0, 1 or 3 moves, or never.
        let limit = [0, 1, 3, usize::MAX][stop];
        let initial = Profile::random(&game, &mut Pcg32::seed(seed ^ 0x5EED));

        let oracle =
            cgba_from_filtered(&game, initial.clone(), &config, &filter, stop_after(limit));
        let mut scratch = CgbaScratch::default();
        let report = cgba_kernel(&game, initial.clone(), &config, Some(&filter), false,
            stop_after(limit), &mut scratch);
        prop_assert_eq!(&report, &oracle);
        if config.scheduling == SchedulingRule::MaxGain {
            let (moves, naive) = naive_trace(&game, initial, &config, &filter, stop_after(limit));
            prop_assert_eq!(scratch.moves(), &moves[..]);
            prop_assert_eq!(&naive, &oracle);
        }
        // Players with no allowed strategy never move.
        for i in 0..players {
            if filter.first_allowed(i).is_none() {
                prop_assert!(!scratch.moves().iter().any(|&(p, _)| p == i));
            }
        }
    }

    /// Warm chains on one scratch match a fresh scratch and the oracle when
    /// the filter is unchanged, when it changed and when strategy weights
    /// changed between runs.
    #[test]
    fn warm_reuse_matches_a_fresh_scratch(
        seed in 0u64..1_000_000,
        players in 1usize..10,
        resources in 1usize..6,
        max_strats in 1usize..6,
    ) {
        let mut rng = Pcg32::seed(seed);
        let mut game = random_game(&mut rng, players, resources, max_strats);
        let mut filter = random_filter(&mut rng, &game);
        let config = CgbaConfig::default();
        let mut scratch = CgbaScratch::default();
        let mut initial = Profile::random(&game, &mut Pcg32::seed(seed ^ 0xC0FFEE));
        for round in 0..6 {
            let mut fresh = CgbaScratch::default();
            let cold = cgba_kernel(&game, initial.clone(), &config, Some(&filter), false,
                || false, &mut fresh);
            let warm = cgba_kernel(&game, initial.clone(), &config, Some(&filter), true,
                || false, &mut scratch);
            let oracle = cgba_from_filtered(&game, initial, &config, &filter, || false);
            prop_assert_eq!(&warm, &cold, "round {}", round);
            prop_assert_eq!(scratch.moves(), fresh.moves(), "round {}", round);
            prop_assert_eq!(&warm, &oracle, "round {}", round);
            initial = warm.profile;

            // Between runs: a server-style resource weight change always,
            // then by round either nothing else, a new filter, or new
            // strategy weights (both equal-to-base and fresh).
            let r = rng.below(resources);
            game.set_resource_weight(r, rng.uniform_in(0.2, 3.0));
            match round % 3 {
                0 => {}
                1 => filter = random_filter(&mut rng, &game),
                _ => {
                    let i = rng.below(players);
                    let s = rng.below(game.strategies(i).len());
                    let w = rng.uniform_in(0.1, 2.0);
                    let fresh_weights: Vec<f64> = game.strategies(i)[s]
                        .iter()
                        .map(|_| if rng.below(2) == 0 { w } else { rng.uniform_in(0.1, 2.0) })
                        .collect();
                    game.set_strategy_weights(i, s, &fresh_weights);
                }
            }
            // Loads must describe the new weights for the warm seed.
            initial = Profile::from_choices(&game, initial.choices().to_vec());
        }
    }
}

#[test]
fn all_allowed_filter_runs_as_unfiltered() {
    let mut rng = Pcg32::seed(5);
    let game = random_game(&mut rng, 8, 4, 5);
    let config = CgbaConfig::default();
    let initial = Profile::random(&game, &mut Pcg32::seed(6));
    let open = StrategyFilter::allow_all(game.structure());
    let mut a = CgbaScratch::default();
    let mut b = CgbaScratch::default();
    let filtered =
        cgba_kernel(&game, initial.clone(), &config, Some(&open), false, || false, &mut a);
    let plain = cgba_kernel(&game, initial, &config, None, false, || false, &mut b);
    assert_eq!(filtered, plain);
    assert_eq!(a.moves(), b.moves());
    assert_eq!(a.probes(), b.probes());
}

#[test]
fn unchanged_warm_rerun_under_a_filter_probes_nothing() {
    // Re-seeding with the converged profile on an untouched game and the
    // same filter is recognized as converged without a single rescan.
    let mut rng = Pcg32::seed(9);
    let game = random_game(&mut rng, 8, 4, 5);
    let filter = random_filter(&mut rng, &game);
    let config = CgbaConfig::default();
    let mut scratch = CgbaScratch::default();
    let initial = Profile::random(&game, &mut Pcg32::seed(10));
    let first = cgba_kernel(&game, initial, &config, Some(&filter), false, || false, &mut scratch);
    assert!(first.converged);
    let probes = scratch.probes();
    let again = cgba_kernel(
        &game,
        first.profile.clone(),
        &config,
        Some(&filter),
        true,
        || false,
        &mut scratch,
    );
    assert_eq!(again.iterations, 0);
    assert!(again.converged);
    assert_eq!(scratch.probes(), probes);
}

/// A valid game, solved once by the kernel on `scratch`, so the scratch
/// holds a validated layout of it.
fn solved_once(scratch: &mut CgbaScratch) -> CongestionGame {
    let game = random_game(&mut Pcg32::seed(21), 6, 4, 4);
    let initial = Profile::random(&game, &mut Pcg32::seed(22));
    cgba_kernel(&game, initial, &CgbaConfig::default(), None, false, || false, scratch);
    game
}

/// `game`'s strategies over `resource_weights`, with player 0's first
/// strategy weight replaced by `w`, built by the lazy constructor, which
/// does not validate.
fn unvalidated_twin(game: &CongestionGame, resource_weights: Vec<f64>, w: f64) -> CongestionGame {
    let mut twin = CongestionGame::new(resource_weights);
    for i in 0..game.num_players() {
        let mut strategies = game.strategies(i).to_vec();
        if i == 0 {
            strategies[0][0].1 = w;
        }
        twin.add_player(strategies);
    }
    twin
}

/// Solves `game` with the kernel, from player choices all 0.
fn kernel_solve(game: &CongestionGame, scratch: &mut CgbaScratch) {
    let initial = Profile::from_choices(game, vec![0; game.num_players()]);
    cgba_kernel(game, initial, &CgbaConfig::default(), None, false, || false, scratch);
}

/// A strategy weight written NaN after a valid solve must still stop the
/// kernel on the same scratch. Debug builds stop it earlier, in the
/// setter's own assertion.
#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "player weight must be positive"))]
#[cfg_attr(not(debug_assertions), should_panic(expected = "game must validate before solving"))]
fn a_nan_strategy_weight_after_a_valid_solve_panics() {
    let mut scratch = CgbaScratch::default();
    let mut game = solved_once(&mut scratch);
    let mut weights: Vec<f64> = game.strategies(0)[0].iter().map(|&(_, w)| w).collect();
    weights[0] = f64::NAN;
    game.set_strategy_weights(0, 0, &weights);
    kernel_solve(&game, &mut scratch);
}

/// The same game with a NaN strategy weight, built without the setter's
/// assertion, stops the kernel in every build.
#[test]
#[should_panic(expected = "game must validate before solving")]
fn a_nan_strategy_weight_twin_after_a_valid_solve_panics() {
    let mut scratch = CgbaScratch::default();
    let game = solved_once(&mut scratch);
    let twin = unvalidated_twin(&game, game.weights().as_slice().to_vec(), f64::NAN);
    kernel_solve(&twin, &mut scratch);
}

/// A bad resource weight after a valid solve stops the kernel on the same
/// scratch: resource weights are checked on every call.
#[test]
#[should_panic(expected = "game must validate before solving")]
fn a_bad_resource_weight_after_a_valid_solve_panics() {
    let mut scratch = CgbaScratch::default();
    let game = solved_once(&mut scratch);
    let mut weights = game.weights().as_slice().to_vec();
    weights[1] = -1.0;
    let w = game.strategies(0)[0][0].1;
    kernel_solve(&unvalidated_twin(&game, weights, w), &mut scratch);
}

/// The same strategies over fewer resources leave one dangling: the layout
/// of the valid game must not vouch for them.
#[test]
#[should_panic(expected = "game must validate before solving")]
fn the_same_strategies_over_fewer_resources_panic() {
    let mut scratch = CgbaScratch::default();
    let game = solved_once(&mut scratch);
    let mut weights = game.weights().as_slice().to_vec();
    weights.pop();
    let twin = unvalidated_twin(&game, weights, game.strategies(0)[0][0].1);
    // The twin cannot even sum its own loads; the valid game's profile
    // covers every resource.
    let initial = Profile::from_choices(&game, vec![0; game.num_players()]);
    cgba_kernel(&twin, initial, &CgbaConfig::default(), None, false, || false, &mut scratch);
}

/// A layout the non-validating entry point built from an invalid game
/// does not count as validated. Debug builds assert validity in that entry
/// point too, so this runs in release builds only.
#[cfg(not(debug_assertions))]
#[test]
#[should_panic(expected = "game must validate before solving")]
fn a_layout_built_without_validation_is_not_trusted() {
    let game = random_game(&mut Pcg32::seed(21), 6, 4, 4);
    let twin = unvalidated_twin(&game, game.weights().as_slice().to_vec(), f64::NAN);
    let mut scratch = CgbaScratch::default();
    let initial = Profile::from_choices(&twin, vec![0; twin.num_players()]);
    eotora_game::cgba_from_with_scratch(&twin, initial, &CgbaConfig::default(), &mut scratch);
    kernel_solve(&twin, &mut scratch);
}
