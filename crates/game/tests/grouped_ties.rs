//! Property tests for the kernel's grouped best responses under rounding
//! ties. The games are bundle-shaped like P2-A: each strategy is one head
//! resource plus a per-group suffix shared by the group's strategies. Head
//! weights come from a tiny value set and its 1–2-ulp neighbours, so heads
//! tie exactly (the first minimum must win) and distinct heads often round
//! to the same strategy cost (the group must fall back to an in-order
//! rescan). The kernel must make the moves of the naive rescan and report
//! what `cgba_from_reference` and `cgba_from_filtered` report.

use eotora_game::{
    cgba_from_filtered, cgba_from_reference, cgba_from_with_scratch, cgba_kernel,
    cgba_warm_from_with_scratch, CgbaConfig, CgbaReport, CgbaScratch, CongestionGame, Profile,
    StrategyFilter,
};
use eotora_util::rng::Pcg32;
use proptest::prelude::*;

/// `x` moved by `steps` units in the last place.
fn ulps(x: f64, steps: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(steps))
}

/// `base` nudged by up to two ulps either way.
fn tiny_value(rng: &mut Pcg32, base: f64) -> f64 {
    ulps(base, rng.below(5) as i64 - 2)
}

/// A bundle-shaped game over `heads` head resources and `groups` suffix
/// slots of `suffix_len` resources each. Every player gets one to
/// `groups` groups; a group pairs a suffix slot with a run of head
/// resources, which repeats across groups (shared head sets) unless the
/// player reweights it. A player's head weights sit within two ulps of one
/// base value and the suffix outweighs the heads, so heads on equally
/// loaded resources differ by a few ulps and their strategy costs often
/// round together. `pushers` more players each choose among a few head
/// resources with one heavy weight.
fn bundle_game(
    rng: &mut Pcg32,
    players: usize,
    heads: usize,
    groups: usize,
    suffix_len: usize,
    pushers: usize,
) -> CongestionGame {
    let weights: Vec<f64> = (0..heads)
        .map(|_| 1.0)
        .chain((0..groups * suffix_len).map(|_| [1.0, 2.0][rng.below(2)]))
        .collect();
    let mut game = CongestionGame::new(weights);
    for _ in 0..players {
        let base = [0.5, 1.0, 1.5][rng.below(3)];
        let head_weights: Vec<f64> = (0..heads).map(|_| tiny_value(rng, base)).collect();
        let mut strategies = Vec::new();
        for g in 0..1 + rng.below(groups) {
            let slot = rng.below(groups);
            let suffix: Vec<(usize, f64)> = (0..suffix_len)
                .map(|k| (heads + slot * suffix_len + k, [2.0, 3.0][rng.below(2)]))
                .collect();
            let start = rng.below(heads);
            let len = 1 + rng.below(heads - start);
            // Every other group may put fresh weights on its heads.
            let fresh = g % 2 == 1 && rng.below(2) == 0;
            for (r, &shared) in head_weights.iter().enumerate().skip(start).take(len) {
                let w = if fresh { tiny_value(rng, base) } else { shared };
                let mut strategy = vec![(r, w)];
                strategy.extend(&suffix);
                strategies.push(strategy);
            }
        }
        game.add_player(strategies);
    }
    // Pushers move heavy weights between head resources, so a head term
    // jumps across its head set's cached minimum and second head, in
    // either direction, between two moves.
    for _ in 0..pushers {
        let strategies = (0..1 + rng.below(heads))
            .map(|_| vec![(rng.below(heads), [0.25, 1.0, 4.0][rng.below(3)])])
            .collect();
        game.add_player(strategies);
    }
    game.validate().expect("generated game is valid");
    game
}

/// A random filter disallowing each strategy with probability 1/4.
fn random_filter(rng: &mut Pcg32, game: &CongestionGame) -> StrategyFilter {
    let mut filter = StrategyFilter::allow_all(game.structure());
    for i in 0..game.num_players() {
        for s in 0..game.strategies(i).len() {
            if rng.below(4) == 0 {
                filter.disallow(i, s);
            }
        }
    }
    filter
}

/// The naive (filtered) MaxGain rescan through the public API only,
/// recording every move it makes.
fn naive_moves(
    game: &CongestionGame,
    initial: Profile,
    config: &CgbaConfig,
    filter: Option<&StrategyFilter>,
) -> Vec<(usize, usize)> {
    let mut profile = initial;
    let mut moves = Vec::new();
    while moves.len() < config.max_iterations {
        let mut mover: Option<(usize, usize)> = None;
        let mut best_gap = 0.0;
        for i in 0..game.num_players() {
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
        let Some((i, s)) = mover else {
            break;
        };
        profile.switch(game, i, s);
        moves.push((i, s));
    }
    moves
}

fn same_bits(a: &CgbaReport, b: &CgbaReport) -> bool {
    a == b
        && a.total_cost.to_bits() == b.total_cost.to_bits()
        && a.initial_cost.to_bits() == b.initial_cost.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..Default::default() })]

    /// Unfiltered and filtered kernel runs on tie-heavy bundle games make
    /// the naive rescan's moves and report the oracles' results bit for
    /// bit.
    #[test]
    fn grouped_kernel_matches_the_rescan_under_ties(
        seed in 0u64..1_000_000,
        players in 1usize..12,
        heads in 1usize..7,
        groups in 1usize..4,
        suffix_len in 0usize..3,
        lambda in 0usize..2,
        pushers in 0usize..4,
    ) {
        let mut rng = Pcg32::seed(seed);
        let game = bundle_game(&mut rng, players, heads, groups, suffix_len, pushers);
        let config = CgbaConfig { lambda: [0.0, 0.05][lambda], ..Default::default() };
        let initial = Profile::random(&game, &mut Pcg32::seed(seed ^ 0x71E5));

        let mut scratch = CgbaScratch::default();
        let report = cgba_from_with_scratch(&game, initial.clone(), &config, &mut scratch);
        let oracle = cgba_from_reference(&game, initial.clone(), &config);
        prop_assert!(same_bits(&report, &oracle), "{:?} vs {:?}", report, oracle);
        prop_assert_eq!(scratch.moves(), &naive_moves(&game, initial.clone(), &config, None)[..]);

        let filter = random_filter(&mut rng, &game);
        let report = cgba_kernel(&game, initial.clone(), &config, Some(&filter), false,
            || false, &mut scratch);
        let oracle = cgba_from_filtered(&game, initial.clone(), &config, &filter, || false);
        prop_assert!(same_bits(&report, &oracle), "{:?} vs {:?}", report, oracle);
        prop_assert_eq!(scratch.moves(), &naive_moves(&game, initial, &config, Some(&filter))[..]);
    }
}

/// Two heads one ulp apart in front of a suffix that absorbs their
/// difference: both strategy costs round to the same float, so the rescan
/// picks the *first* strategy even though its head is the larger one. A
/// group that trusted its minimum head alone would pick the second.
#[test]
fn a_rounding_tie_keeps_the_first_strategy() {
    let (hi, lo) = (1.0, ulps(1.0, -1));
    let mut game = CongestionGame::new(vec![1.0; 4]);
    // Player 0 starts crowded on resource 3 by player 1 and must move into
    // the group {0, 1} × suffix 2.
    game.add_player(vec![vec![(0, hi), (2, 2.0)], vec![(1, lo), (2, 2.0)], vec![(3, 1.0)]]);
    game.add_player(vec![vec![(3, 10.0)]]);
    let initial = Profile::from_choices(&game, vec![2, 0]);
    let cost_of = |s: usize| {
        let mut p = initial.clone();
        p.switch(&game, 0, s);
        p.player_cost(&game, 0)
    };
    assert_eq!(cost_of(0), cost_of(1), "the two strategies must tie after rounding");

    let config = CgbaConfig::default();
    let mut scratch = CgbaScratch::default();
    let report = cgba_from_with_scratch(&game, initial.clone(), &config, &mut scratch);
    let oracle = cgba_from_reference(&game, initial.clone(), &config);
    assert!(same_bits(&report, &oracle), "{report:?} vs {oracle:?}");
    assert_eq!(scratch.moves(), &[(0, 0)]);
    assert_eq!(naive_moves(&game, initial, &config, None), [(0, 0)]);
}

/// A group the filter partly disallows scans its allowed members, so a
/// head change it reads must reach it even when the change leaves its head
/// set's cached minimum and second head as they were.
#[test]
fn a_filtered_group_sees_a_change_above_the_second_head() {
    // Resources 0–2 are heads, 3 is crowded, 4 and 5 are suffixes.
    let mut game = CongestionGame::new(vec![1.0; 6]);
    let group = |suffix: usize| (0..3).map(move |r| vec![(r, 1.0), (suffix, 1.0)]);
    game.add_player(group(5).chain(group(4)).collect());
    // Player 1 leaves the crowd for head 2, raising player 0's third head
    // (2.2 → 3.2) above its second (2.0).
    game.add_player(vec![vec![(3, 1.0)], vec![(2, 1.0)]]);
    for (r, w) in [(0, 0.5), (1, 1.0), (2, 1.2), (4, 1.0), (3, 10.0)] {
        game.add_player(vec![vec![(r, w)]]);
    }
    let mut filter = StrategyFilter::allow_all(game.structure());
    filter.disallow(0, 0);
    filter.disallow(0, 1);
    let initial = Profile::from_choices(&game, vec![3, 0, 0, 0, 0, 0, 0]);

    let config = CgbaConfig::default();
    let mut scratch = CgbaScratch::default();
    let report =
        cgba_kernel(&game, initial.clone(), &config, Some(&filter), false, || false, &mut scratch);
    let oracle = cgba_from_filtered(&game, initial.clone(), &config, &filter, || false);
    assert!(same_bits(&report, &oracle), "{report:?} vs {oracle:?}");
    assert_eq!(scratch.moves(), &[(1, 1)]);
    assert_eq!(naive_moves(&game, initial, &config, Some(&filter)), [(1, 1)]);
}

/// An empty strategy has no head, so the strategies after it must not
/// join its group: their terms change under it.
#[test]
fn strategies_after_an_empty_one_stay_current() {
    let mut game = CongestionGame::new(vec![1.0; 3]);
    game.add_player(vec![vec![], vec![(0, 1.0)], vec![(1, 1.0)]]);
    // Player 1 leaves the crowd on resource 2 for resource 0, so player 0
    // should then switch from resource 0 to resource 1.
    game.add_player(vec![vec![(2, 1.0)], vec![(0, 1.0)]]);
    game.add_player(vec![vec![(2, 10.0)]]);
    let mut filter = StrategyFilter::allow_all(game.structure());
    filter.disallow(0, 0);
    let initial = Profile::from_choices(&game, vec![1, 0, 0]);

    let config = CgbaConfig::default();
    let mut scratch = CgbaScratch::default();
    let report =
        cgba_kernel(&game, initial.clone(), &config, Some(&filter), false, || false, &mut scratch);
    let oracle = cgba_from_filtered(&game, initial.clone(), &config, &filter, || false);
    assert!(same_bits(&report, &oracle), "{report:?} vs {oracle:?}");
    assert_eq!(scratch.moves(), &[(1, 1), (0, 2)]);
    assert_eq!(naive_moves(&game, initial, &config, Some(&filter)), [(1, 1), (0, 2)]);
}

/// The fixture of the head-set rule tests. Player 0 chooses among
/// strategies `k = 0..heads.len()`, each head resource `k` plus one shared
/// suffix resource, and a home strategy on a resource of its own; it
/// starts at home. `heads[k]` is the head resource's weight `m` and its
/// background load. Player 1, the pusher, moves a weight of 4 from
/// resource `from` to resource `to`; resource `heads.len() + 2` (weight
/// 0.5, background load `park_load`) is a spare place for it, and the
/// suffix and home are `heads.len()` and `heads.len() + 1`. Every
/// background load is one blocker player with a single strategy, so the
/// heads of player 0 only change when the pusher moves. Heads cost
/// `m·(load + 1)` and the suffix `suffix_load + 1`.
fn rule_game(
    heads: &[(f64, f64)],
    suffix_load: f64,
    home_load: f64,
    (from, to): (usize, usize),
    park_load: f64,
) -> (CongestionGame, Profile) {
    let (suffix, home) = (heads.len(), heads.len() + 1);
    let weights = heads.iter().map(|&(m, _)| m).chain([1.0, 1.0, 0.5]).collect();
    let mut game = CongestionGame::new(weights);
    let mut strategies: Vec<_> = (0..heads.len()).map(|k| vec![(k, 1.0), (suffix, 1.0)]).collect();
    strategies.push(vec![(home, 1.0)]);
    game.add_player(strategies);
    game.add_player(vec![vec![(from, 4.0)], vec![(to, 4.0)]]);
    let loads = heads.iter().map(|&(_, load)| load).chain([suffix_load, home_load, park_load]);
    for (r, load) in loads.enumerate().filter(|&(_, load)| load > 0.0) {
        game.add_player(vec![vec![(r, load)]]);
    }
    game.validate().expect("fixture is valid");
    let mut choices = vec![0; game.num_players()];
    choices[0] = heads.len();
    let initial = Profile::from_choices(&game, choices);
    (game, initial)
}

/// Solves `game` from `initial` on a fresh scratch, checks it against both
/// oracles, and returns its moves and its cost probes.
fn solve_checked(game: &CongestionGame, initial: &Profile) -> (Vec<(usize, usize)>, u64) {
    let config = CgbaConfig::default();
    let mut scratch = CgbaScratch::default();
    let report = cgba_from_with_scratch(game, initial.clone(), &config, &mut scratch);
    let oracle = cgba_from_reference(game, initial.clone(), &config);
    assert!(same_bits(&report, &oracle), "{report:?} vs {oracle:?}");
    assert_eq!(scratch.moves(), naive_moves(game, initial.clone(), &config, None));
    (scratch.moves().to_vec(), scratch.probes())
}

/// One ulp above and below 1.
const ABOVE_ONE: f64 = 1.0 + f64::EPSILON;
const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// The pusher leaves head 2 (cost 5 → 1), which falls below the minimum
/// (2, head 0) and so becomes it, at its own position.
#[test]
fn a_head_falling_below_the_minimum_takes_its_position() {
    let heads = [(1.0, 1.0), (1.0, 2.0), (1.0, 0.0)];
    let (game, initial) = rule_game(&heads, 0.0, 2.5, (2, 5), 0.0);
    assert_eq!(solve_checked(&game, &initial).0, [(1, 1), (0, 2)]);
}

/// The pusher leaves head 1 (cost ≈ 6 → 2 − 1 ulp), which falls below the
/// minimum (2, head 0); the old minimum becomes the second head. Behind a
/// suffix of 8 both round to the same strategy cost, so the first strategy
/// must win — only a rescan finds that, so the second head must be right.
#[test]
fn a_head_falling_below_the_minimum_keeps_the_old_one_second() {
    let heads = [(1.0, 1.0), (BELOW_ONE, 1.0), (1.0, 2.0)];
    let (game, initial) = rule_game(&heads, 7.0, 9.5, (1, 5), 0.0);
    assert_eq!(solve_checked(&game, &initial).0, [(1, 1), (0, 0)]);
}

/// The pusher leaves head 0 (cost 6 → 2), which lands exactly on the
/// minimum (2, head 1): the first position holding it must win.
#[test]
fn a_head_landing_on_the_minimum_earlier_takes_the_first_position() {
    let heads = [(1.0, 1.0), (1.0, 1.0), (1.0, 2.0)];
    let (game, initial) = rule_game(&heads, 0.0, 2.5, (0, 5), 0.0);
    assert_eq!(solve_checked(&game, &initial).0, [(1, 1), (0, 0)]);
}

/// The pusher leaves head 0 (cost ≈ 6 → 2 + 2 ulps), which lands strictly
/// between the minimum (2, head 1) and the second head (3) and so becomes
/// the second head. Behind a suffix of 8 it rounds onto the minimum's
/// strategy cost, so the rescan's first pick, head 0, must win.
#[test]
fn a_head_landing_between_the_minimum_and_the_second_becomes_second() {
    let heads = [(ABOVE_ONE, 1.0), (1.0, 1.0), (1.0, 2.0)];
    let (game, initial) = rule_game(&heads, 7.0, 9.5, (0, 5), 0.0);
    assert_eq!(solve_checked(&game, &initial).0, [(1, 1), (0, 0)]);
}

/// The pusher joins head 0 (cost 2 → 6), the minimum: its head set must be
/// rescanned, which makes head 1 (3) the new minimum.
#[test]
fn a_head_rising_off_the_minimum_forces_a_rescan() {
    let heads = [(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)];
    let (game, initial) = rule_game(&heads, 0.0, 3.5, (5, 0), 20.0);
    assert_eq!(solve_checked(&game, &initial).0, [(1, 1), (0, 1)]);
}

/// The pusher joins head 1 (cost 2 + 2 ulps → ≈ 6), the second head, which
/// ties the minimum (2, head 0) behind a suffix of 8. The head set must be
/// rescanned: its new second head (3, head 2) no longer ties, so player 0
/// evaluates two strategy costs instead of rescanning all three. A stale
/// second head would only ever be too small, so no decision shows it; the
/// probe count does.
#[test]
fn a_head_rising_off_the_second_head_forces_a_rescan() {
    let heads = [(1.0, 1.0), (ABOVE_ONE, 1.0), (1.0, 2.0)];
    let (game, initial) = rule_game(&heads, 7.0, 8.0, (5, 1), 20.0);
    let (moves, probes) = solve_checked(&game, &initial);
    assert_eq!(moves, [(1, 1)]);
    // Scan 1: 8 current costs; 5 + 1 for player 0's two groups, 2 for the
    // pusher's group and 1 for each of the 6 blockers. Scan 2: the current
    // costs of the pusher and the 2 blockers beside it, 2 + 1 for player
    // 0, 2 for the pusher and 1 for each of those blockers.
    assert_eq!(probes, (8 + 5 + 1 + 2 + 6) + (3 + 2 + 1 + 2 + 2));
}

/// Zero heads: the pusher leaves head 0, whose cost then underflows from a
/// positive value above the second head to −0.0, onto the minimum +0.0
/// (head 1). `==` ties the two zeros, so the cached minimum keeps its +0.0
/// while its first position moves to head 0; `0 + h` erases the sign, so
/// the strategy costs match the rescan's, which picks head 0.
#[test]
fn zero_heads_of_either_sign_tie() {
    // Resources: heads 0–2, player 0's home, the pusher's spare place.
    let mut game = CongestionGame::new(vec![1e-310, 1e-310, 1e-310, 1e-300, 1e-300]);
    game.add_player(vec![
        vec![(0, BELOW_ONE)],
        vec![(1, 1e-20)],
        vec![(2, 1.0)],
        // Home shares head 0's resource, so its load absorbs player 0's
        // weight 1 there once the pusher's 1e20 comes and goes.
        vec![(0, 1.0), (3, 1.0)],
    ]);
    game.add_player(vec![vec![(0, 1e20)], vec![(4, 1.0)]]);
    game.validate().expect("fixture is valid");
    let initial = Profile::from_choices(&game, vec![3, 0]);
    let mut after = initial.clone();
    after.switch(&game, 1, 1);
    let head0 = 1e-310 * BELOW_ONE * (after.loads()[0] - 1.0 + BELOW_ONE);
    assert!(head0 == 0.0 && head0.is_sign_negative(), "head 0 must cost -0.0, got {head0:e}");

    let (moves, _) = solve_checked(&game, &initial);
    assert_eq!(moves, [(1, 1), (0, 0)]);
}

/// NaN and ∞ heads: two blockers overflow head 0's load to ∞, and player
/// 0's weight there times the resource weight underflows to 0, so head 0
/// costs `0·∞ = NaN` ahead of a head that falls below the minimum. Warm
/// rounds then raise head 0's resource weight (NaN → ∞, which forces a
/// rescan) and lower it again (∞ → NaN, which leaves the cache as it is).
/// Neither form may ever pick the NaN or ∞ head.
#[test]
fn nan_and_infinite_heads_are_never_picked() {
    // Resources: heads 0–3, player 0's home, the pusher's spare place.
    let mut game = CongestionGame::new(vec![1e-200, 1.0, 1.0, 1.0, 1.0, 0.5]);
    game.add_player(
        (0..4)
            .map(|k| vec![(k, if k == 0 { 1e-200 } else { 1.0 })])
            .chain([vec![(4, 1.0)]])
            .collect(),
    );
    game.add_player(vec![vec![(3, 4.0)], vec![(5, 4.0)]]);
    for (r, load) in [(0, 1e308), (0, 1e308), (1, 1.0), (2, 2.0), (4, 1.5)] {
        game.add_player(vec![vec![(r, load)]]);
    }
    game.validate().expect("fixture is valid");
    let initial = Profile::from_choices(&game, vec![4, 0, 0, 0, 0, 0, 0]);
    assert_eq!(initial.loads()[0], f64::INFINITY);

    let config = CgbaConfig::default();
    let mut scratch = CgbaScratch::default();
    let mut seed = initial;
    for (round, m) in [1e-200, 1.0, 1e-200].into_iter().enumerate() {
        game.set_resource_weight(0, m);
        let report = cgba_warm_from_with_scratch(&game, seed.clone(), &config, &mut scratch);
        let oracle = cgba_from_reference(&game, seed.clone(), &config);
        assert!(same_bits(&report, &oracle), "round {round}: {report:?} vs {oracle:?}");
        assert_eq!(scratch.moves(), naive_moves(&game, seed, &config, None), "round {round}");
        assert_ne!(report.profile.choices()[0], 0, "round {round} picked head 0");
        seed = report.profile;
    }
}
