//! Microbenchmarks of the numerical kernels substituting CVX/Gurobi:
//! scalar minimizers (bisection vs golden section vs Brent vs the Cardano
//! closed form) on the exact P2-B per-server objective, one full P2-B
//! fleet solve, and one cold and one warm CGBA solve of the paper's P2-A
//! game.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use eotora_core::bdma::{CgbaSolver, P2aSolver};
use eotora_core::p2a::P2aProblem;
use eotora_core::p2b::solve_p2b;
use eotora_core::system::{MecSystem, SystemConfig};
use eotora_game::{cgba_from_with_scratch, cgba_kernel, CgbaConfig, CgbaScratch, Profile};
use eotora_optim::cubic::root_in_interval;
use eotora_optim::scalar::{minimize_bisection, minimize_brent, minimize_golden};
use eotora_states::{PaperStateConfig, StateProvider};
use eotora_util::rng::Pcg32;

fn bench(c: &mut Criterion) {
    // The per-server P2-B objective at realistic scales.
    let (v, a_load, q, p) = (100.0, 2.0e7, 40.0, 0.06);
    let (qa, qb) = (4.6 * 16.0, 4.1 * 16.0);
    let c_w = q * p * 1e-3;
    let f = |w: f64| v * a_load / w + c_w * (qa * (w / 1e9) * (w / 1e9) + qb * (w / 1e9));
    let df = |w: f64| -v * a_load / (w * w) + c_w * (2.0 * qa * w / 1e18 + qb / 1e9);
    let (lo, hi) = (1.8e9, 3.6e9);

    let mut group = c.benchmark_group("p2b_scalar_kernels");
    group.bench_function("bisection", |b| {
        b.iter(|| std::hint::black_box(minimize_bisection(f, df, lo, hi, 1.0, 200)))
    });
    group.bench_function("golden_section", |b| {
        b.iter(|| std::hint::black_box(minimize_golden(f, lo, hi, 1.0, 200)))
    });
    group.bench_function("brent", |b| {
        b.iter(|| std::hint::black_box(minimize_brent(f, lo, hi, 1e-12, 200)))
    });
    group.bench_function("cardano_closed_form", |b| {
        b.iter(|| {
            std::hint::black_box(root_in_interval(
                2.0 * qa * c_w / 1e18,
                qb * c_w / 1e9,
                0.0,
                -(v * a_load),
                lo,
                hi,
            ))
        })
    });
    group.finish();

    // Full fleet P2-B plus one CGBA solve for end-to-end context.
    let devices = if eotora_bench::quick_mode() { 20 } else { 100 };
    let system = MecSystem::random(&SystemConfig::paper_defaults(devices), 3);
    let mut states = StateProvider::paper(system.topology(), &PaperStateConfig::default(), 3);
    let state = states.observe(0, system.topology());
    let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
    let mut rng = Pcg32::seed(4);
    let choices = CgbaSolver::default().solve(&p2a, &mut rng);
    let assignments = p2a.assignments_from_choices(&choices);

    c.bench_function("p2b_full_fleet", |b| {
        b.iter(|| std::hint::black_box(solve_p2b(&system, &state, &assignments, 100.0, 40.0)))
    });

    // One cold CGBA solve (one paper Alg. 2 restart) on the same game, on a
    // reused scratch as the engine runs it: the P2-A kernel's wall time
    // without the daemon around it.
    let initial = Profile::random(p2a.game(), &mut Pcg32::seed(5));
    let config = CgbaConfig::default();
    let mut scratch = CgbaScratch::default();
    c.bench_function("cgba_cold_paper_i100", |b| {
        b.iter_batched(
            || initial.clone(),
            |seed| cgba_from_with_scratch(p2a.game(), seed, &config, &mut scratch),
            BatchSize::SmallInput,
        )
    });

    // One warm kernel round as robust BDMA rounds 2..z run it: converge,
    // change only the server weights, then re-solve warm from the converged
    // profile. Each iteration starts from a clone of the snapshotted
    // scratch, so every one does the same work.
    let mut p2a = p2a;
    let converged = cgba_kernel(p2a.game(), initial, &config, None, false, || false, &mut scratch);
    p2a.update_frequencies(&system, &system.max_frequencies());
    c.bench_function("cgba_warm_round_paper_i100", |b| {
        b.iter_batched(
            || (scratch.clone(), converged.profile.clone()),
            |(mut warm, seed)| {
                cgba_kernel(p2a.game(), seed, &config, None, true, || false, &mut warm)
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
