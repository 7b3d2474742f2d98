//! Pinned work counts: the exact CGBA moves and cost probes of one short
//! plain run and one short robust run. Decisions are pinned elsewhere; these
//! pin the *work* the kernel does to reach them, so a change that makes
//! the solver do more (or less) work fails here exactly, where wall-clock
//! noise would hide it. Changing a pinned value must be recorded in
//! CHANGES.md.

use eotora_core::fault::FaultSchedule;
use eotora_sim::{robust_config, run, run_robust, Scenario, SimulationResult};

fn scenario() -> Scenario {
    Scenario::paper(20, 42).with_horizon(10)
}

fn work(result: &SimulationResult) -> (u64, u64) {
    let count = |name: &str| result.counters.get(name).copied().unwrap_or(0);
    (count(eotora_obs::COUNTER_CGBA_ITERATIONS), count(eotora_obs::COUNTER_CGBA_PROBES))
}

#[test]
fn plain_run_work_is_pinned() {
    assert_eq!(work(&run(&scenario())), (1090, 280_122));
}

#[test]
fn robust_run_work_is_pinned() {
    let s = scenario();
    let result = run_robust(&s, &FaultSchedule::default(), &robust_config(&s, None));
    assert_eq!(work(&result), (157, 43_796));
}

#[test]
fn paper_scale_work_is_pinned() {
    // The paper's 200-device default over two slots: the exact work of
    // paper-scale plain and robust slot solves.
    let s = Scenario::paper(200, 42).with_horizon(2);
    let plain = work(&run(&s));
    let robust = work(&run_robust(&s, &FaultSchedule::default(), &robust_config(&s, None)));
    assert_eq!((plain, robust), ((2527, 6_247_959), (349, 872_300)));
}
