//! The benchmark's own checks: the served decision stream of every
//! workload equals the batch engine's, and the work-count fingerprint
//! repeats across phases and between traced and untraced runs.
//!
//! Fleets are shrunk to a few devices so the checks stay quick in debug
//! builds; every other workload setting is kept.

use std::path::PathBuf;
use std::time::Duration;

use eotora_core::fault::FaultSchedule;

use crate::serve_run::{serve_once, Drive};
use crate::traced::mirror;
use crate::verify::{check_stream, parse_records, same_decisions, Fingerprint};
use crate::workload::{Workload, DEPLOYMENT_SEED, WORKLOADS};

const SLOTS: usize = 12;
const DEVICES: usize = 10;

fn shrunk(w: &Workload) -> Workload {
    Workload { devices: DEVICES, frames: SLOTS, ..*w }
}

fn scratch(test: &str, w: &Workload) -> PathBuf {
    PathBuf::from(".servebench_work").join(format!("{test}-{}-{}", w.name, std::process::id()))
}

/// Removes the scratch root once no test is using it.
fn tidy() {
    let _ = std::fs::remove_dir(".servebench_work");
}

fn served(w: &Workload, seed: u64, drive: Drive<'_>, dir: PathBuf) -> crate::serve_run::ServeRun {
    let frames = w.encode_frames(seed, SLOTS);
    serve_once(w, seed, &frames, drive, &dir).expect("the daemon serves the frames")
}

#[test]
fn served_streams_match_the_batch_engine() {
    for w in WORKLOADS.iter().map(shrunk) {
        // With the run seed equal to the deployment seed the frames are the
        // batch engine's own state stream.
        let run = served(&w, DEPLOYMENT_SEED, Drive::Closed, scratch("batch", &w));
        let records = parse_records(run.decisions.iter().map(|(line, _)| line.as_str()))
            .expect("decision records");
        check_stream(&records, DEVICES).expect("a contiguous, finite stream");
        assert_eq!(records.len(), SLOTS, "{}: every frame decided", w.name);

        let scenario = w.scenario(DEPLOYMENT_SEED).with_horizon(SLOTS as u64);
        let batch = match w.deadline_ms {
            None => eotora_sim::run(&scenario),
            Some(ms) => {
                let robust = eotora_sim::robust_config(&scenario, Some(Duration::from_millis(ms)));
                eotora_sim::run_robust(&scenario, &FaultSchedule::default(), &robust)
            }
        };
        for (k, record) in records.iter().enumerate() {
            let pairs = [
                (record.latency_s, batch.latency.values()[k], "latency_s"),
                (record.cost_usd, batch.cost.values()[k], "cost_usd"),
                (record.queue, batch.queue.values()[k], "queue"),
                (record.bdma_rounds, batch.rounds_used.values()[k], "bdma_rounds"),
            ];
            for (served, batch, field) in pairs {
                assert_eq!(served.to_bits(), batch.to_bits(), "{} slot {k} {field}", w.name);
            }
        }
    }
    tidy();
}

#[test]
fn work_counts_repeat_across_phases_and_tracing() {
    let seed = 5;
    for w in WORKLOADS.iter().map(shrunk) {
        let offsets = w.schedule(seed, SLOTS);
        let open = served(&w, seed, Drive::Open(&offsets), scratch("open", &w));
        let closed = served(&w, seed, Drive::Closed, scratch("closed", &w));
        let fingerprint = Fingerprint::new(&open.summary.counters, open.journal_bytes);
        assert_eq!(Fingerprint::new(&closed.summary.counters, closed.journal_bytes), fingerprint);
        assert!(fingerprint.journal_bytes > 0, "{}: the journal holds the slots", w.name);

        let frames = w.encode_frames(seed, SLOTS);
        let traced = mirror(&w, seed, &frames, &scratch("traced", &w), true).expect("mirror runs");
        let collected = traced.collected.as_ref().expect("the traced mirror collects");
        assert_eq!(Fingerprint::new(&collected.counters, traced.journal_bytes), fingerprint);

        let records = |lines: Vec<&str>| parse_records(lines).expect("decision records");
        let open = records(open.decisions.iter().map(|(l, _)| l.as_str()).collect());
        let closed = records(closed.decisions.iter().map(|(l, _)| l.as_str()).collect());
        let mirrored = records(traced.decisions.iter().map(String::as_str).collect());
        same_decisions(&open, &closed, "open vs closed").expect("identical decisions");
        same_decisions(&open, &mirrored, "open vs traced").expect("identical decisions");
    }
    tidy();
}
