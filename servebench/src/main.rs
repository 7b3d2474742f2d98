//! `servebench` — the served-controller benchmark.
//!
//! ```text
//! servebench --workload <paper-cold|warm-stream|deadline-robust>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the in-process daemon (`eotora_server::serve`) with seeded,
//! pre-encoded state frames: set-up-only starts, then rounds of an
//! open-loop phase at the workload's arrival rate and a closed-loop phase
//! over the same frames. `--trace 1` adds the traced mirror loop and
//! reports per-layer metrics instead of end-to-end ones. Every run
//! verifies its decision streams.
//! The last stdout line is the result object; the line before it is the
//! run record (machine fingerprint, work-count fingerprint, validity).
//! See README.md for the workloads and the layer → metric table.

mod serve_run;
mod stats;
#[cfg(test)]
mod tests;
mod traced;
mod verify;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use eotora_server::DecisionRecord;
use serde_json::Value;

use crate::serve_run::{serve_once, Drive, ServeRun};
use crate::stats::{median, quantile, scaled};
use crate::traced::{mirror, MirrorRun};
use crate::verify::{check_stream, parse_records, quality, same_decisions, Fingerprint};
use crate::workload::Workload;

const USAGE: &str = "usage: servebench --workload <paper-cold|warm-stream|deadline-robust> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-up-only daemon starts per run, on top of the two starts of every
/// round; `setup_s` is the median of all of them.
const SETUP_RUNS: usize = 31;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 35, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".servebench_work");
    let work = root.join(std::process::id().to_string());
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    match outcome {
        Ok(report) => {
            println!("{}", to_json(&report.record));
            println!("{}", to_json(&report.result));
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

struct Report {
    record: Value,
    result: Value,
    correct: bool,
}

/// One metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// One round: the open-loop and closed-loop phases over the same frames.
struct Round {
    open: ServeRun,
    closed: ServeRun,
}

/// What one round measured, per frame (indexed by slot; `None` for a
/// frame without a decision).
struct RoundStats {
    /// Open loop: due time → decision written.
    decision_ms: Vec<Option<f64>>,
    /// Open loop: the same minus the record's own `solve_time_s`.
    non_solve_ms: Vec<Option<f64>>,
    /// Closed loop: previous decision (or the first send) → this decision.
    cycle_s: Vec<Option<f64>>,
    /// Open loop: how late the generator wrote each frame.
    lag_ms: Vec<f64>,
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let w = &args.workload;
    let n = w.frames;
    let rounds = w.rounds(args.seconds as f64);
    let frames = w.encode_frames(args.seed, n);
    let offsets = w.schedule(args.seed, n);
    let mut dirs = 0;
    let mut fresh_dir = || {
        dirs += 1;
        work.join(format!("run-{dirs}"))
    };
    eprintln!("servebench: {} seed {} — {rounds} round(s) of {n} frames", w.name, args.seed);

    let mut setup = Vec::new();
    for _ in 0..SETUP_RUNS {
        setup.push(serve_once(w, args.seed, &frames, Drive::Setup, &fresh_dir())?.setup_s);
    }
    let mut played = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let open = serve_once(w, args.seed, &frames, Drive::Open(&offsets), &fresh_dir())?;
        let closed = serve_once(w, args.seed, &frames, Drive::Closed, &fresh_dir())?;
        setup.extend([open.setup_s, closed.setup_s]);
        played.push(Round { open, closed });
    }

    // Every phase must make the first open-loop phase's decisions and do
    // its work, exactly.
    let mut problems = Vec::new();
    let mut streams = Vec::with_capacity(rounds);
    for (r, round) in played.iter().enumerate() {
        let r = r + 1;
        let open = phase_records(&round.open, w.devices, &format!("open loop {r}"), &mut problems)?;
        let closed =
            phase_records(&round.closed, w.devices, &format!("closed loop {r}"), &mut problems)?;
        streams.push((open, closed));
    }
    let reference = &streams[0].0;
    let fingerprint =
        Fingerprint::new(&played[0].open.summary.counters, played[0].open.journal_bytes);
    for (r, (round, (open, closed))) in played.iter().zip(&streams).enumerate() {
        for (phase, records, what) in
            [(&round.open, open, "open loop"), (&round.closed, closed, "closed loop")]
        {
            let what = format!("{what} {}", r + 1);
            note(&mut problems, same_decisions(reference, records, &what));
            if Fingerprint::new(&phase.summary.counters, phase.journal_bytes) != fingerprint {
                problems.push(format!("{what}: work counts differ from open loop 1"));
            }
        }
    }
    let stats: Vec<RoundStats> = played
        .iter()
        .zip(&streams)
        .map(|(round, (open, closed))| round_stats(round, open, closed))
        .collect();

    let attempted = (2 * rounds * n) as u64;
    let failed = played
        .iter()
        .flat_map(|round| [&round.open, &round.closed])
        .map(|phase| {
            (n - phase.decisions.len().min(n)) as u64
                + counter(&phase.summary.counters, eotora_obs::COUNTER_DEADLINE_EXPIRATIONS)
        })
        .sum::<u64>();
    let failed_frac = failed as f64 / attempted as f64;
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} frames failed"));
    }
    let budget = w.budget();
    let (fleet_latency, budget_ratio) = quality(reference, budget);
    // Each frame's value is its median over the rounds, which drops a CPU
    // burst that hit one round; percentiles are then taken over frames.
    let decision_ms = per_frame_median(&stats, |s| &s.decision_ms);
    let non_solve_ms = per_frame_median(&stats, |s| &s.non_solve_ms);
    let cycles_s = per_frame_median(&stats, |s| &s.cycle_s);
    let capacity = cycles_s.len() as f64 / cycles_s.iter().sum::<f64>();
    let (p95, p99) = (quantile(&decision_ms, 0.95), quantile(&decision_ms, 0.99));
    let lag_p99 = median(&stats.iter().map(|s| quantile(&s.lag_ms, 0.99)).collect::<Vec<_>>());
    // Past one mean arrival gap of lag, the generator rather than the
    // daemon decides when frames arrive.
    let lag_bound_ms = 1e3 / w.rate();
    let valid = lag_p99 <= lag_bound_ms;

    let (metrics, overhead_pct) = if args.trace {
        let untraced = mirror(w, args.seed, &frames, &fresh_dir(), false)?;
        let traced = mirror(w, args.seed, &frames, &fresh_dir(), true)?;
        for (run, what) in [(&untraced, "untraced mirror"), (&traced, "traced mirror")] {
            let records = parse_records(run.decisions.iter().map(String::as_str))?;
            note(&mut problems, same_decisions(reference, &records, what));
            let (latency, cost) = run.averages;
            if !close(latency, fleet_latency) || !close(cost / budget, budget_ratio) {
                problems.push(format!("{what}: controller averages disagree with the records"));
            }
        }
        let collected = traced.collected.as_ref().expect("the traced mirror collects");
        if Fingerprint::new(&collected.counters, traced.journal_bytes) != fingerprint {
            problems.push("traced mirror: work counts differ from the untraced runs".into());
        }
        let overhead_pct = 100.0 * (frame_ns(&traced) / frame_ns(&untraced) - 1.0);
        let shed = played
            .iter()
            .flat_map(|round| [&round.open, &round.closed])
            .map(|phase| {
                counter(&phase.summary.counters, eotora_obs::COUNTER_SERVER_SHED_OLDEST)
                    + counter(&phase.summary.counters, eotora_obs::COUNTER_SERVER_SHED_NEWEST)
            })
            .sum::<u64>();
        let mut metrics = layer_metrics(w, &frames, &traced);
        metrics.extend([
            ("decision_ms_p95", p95, "ms"),
            ("decision_ms_p99", p99, "ms"),
            ("serve.non_solve_ms_p50", median(&non_solve_ms), "ms"),
            ("serve.non_solve_ms_p95", quantile(&non_solve_ms, 0.95), "ms"),
            ("queue.shed_frames", shed as f64, "count"),
            ("failed_frac", failed_frac, "ratio"),
            ("trace.overhead_pct", overhead_pct, "%"),
            ("loadgen.lag_ms_p99", lag_p99, "ms"),
        ]);
        (metrics, Some(overhead_pct))
    } else {
        let metrics = vec![
            ("decision_ms_p50", median(&decision_ms), "ms"),
            ("capacity_slots_per_s", capacity, "1/s"),
            ("fleet_latency_s", fleet_latency, "s"),
            ("budget_ratio", budget_ratio, "ratio"),
            ("setup_s", median(&setup), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
        (metrics, None)
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    for problem in &problems {
        eprintln!("servebench: FAILED CHECK: {problem}");
    }
    let correct = problems.is_empty();

    let record = Value::Object(vec![
        ("servebench".into(), Value::Str(w.name.into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::U64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("rounds".into(), Value::U64(rounds as u64)),
        ("frames_per_round".into(), Value::U64(n as u64)),
        ("machine".into(), machine()),
        ("fingerprint".into(), fingerprint.to_json()),
        (
            "absent".into(),
            Value::Array(fingerprint.absent().into_iter().map(|c| Value::Str(c.into())).collect()),
        ),
        ("trace_overhead_pct".into(), overhead_pct.map_or(Value::Null, Value::F64)),
        ("decision_ms_p95".into(), Value::F64(p95)),
        ("decision_ms_p99".into(), Value::F64(p99)),
        ("loadgen_lag_ms_p99".into(), Value::F64(lag_p99)),
        ("loadgen_lag_bound_ms".into(), Value::F64(lag_bound_ms)),
        ("valid".into(), Value::Bool(valid)),
        ("failed_frac".into(), Value::F64(failed_frac)),
        ("fleet_latency_s".into(), Value::F64(fleet_latency)),
        ("budget_ratio".into(), Value::F64(budget_ratio)),
        ("problems".into(), Value::Array(problems.into_iter().map(Value::Str).collect())),
    ]);
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_owned(),
                            Value::Object(vec![
                                ("value".into(), Value::F64(value)),
                                ("unit".into(), Value::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(Report { record, result, correct })
}

/// Parses and checks one phase's decision stream. A stream that is not
/// all decision records is an error; a stream with gaps is a problem.
fn phase_records(
    phase: &ServeRun,
    devices: usize,
    what: &str,
    problems: &mut Vec<String>,
) -> Result<Vec<DecisionRecord>, String> {
    let records = parse_records(phase.decisions.iter().map(|(line, _)| line.as_str()))?;
    note(problems, check_stream(&records, devices).map_err(|e| format!("{what}: {e}")));
    if records.iter().any(|r| r.slot as usize >= phase.due.len()) {
        return Err(format!("{what}: a decision for a slot that was never sent"));
    }
    Ok(records)
}

/// Per-frame timings of one round. Open loop: every frame timed from its
/// due time. Closed loop: the time each decision took to follow the
/// previous one with one frame outstanding.
fn round_stats(
    round: &Round,
    open_records: &[DecisionRecord],
    closed_records: &[DecisionRecord],
) -> RoundStats {
    let n = round.open.due.len();
    let (open, closed) = (&round.open, &round.closed);
    let mut decision_ms = vec![None; n];
    let mut non_solve_ms = vec![None; n];
    for (record, (_, at)) in open_records.iter().zip(&open.decisions) {
        let k = record.slot as usize;
        let total = ms(open.due[k], *at);
        decision_ms[k] = Some(total);
        non_solve_ms[k] = Some(total - record.solve_time_s * 1e3);
    }
    let mut cycle_s = vec![None; n];
    let mut previous = closed.sent.first().copied();
    for (record, (_, at)) in closed_records.iter().zip(&closed.decisions) {
        if let Some(from) = previous {
            cycle_s[record.slot as usize] = Some(at.saturating_duration_since(from).as_secs_f64());
        }
        previous = Some(*at);
    }
    let lag_ms = open.due.iter().zip(&open.sent).map(|(&due, &sent)| ms(due, sent)).collect();
    RoundStats { decision_ms, non_solve_ms, cycle_s, lag_ms }
}

/// Each frame's median over the rounds that decided it.
fn per_frame_median(
    stats: &[RoundStats],
    pick: impl Fn(&RoundStats) -> &Vec<Option<f64>>,
) -> Vec<f64> {
    let frames = stats.first().map_or(0, |s| pick(s).len());
    (0..frames)
        .filter_map(|k| {
            let samples: Vec<f64> = stats.iter().filter_map(|s| pick(s)[k]).collect();
            (!samples.is_empty()).then(|| median(&samples))
        })
        .collect()
}

/// Total decode + step + encode time of a mirror loop.
fn frame_ns(run: &MirrorRun) -> f64 {
    let t = &run.times;
    t.decode.iter().chain(&t.step).chain(&t.encode).sum::<u64>() as f64
}

/// Per-layer metrics from the traced mirror loop.
fn layer_metrics(w: &Workload, frames: &[String], traced: &MirrorRun) -> Vec<Metric> {
    let collected = traced.collected.as_ref().expect("the traced mirror collects");
    let t = &traced.times;
    let n = frames.len() as f64;
    let per_frame = |span: &str| -> Vec<u64> {
        t.spans.iter().map(|frame| frame.get(span).copied().unwrap_or(0)).collect()
    };
    let samples =
        |span: &str| -> Vec<u64> { collected.spans.get(span).cloned().unwrap_or_default() };
    let count = |name: &str| counter(&collected.counters, name) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let solve = per_frame(eotora_obs::SPAN_SLOT_SOLVE);
    let append = per_frame(eotora_obs::SPAN_JOURNAL_APPEND);
    let snapshot = per_frame(eotora_obs::SPAN_SNAPSHOT_WRITE);
    let bookkeeping: Vec<u64> = (0..t.step.len())
        .map(|k| t.step[k].saturating_sub(solve[k] + append[k] + snapshot[k]))
        .collect();
    let p2a = per_frame(eotora_obs::SPAN_P2A);
    let frame_total: u64 = t.decode.iter().chain(&t.step).chain(&t.encode).sum();
    let robust_slot_ms = if w.deadline_ms.is_some() { median(&scaled(&solve, 1e6)) } else { 0.0 };

    vec![
        ("frame.decode_us_p50", median(&scaled(&t.decode, 1e3)), "us"),
        ("frame.encode_us_p50", median(&scaled(&t.encode, 1e3)), "us"),
        ("frame.in_bytes", frames.iter().map(String::len).sum::<usize>() as f64 / n, "B"),
        ("engine.step_ms_p50", median(&scaled(&t.step, 1e6)), "ms"),
        ("engine.step_ms_p95", quantile(&scaled(&t.step, 1e6), 0.95), "ms"),
        ("engine.bookkeeping_us_p50", median(&scaled(&bookkeeping, 1e3)), "us"),
        ("bdma.rounds_per_slot", count(eotora_obs::COUNTER_BDMA_ROUNDS) / n, "count"),
        (
            "bdma.accepted_ratio",
            ratio(count(eotora_obs::COUNTER_BDMA_ACCEPTED), count(eotora_obs::COUNTER_BDMA_ROUNDS)),
            "ratio",
        ),
        ("p2a.ms_p50", median(&scaled(&p2a, 1e6)), "ms"),
        ("p2a.share", ratio(p2a.iter().sum::<u64>() as f64, frame_total as f64), "ratio"),
        ("cgba.probes_per_slot", count(eotora_obs::COUNTER_CGBA_PROBES) / n, "count"),
        ("cgba.iterations_per_slot", count(eotora_obs::COUNTER_CGBA_ITERATIONS) / n, "count"),
        (
            "cgba.moves_per_kprobe",
            1e3 * ratio(
                count(eotora_obs::COUNTER_CGBA_ITERATIONS),
                count(eotora_obs::COUNTER_CGBA_PROBES),
            ),
            "count",
        ),
        ("robust.slot_ms_p50", robust_slot_ms, "ms"),
        ("deadline.expirations", count(eotora_obs::COUNTER_DEADLINE_EXPIRATIONS), "count"),
        ("robust.retries", count(eotora_obs::COUNTER_ROBUST_RETRIES), "count"),
        ("p2b.us_p50", median(&scaled(&per_frame(eotora_obs::SPAN_P2B), 1e3)), "us"),
        (
            "queue_update.ns_p50",
            median(&scaled(&per_frame(eotora_obs::SPAN_QUEUE_UPDATE), 1.0)),
            "ns",
        ),
        (
            "journal.append_us_p50",
            median(&scaled(&samples(eotora_obs::SPAN_JOURNAL_APPEND), 1e3)),
            "us",
        ),
        (
            "journal.fsync_us_p50",
            median(&scaled(&samples(eotora_obs::SPAN_JOURNAL_FSYNC), 1e3)),
            "us",
        ),
        ("journal.bytes_per_slot", traced.journal_bytes as f64 / n, "B"),
        (
            "snapshot.write_ms_p50",
            median(&scaled(&samples(eotora_obs::SPAN_SNAPSHOT_WRITE), 1e6)),
            "ms",
        ),
        ("snapshot.bytes", traced.snapshot_bytes as f64, "B"),
    ]
}

fn counter(counters: &BTreeMap<String, u64>, name: &str) -> u64 {
    counters.get(name).copied().unwrap_or(0)
}

fn note(problems: &mut Vec<String>, outcome: Result<(), String>) {
    if let Err(e) = outcome {
        problems.push(e);
    }
}

/// Equal up to summation-order rounding.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300)
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// nproc, CPU model, commit and rustc of the measuring machine.
fn machine() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let parent = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    // The ceiling keeps git from reporting an enclosing repository's commit
    // when the checkout itself is not a repository.
    let commit = command_output(
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", parent),
    );
    let rustc = command_output(std::process::Command::new("rustc").arg("--version"));
    Value::Object(vec![
        ("nproc".into(), Value::U64(nproc)),
        ("cpu".into(), Value::Str(cpu)),
        ("commit".into(), Value::Str(commit)),
        ("rustc".into(), Value::Str(rustc)),
    ])
}

/// A command's trimmed stdout, or `unknown` if it fails.
fn command_output(command: &mut std::process::Command) -> String {
    command
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("bench records hold finite numbers and strings")
}
