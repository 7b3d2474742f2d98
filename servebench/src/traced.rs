//! The traced run: a bench-owned loop that mirrors `serve`'s per-frame
//! path — `FrameDecoder::decode_line`, `StepDriver::step` with the same
//! driver mode and durable session, `DecisionRecord::encode` — with a
//! timer around each call and a bench-owned [`Recorder`] as the driver's
//! sink. The recorder collects the spans and counters the program
//! already emits; nothing is added inside the program.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use eotora_core::fault::FaultSchedule;
use eotora_core::system::MecSystem;
use eotora_obs::{Recorder, TelemetryConfig, TelemetrySession, TraceEvent};
use eotora_server::{DecisionRecord, FrameDecoder, InputFrame};
use eotora_sim::{
    open_session, robust_config, DriverMode, DriverTuning, DurabilityConfig, RunManifest,
    StepDriver, MANIFEST_VERSION,
};

use crate::serve_run::{dir_bytes, file_bytes};
use crate::workload::Workload;

/// Spans and counters the program emitted, whole-run and per frame.
#[derive(Default)]
pub struct Collected {
    /// Every span sample by name (nanoseconds).
    pub spans: BTreeMap<String, Vec<u64>>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Span nanoseconds summed per name over the current frame.
    frame: BTreeMap<String, u64>,
}

/// The traced run's sink.
#[derive(Default)]
pub struct BenchRecorder {
    inner: RefCell<Collected>,
}

impl Recorder for BenchRecorder {
    fn span_ns(&self, name: &str, nanos: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.spans.entry(name.to_owned()).or_default().push(nanos);
        *inner.frame.entry(name.to_owned()).or_insert(0) += nanos;
    }

    fn add(&self, name: &str, delta: u64) {
        *self.inner.borrow_mut().counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    fn record(&self, _event: &TraceEvent) {}
}

impl BenchRecorder {
    /// Per-name span totals since the last call.
    fn take_frame(&self) -> BTreeMap<String, u64> {
        std::mem::take(&mut self.inner.borrow_mut().frame)
    }

    pub fn into_collected(self) -> Collected {
        self.inner.into_inner()
    }
}

/// Per-frame timings of one mirror loop (nanoseconds).
#[derive(Default)]
pub struct FrameTimes {
    pub decode: Vec<u64>,
    pub step: Vec<u64>,
    pub encode: Vec<u64>,
    /// Per-frame span totals by name (traced loop only).
    pub spans: Vec<BTreeMap<String, u64>>,
}

/// What one mirror loop produced.
pub struct MirrorRun {
    pub decisions: Vec<String>,
    pub times: FrameTimes,
    pub journal_bytes: u64,
    pub snapshot_bytes: u64,
    /// The controller's own running averages at the end: (T̄, C̄ spent).
    pub averages: (f64, f64),
    /// Work counters from the driver's sink (traced loop only).
    pub collected: Option<Collected>,
}

/// Runs `frames` through the mirror loop in a fresh directory `dir`
/// (removed afterwards). `traced` selects the bench recorder as the sink;
/// otherwise the sink is a telemetry session like the daemon's own.
pub fn mirror(
    workload: &Workload,
    seed: u64,
    frames: &[String],
    dir: &Path,
    traced: bool,
) -> Result<MirrorRun, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let config = workload.server_config(seed, dir)?;
    let scenario = config.scenario.clone();
    let manifest = RunManifest {
        version: MANIFEST_VERSION,
        mode: "server".to_owned(),
        scenario: scenario.clone(),
        faults: None,
        deadline_ms: config.deadline.map(|d| d.as_millis() as u64),
        checkpoint_every: config.durability.checkpoint_every,
        fsync: config.durability.fsync.to_string(),
    };
    let mut durability = DurabilityConfig::new(config.durability.dir.clone());
    durability.checkpoint_every = config.durability.checkpoint_every;
    durability.fsync = config.durability.fsync;
    let session = open_session(&durability, &manifest).map_err(|e| e.to_string())?;
    let system = MecSystem::random(&scenario.system, scenario.seed);
    let recorder = BenchRecorder::default();
    let telemetry = TelemetrySession::new(TelemetryConfig {
        v: scenario.dpp.v,
        budget: system.budget_per_slot(),
        metrics_out: None,
        metrics_every: 0,
        postmortem_dir: Some(config.durability.dir.join("postmortems")),
        flight_capacity: 0,
    });
    let sink: &dyn Recorder = if traced { &recorder } else { &telemetry };
    let mode = match config.deadline {
        None => DriverMode::Plain,
        Some(deadline) => DriverMode::Robust {
            faults: FaultSchedule::default(),
            robust: robust_config(&scenario, Some(deadline)),
        },
    };
    let mut driver = StepDriver::new(
        &scenario,
        system,
        mode,
        Some(session),
        Some(sink),
        DriverTuning { horizon: Some(u64::MAX), bounded: true },
    );
    let mut decoder =
        FrameDecoder::new(driver.topology().num_devices(), driver.topology().num_base_stations());

    let mut times = FrameTimes::default();
    let mut decisions = Vec::with_capacity(frames.len());
    for line in frames {
        let t0 = Instant::now();
        let decoded = decoder.decode_line(line.trim_end());
        let t1 = Instant::now();
        let state = match decoded {
            Ok(Some(InputFrame::State(state))) if state.slot == driver.cursor() => state,
            _ => return Err(format!("frame {} is not the next slot's state", decoder.line())),
        };
        let report = driver.step(*state).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let encoded = DecisionRecord::from_report(&report).encode();
        let t3 = Instant::now();
        decisions.push(encoded);
        times.decode.push(nanos(t0, t1));
        times.step.push(nanos(t1, t2));
        times.encode.push(nanos(t2, t3));
        if traced {
            times.spans.push(recorder.take_frame());
        }
    }
    driver.checkpoint_now().map_err(|e| e.to_string())?;
    let result = driver.finish();
    let run = MirrorRun {
        decisions,
        times,
        journal_bytes: dir_bytes(&config.durability.dir.join("journal"))?,
        snapshot_bytes: file_bytes(&config.durability.dir.join("snapshot.bin")),
        averages: (result.average_latency, result.average_cost),
        collected: traced.then(|| recorder.into_collected()),
    };
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(run)
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}
