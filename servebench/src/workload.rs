//! The three daemon workloads, the server config each one hands the
//! program, and the seeded frame stream and arrival schedule.
//!
//! The deployment — topology, servers, budget `C̄` — is fixed per
//! workload ([`DEPLOYMENT_SEED`]); the run seed drives only what a real
//! daemon would see vary: the observed states `β_t` and the solver's own
//! randomness. So a seed changes the traffic, not the machine room, and
//! the time averages of different seeds stay comparable.

use std::path::Path;

use eotora_core::bdma::StartPolicy;
use eotora_core::system::MecSystem;
use eotora_server::ServerConfig;
use eotora_sim::Scenario;
use eotora_states::StateProvider;
use eotora_util::rng::Pcg32;
use serde_json::Value;

/// Seed of the fixed deployment every workload runs on. A run whose
/// `--seed` equals it observes exactly the state stream the batch engine
/// generates for `Scenario::paper(devices, DEPLOYMENT_SEED)`.
pub const DEPLOYMENT_SEED: u64 = 2023;

/// How the open-loop phase schedules frames.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// One frame every `1 / per_s` seconds.
    Constant { per_s: f64 },
    /// Exponential inter-arrival gaps with mean `1 / per_s` seconds.
    Poisson { per_s: f64 },
}

/// One benchmark workload: a server config plus a traffic pattern.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub devices: usize,
    pub start: StartPolicy,
    pub deadline_ms: Option<u64>,
    pub fsync: &'static str,
    pub arrivals: Arrivals,
    /// Frames per round: enough that p95 has at least ten frames beyond it.
    pub frames: usize,
}

/// Share of `--seconds` the open-loop phases are scheduled to take; the
/// closed-loop phases replay the same frames in the rest.
const OPEN_SHARE: f64 = 0.6;

pub const WORKLOADS: [Workload; 3] = [
    // The paper's default controller: P2-A dominates every frame, so
    // kernel work shows and codec/journal work does not.
    Workload {
        name: "paper-cold",
        devices: 100,
        start: StartPolicy::Cold,
        deadline_ms: None,
        fsync: "os",
        arrivals: Arrivals::Constant { per_s: 10.0 },
        frames: 200,
    },
    // A small warm-started fleet at 15–60% of capacity, depending on how
    // busy the host is: decode, journal, encode and bookkeeping are a
    // large share of each frame, and Poisson bursts queue frames in the
    // admission queue. Not in BENCHMARK.json: see README.md.
    Workload {
        name: "warm-stream",
        devices: 30,
        start: StartPolicy::Warm,
        deadline_ms: None,
        fsync: "every-slot",
        arrivals: Arrivals::Poisson { per_s: 150.0 },
        frames: 400,
    },
    // The deadline path: sanitize, chained seed, the filtered CGBA loop
    // and deadline checks. 150 ms never expires at the measured slot times.
    Workload {
        name: "deadline-robust",
        devices: 100,
        start: StartPolicy::Cold,
        deadline_ms: Some(150),
        fsync: "os",
        arrivals: Arrivals::Constant { per_s: 25.0 },
        frames: 200,
    },
];

impl Workload {
    /// Looks a workload up by its CLI name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Rounds in a `seconds`-long run: as many open-loop passes over the
    /// frames as fit in the open-loop share of the run, at least one.
    pub fn rounds(&self, seconds: f64) -> usize {
        let round_s = self.frames as f64 / self.rate();
        ((seconds * OPEN_SHARE / round_s).round() as usize).max(1)
    }

    /// Mean open-loop arrival rate (frames per second).
    pub fn rate(&self) -> f64 {
        match self.arrivals {
            Arrivals::Constant { per_s } | Arrivals::Poisson { per_s } => per_s,
        }
    }

    /// The controller scenario for run seed `seed`.
    pub fn scenario(&self, seed: u64) -> Scenario {
        let mut scenario = Scenario::paper(self.devices, DEPLOYMENT_SEED)
            .with_start_policy(self.start)
            .with_label(self.name);
        scenario.dpp.seed = seed;
        scenario
    }

    /// The server config the daemon is started with: the scenario file
    /// written into `dir`, the checkpoint directory `dir/ckpt`, and every
    /// other setting at the daemon's own default.
    pub fn server_config(&self, seed: u64, dir: &Path) -> Result<ServerConfig, String> {
        let scenario_path = dir.join("scenario.json");
        let text = serde_json::to_string(&self.scenario(seed)).map_err(|e| e.to_string())?;
        std::fs::write(&scenario_path, text)
            .map_err(|e| format!("cannot write {}: {e}", scenario_path.display()))?;
        let path = |p: &Path| Value::Str(p.display().to_string());
        let mut sections = vec![
            ("scenario".to_owned(), Value::Object(vec![("path".to_owned(), path(&scenario_path))])),
            (
                "durability".to_owned(),
                Value::Object(vec![
                    ("dir".to_owned(), path(&dir.join("ckpt"))),
                    ("fsync".to_owned(), Value::Str(self.fsync.to_owned())),
                ]),
            ),
        ];
        if let Some(ms) = self.deadline_ms {
            sections.push((
                "server".to_owned(),
                Value::Object(vec![("deadline_ms".to_owned(), Value::U64(ms))]),
            ));
        }
        ServerConfig::from_value(&Value::Object(sections)).map_err(|e| e.to_string())
    }

    /// The first `n` state frames for seed `seed`, JSON-encoded, one line
    /// each (newline included).
    pub fn encode_frames(&self, seed: u64, n: usize) -> Vec<String> {
        let scenario = self.scenario(seed);
        let system = MecSystem::random(&scenario.system, scenario.seed);
        let mut states = StateProvider::paper(system.topology(), &scenario.states, seed);
        (0..n as u64)
            .map(|slot| {
                let state = states.observe(slot, system.topology());
                let mut line = serde_json::to_string(&state)
                    .expect("states hold only finite floats and integers");
                line.push('\n');
                line
            })
            .collect()
    }

    /// The open-loop due offsets (seconds after the schedule start) of `n`
    /// frames for seed `seed`.
    pub fn schedule(&self, seed: u64, n: usize) -> Vec<f64> {
        match self.arrivals {
            Arrivals::Constant { per_s } => (0..n).map(|k| k as f64 / per_s).collect(),
            Arrivals::Poisson { per_s } => {
                let mut rng = Pcg32::seed_stream(seed, 0xA11);
                let mut at = 0.0;
                (0..n)
                    .map(|_| {
                        let due = at;
                        at += -(1.0 - rng.uniform()).ln() / per_s;
                        due
                    })
                    .collect()
            }
        }
    }

    /// The per-slot budget `C̄` of the fixed deployment.
    pub fn budget(&self) -> f64 {
        let scenario = self.scenario(DEPLOYMENT_SEED);
        MecSystem::random(&scenario.system, scenario.seed).budget_per_slot()
    }
}
