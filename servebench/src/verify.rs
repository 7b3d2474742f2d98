//! Output verification and the work-count fingerprint.

use std::collections::BTreeMap;

use eotora_server::DecisionRecord;

/// The deterministic work counters a run's fingerprint carries.
pub const WORK_COUNTERS: [&str; 4] = [
    eotora_obs::COUNTER_CGBA_PROBES,
    eotora_obs::COUNTER_CGBA_ITERATIONS,
    eotora_obs::COUNTER_BDMA_ROUNDS,
    eotora_obs::COUNTER_DURABILITY_FRAMES,
];

/// Parses a decision stream (a line that is not a decision record is an
/// error: the daemon wrote something it should not have).
pub fn parse_records<'a>(
    lines: impl IntoIterator<Item = &'a str>,
) -> Result<Vec<DecisionRecord>, String> {
    lines
        .into_iter()
        .enumerate()
        .map(|(k, line)| {
            serde_json::from_str(line)
                .map_err(|e| format!("decision line {k} is not a decision record: {e}"))
        })
        .collect()
}

/// Checks that a stream's slots run contiguously from 0, every float is
/// finite and every record places every device.
pub fn check_stream(records: &[DecisionRecord], devices: usize) -> Result<(), String> {
    for (k, record) in records.iter().enumerate() {
        if record.slot != k as u64 {
            return Err(format!(
                "decision {k} is for slot {}: slots are not contiguous",
                record.slot
            ));
        }
        let floats = [
            record.latency_s,
            record.cost_usd,
            record.queue,
            record.price,
            record.solve_time_s,
            record.fairness,
            record.handover_rate,
            record.mean_clock_ghz,
            record.bdma_rounds,
        ];
        if !floats.iter().all(|x| x.is_finite()) {
            return Err(format!("slot {k} carries a non-finite field"));
        }
        if record.stations.len() != devices {
            return Err(format!(
                "slot {k} places {} devices, expected {devices}",
                record.stations.len()
            ));
        }
    }
    Ok(())
}

/// Checks two streams make bit-identical decisions.
pub fn same_decisions(
    a: &[DecisionRecord],
    b: &[DecisionRecord],
    what: &str,
) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} vs {} decisions", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let same = x.latency_s.to_bits() == y.latency_s.to_bits()
            && x.cost_usd.to_bits() == y.cost_usd.to_bits()
            && x.queue.to_bits() == y.queue.to_bits()
            && x.bdma_rounds.to_bits() == y.bdma_rounds.to_bits()
            && x.stations == y.stations;
        if !same {
            return Err(format!("{what}: decisions diverge at slot {}", x.slot));
        }
    }
    Ok(())
}

/// The paper's objective and constraint, recomputed from the records:
/// time-average `T_t` and time-average `C_t / C̄`.
pub fn quality(records: &[DecisionRecord], budget: f64) -> (f64, f64) {
    let n = records.len().max(1) as f64;
    let latency = records.iter().map(|r| r.latency_s).sum::<f64>() / n;
    let cost = records.iter().map(|r| r.cost_usd).sum::<f64>() / n;
    (latency, cost / budget)
}

/// Work counts that must repeat exactly for a workload and seed: the
/// counters in [`WORK_COUNTERS`] (an absent counter stays absent) and
/// the journal's on-disk bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub counters: BTreeMap<&'static str, Option<u64>>,
    pub journal_bytes: u64,
}

impl Fingerprint {
    pub fn new(counters: &BTreeMap<String, u64>, journal_bytes: u64) -> Self {
        let counters =
            WORK_COUNTERS.iter().map(|&name| (name, counters.get(name).copied())).collect();
        Self { counters, journal_bytes }
    }

    /// Counters the program did not emit at all.
    pub fn absent(&self) -> Vec<&'static str> {
        self.counters.iter().filter(|(_, v)| v.is_none()).map(|(&k, _)| k).collect()
    }

    pub fn to_json(&self) -> serde_json::Value {
        let mut fields: Vec<(String, serde_json::Value)> = self
            .counters
            .iter()
            .filter_map(|(&name, value)| {
                value.map(|v| (name.to_owned(), serde_json::Value::U64(v)))
            })
            .collect();
        fields.push(("journal_bytes".to_owned(), serde_json::Value::U64(self.journal_bytes)));
        serde_json::Value::Object(fields)
    }
}
