//! One in-process `eotora_server::serve` call fed by the single-threaded
//! load generator.
//!
//! Frames are pre-encoded before the call; the generator writes them into
//! an OS pipe the daemon reads as its `InputSource::Reader`, and a
//! bench-owned `Write` wrapper stamps every decision line as it lands.
//! The generator starts its schedule only once the daemon has emitted its
//! `started` event, so set-up time is reported on its own and never
//! charged to a frame.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use eotora_server::{serve, InputSource, ServerSummary, SignalFlags};

use crate::workload::Workload;

/// How long the closed loop waits for one decision before giving up on
/// the phase (a frame without a decision would otherwise stall it).
const DECISION_TIMEOUT: Duration = Duration::from_secs(20);

/// Gap between the daemon's `started` event and the first due time, so
/// the first frame does not race the solve loop's first queue poll.
const LEAD: Duration = Duration::from_millis(5);

/// How the generator feeds the daemon.
#[derive(Clone, Copy)]
pub enum Drive<'a> {
    /// No frames: start, see EOF, shut down. Measures set-up alone.
    Setup,
    /// Open loop: frame `k` is due `offsets[k]` seconds after the start.
    Open(&'a [f64]),
    /// Closed loop: one outstanding frame; the next is sent when the
    /// previous decision lands.
    Closed,
}

/// What one `serve` call did, as the bench observed it.
pub struct ServeRun {
    /// `serve()` call to its `started` event (seconds).
    pub setup_s: f64,
    /// Decision lines with the instant each one's newline was written.
    pub decisions: Vec<(String, Instant)>,
    /// Per frame sent: when it was due (open loop) or released by the
    /// previous decision (closed loop).
    pub due: Vec<Instant>,
    /// Per frame sent: when the generator wrote it.
    pub sent: Vec<Instant>,
    /// The daemon's own exit report.
    pub summary: ServerSummary,
    /// Bytes in the journal segments at exit.
    pub journal_bytes: u64,
}

#[derive(Default)]
struct Progress {
    started: Option<Instant>,
    decisions: usize,
    finished: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<Progress>,
    changed: Condvar,
}

impl Shared {
    fn update(&self, f: impl FnOnce(&mut Progress)) {
        f(&mut self.state.lock().expect("no bench thread panics while holding progress"));
        self.changed.notify_all();
    }

    /// Waits until `ready` holds. `false` when the daemon finished first
    /// or `timeout` passed.
    fn wait(&self, timeout: Duration, ready: impl Fn(&Progress) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("no bench thread panics while holding progress");
        loop {
            if ready(&state) {
                return true;
            }
            let now = Instant::now();
            if state.finished || now >= deadline {
                return false;
            }
            state = self
                .changed
                .wait_timeout(state, deadline - now)
                .expect("no bench thread panics while holding progress")
                .0;
        }
    }
}

/// Collects the decision stream, stamping each line's newline.
struct DecisionTap<'a> {
    shared: &'a Shared,
    bytes: Vec<u8>,
    stamps: Vec<Instant>,
}

impl Write for DecisionTap<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        if lines > 0 {
            let now = Instant::now();
            self.stamps.extend(std::iter::repeat_n(now, lines));
        }
        self.bytes.extend_from_slice(buf);
        if lines > 0 {
            self.shared.update(|p| p.decisions += lines);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Collects the event stream and signals the `started` event.
struct EventTap<'a> {
    shared: &'a Shared,
    bytes: Vec<u8>,
}

impl Write for EventTap<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        if buf.windows(17).any(|w| w == b"\"event\":\"started\"") {
            let now = Instant::now();
            self.shared.update(|p| {
                p.started.get_or_insert(now);
            });
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Frames the generator sent: (due, sent) per frame.
type Sent = (Vec<Instant>, Vec<Instant>);

/// The load generator: one thread, one input stream, pre-encoded frames.
fn generate(
    mut pipe: std::io::PipeWriter,
    frames: &[String],
    drive: Drive<'_>,
    shared: &Shared,
) -> Result<Sent, String> {
    let mut due = Vec::with_capacity(frames.len());
    let mut sent = Vec::with_capacity(frames.len());
    if matches!(drive, Drive::Setup) {
        return Ok((due, sent));
    }
    if !shared.wait(DECISION_TIMEOUT, |p| p.started.is_some()) {
        return Err("the daemon never emitted its started event".into());
    }
    match drive {
        Drive::Setup => {}
        Drive::Open(offsets) => {
            let start = Instant::now() + LEAD;
            for (frame, &offset) in frames.iter().zip(offsets) {
                let at = start + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                due.push(at);
                sent.push(Instant::now());
                pipe.write_all(frame.as_bytes()).map_err(|e| format!("input pipe: {e}"))?;
            }
        }
        Drive::Closed => {
            for (k, frame) in frames.iter().enumerate() {
                if !shared.wait(DECISION_TIMEOUT, |p| p.decisions >= k) {
                    return Err(format!("no decision for frame {} within the timeout", k - 1));
                }
                let now = Instant::now();
                due.push(now);
                sent.push(now);
                pipe.write_all(frame.as_bytes()).map_err(|e| format!("input pipe: {e}"))?;
            }
        }
    }
    Ok((due, sent))
}

/// Runs one `serve` call in a fresh working directory `dir` (removed
/// afterwards) and returns what the bench observed.
pub fn serve_once(
    workload: &Workload,
    seed: u64,
    frames: &[String],
    drive: Drive<'_>,
    dir: &Path,
) -> Result<ServeRun, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let config = workload.server_config(seed, dir)?;
    let ckpt = config.durability.dir.clone();
    let (reader, writer) = std::io::pipe().map_err(|e| format!("cannot open a pipe: {e}"))?;
    let shared = Shared::default();
    let flags = SignalFlags::manual();
    let mut decisions = DecisionTap { shared: &shared, bytes: Vec::new(), stamps: Vec::new() };
    let mut events = EventTap { shared: &shared, bytes: Vec::new() };

    let (called, served, generated) = std::thread::scope(|scope| {
        let shared = &shared;
        let generator = scope.spawn(move || generate(writer, frames, drive, shared));
        let called = Instant::now();
        let served = serve(
            config,
            None,
            InputSource::Reader(Box::new(reader)),
            &mut decisions,
            &mut events,
            &flags,
        );
        shared.update(|p| p.finished = true);
        (called, served, generator.join())
    });
    let events = String::from_utf8_lossy(&events.bytes).into_owned();
    let summary = served.map_err(|e| format!("serve failed: {e}; events:\n{events}"))?;
    let (due, sent) = generated
        .map_err(|_| "the load generator panicked".to_owned())?
        .map_err(|e| format!("{e}; events:\n{events}"))?;
    let started = shared
        .state
        .lock()
        .expect("no bench thread panics while holding progress")
        .started
        .ok_or("the daemon never emitted its started event")?;

    let text = String::from_utf8(decisions.bytes).map_err(|e| e.to_string())?;
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if lines.len() != decisions.stamps.len() {
        return Err("decision stream and its timestamps disagree".into());
    }
    let run = ServeRun {
        setup_s: started.duration_since(called).as_secs_f64(),
        decisions: lines.into_iter().zip(decisions.stamps).collect(),
        due,
        sent,
        summary,
        journal_bytes: dir_bytes(&ckpt.join("journal"))?,
    };
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(run)
}

/// Total bytes of the regular files directly under `dir` (0 if absent).
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Ok(0) };
    let mut total = 0;
    for entry in entries {
        let path: PathBuf = entry.map_err(|e| e.to_string())?.path();
        total += file_bytes(&path);
    }
    Ok(total)
}

/// Size of one file (0 if absent).
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}
