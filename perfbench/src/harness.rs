//! The closed-loop harness shared by every workload: repeated set-up
//! timing, the timed tick loop, the run report and the process's peak
//! memory.

use crate::stats;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: f64,
    /// `false`: end-to-end metrics with tracing off. `true`: the traced
    /// run that reports the per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: PathBuf,
}

impl RunConfig {
    /// Budget and fewest ticks of the untraced loop: the whole run, and
    /// at least [`MIN_TICKS`] and the `cost_ticks` that `task_cost`
    /// averages over, without tracing; 30% of the run and enough ticks for
    /// the latency windows in the traced run, where it is the reference of
    /// `trace.overhead_frac`.
    pub fn untraced_loop(&self, cost_ticks: usize) -> (f64, usize) {
        if self.trace {
            (0.3 * self.seconds, 2 * WINDOW_TICKS)
        } else {
            (self.seconds, cost_ticks.max(MIN_TICKS))
        }
    }

    /// Budget of the traced loop.
    pub fn traced_loop_s(&self) -> f64 {
        0.7 * self.seconds
    }
}

/// Ticks per window of the end-to-end latency statistics: 100 leave ten
/// samples beyond each window's p90.
pub const WINDOW_TICKS: usize = 100;

/// Fewest ticks of the end-to-end latency statistics: ten windows.
pub const MIN_TICKS: usize = 10 * WINDOW_TICKS;

/// A timed loop never runs past its budget by more than this, even if
/// its fewest ticks have not been reached.
const OVERRUN_S: f64 = 60.0;

/// Outcome of one tick as seen by [`closed_loop`].
pub struct TickRecord {
    /// Controller latency (the timed call only).
    pub latency_s: f64,
    /// `Err` when an output check failed.
    pub outcome: Result<(), String>,
}

/// What a timed loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub latencies_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Loop wall time spent in the controller: the sum of tick latencies,
    /// leaving out the benchmark's own per-tick work (input generation,
    /// plant simulation, output checks, layer replays).
    pub busy_s: f64,
    /// Wall time of the whole loop, the benchmark's own per-tick work
    /// included.
    pub wall_s: f64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl LoopStats {
    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.latencies_ms).unwrap_or(f64::NAN)
    }
}

/// Runs ticks back to back — each waits for the previous one, as on a
/// robot — until `budget_s` has passed and at least `min_ticks` ran, or
/// `max_ticks` ran. A tick that panics or fails its output check counts
/// as failed; the loop goes on.
pub fn closed_loop(
    budget_s: f64,
    min_ticks: usize,
    max_ticks: usize,
    mut tick: impl FnMut(usize) -> TickRecord,
) -> LoopStats {
    let mut st = LoopStats {
        latencies_ms: Vec::with_capacity(max_ticks),
        ..LoopStats::default()
    };
    let start = Instant::now();
    while st.attempted < max_ticks {
        let elapsed = start.elapsed().as_secs_f64();
        if (st.attempted >= min_ticks && elapsed >= budget_s) || elapsed >= budget_s + OVERRUN_S {
            break;
        }
        let t0 = Instant::now();
        let (latency_s, outcome) = match catch_unwind(AssertUnwindSafe(|| tick(st.attempted))) {
            Ok(r) => (r.latency_s, r.outcome),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                (t0.elapsed().as_secs_f64(), Err(format!("panic: {msg}")))
            }
        };
        st.latencies_ms.push(latency_s * 1e3);
        st.busy_s += latency_s;
        if let Err(e) = outcome {
            st.failed += 1;
            if st.failures.len() < 5 {
                st.failures.push(format!("tick {}: {e}", st.attempted));
            }
        }
        st.attempted += 1;
    }
    st.wall_s = start.elapsed().as_secs_f64();
    st
}

/// The set-up times of a run: one set-up before the untraced loop and one
/// after each of its windows, each from scratch (model build to
/// controller ready, warm-up tick included). `setup_s` is their median.
/// Spread over the run, they sample its whole stretch of host load
/// rather than one moment of it, as a burst of set-ups at the start
/// would.
#[derive(Debug, Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Runs `setup`, which returns the time it took, and keeps that time.
    pub fn time(&mut self, setup: impl FnOnce() -> f64) {
        self.0.push(setup());
    }

    /// Runs `setup` after the last tick of each window.
    pub fn after_tick(&mut self, i: usize, setup: impl FnOnce() -> f64) {
        if (i + 1) % WINDOW_TICKS == 0 {
            self.time(setup);
        }
    }

    pub fn median_s(&self) -> f64 {
        stats::median(&self.0).expect("a set-up before the loop")
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Executors the controllers use: the host's available parallelism.
pub fn host_executors() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPUs the host has (`processor` entries of `/proc/cpuinfo`), which
/// may exceed the executors this process may use.
pub fn host_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Computed metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    /// Failed checks outside the ticks (equivalence replays and the like).
    pub check_failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    pub fn set_setup(&mut self, setups: &Setups) {
        self.set("setup_s", setups.median_s());
        self.line(format!(
            "setup_s: median of {} set-ups from scratch, spread over the untraced loop",
            setups.len()
        ));
    }

    /// Folds a timed loop's counts and failures into the report.
    pub fn add_loop(&mut self, label: &str, st: &LoopStats) {
        self.attempted += st.attempted;
        self.failed += st.failed;
        for f in &st.failures {
            self.line(format!("FAILED ({label}) {f}"));
        }
    }

    /// The batch layer's metrics: engaged executors, wall time at that
    /// count and at one executor, and the parallel efficiency.
    pub fn set_batch_metrics(&mut self, workers: f64, wall_ms: f64, wall_1t_ms: f64) {
        self.set("batch.workers", workers);
        self.set("batch.wall_ms", wall_ms);
        self.set("batch.wall_1t_ms", wall_1t_ms);
        self.set("batch.efficiency", wall_1t_ms / wall_ms / workers);
    }

    /// The end-to-end latency metrics of an untraced loop, each taken
    /// over the run's consecutive windows of [`WINDOW_TICKS`] ticks as the
    /// calm quartile: the 25th percentile of the window medians, of the
    /// window p90s and of the window mean latencies (as a rate). On a
    /// shared host, neighbours slow whole stretches of a run — at times
    /// most of it — by tens of percent, and now and then a stretch runs
    /// unusually fast; the calm quartile stays steady from run to run
    /// through both, while a slower program still slows every window.
    /// The price: a slowdown confined to fewer than about three windows in
    /// four (one that grows over the run, or stalls that come only under
    /// contention) does not move these metrics; the whole-run figures and
    /// the spread of the window p90s, printed alongside, show it.
    pub fn set_latency_metrics(&mut self, st: &LoopStats) -> Result<(), String> {
        let n = st.latencies_ms.len();
        if n < MIN_TICKS {
            return Err(format!(
                "only {n} ticks: the latency windows need {MIN_TICKS}"
            ));
        }
        let windows: Vec<&[f64]> = st.latencies_ms.chunks_exact(WINDOW_TICKS).collect();
        let calm = |f: &dyn Fn(&[f64]) -> f64| {
            stats::percentile(&windows.iter().map(|w| f(w)).collect::<Vec<_>>(), 25.0)
                .expect("windows")
        };
        let p90 = |w: &[f64]| stats::percentile(w, 90.0).expect("full window");
        self.set(
            "tick_p50_ms",
            calm(&|w| stats::median(w).expect("full window")),
        );
        self.set("tick_p90_ms", calm(&p90));
        self.set(
            "ticks_per_s",
            1e3 / calm(&|w| w.iter().sum::<f64>() / w.len() as f64),
        );
        let p90s: Vec<f64> = windows.iter().map(|w| p90(w)).collect();
        self.line(format!(
            "window p90s (ms): min {:.4}, p25 {:.4}, median {:.4}, p75 {:.4}, max {:.4}",
            stats::percentile(&p90s, 0.0).expect("windows"),
            stats::percentile(&p90s, 25.0).expect("windows"),
            stats::median(&p90s).expect("windows"),
            stats::percentile(&p90s, 75.0).expect("windows"),
            stats::percentile(&p90s, 100.0).expect("windows"),
        ));
        let tail = stats::tail_percentile(n).expect("n >= MIN_TICKS");
        self.line(format!(
            "ticks: {n} timed in {} windows of {WINDOW_TICKS} ({} beyond each window's p90); \
             whole run: p50 {:.4} ms, p90 {:.4} ms, {:.2} ticks/s ({:.2} over the loop's wall time), p{tail} {:.4} ms (highest percentile with >= {} beyond)",
            windows.len(),
            stats::beyond(90.0, WINDOW_TICKS),
            st.p50_ms(),
            stats::percentile(&st.latencies_ms, 90.0).expect("non-empty"),
            st.attempted as f64 / st.busy_s,
            st.attempted as f64 / st.wall_s,
            stats::percentile(&st.latencies_ms, tail).expect("non-empty"),
            stats::MIN_BEYOND,
        ));
        self.line(format!(
            "fail_frac = {} ({} of {} ticks)",
            st.failed as f64 / n as f64,
            st.failed,
            n
        ));
        Ok(())
    }
}

/// Whether every value is finite.
pub fn all_finite<'a>(values: impl IntoIterator<Item = &'a f64>) -> bool {
    values.into_iter().all(|x| x.is_finite())
}
