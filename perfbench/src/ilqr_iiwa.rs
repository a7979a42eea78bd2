//! `ilqr_iiwa`: one `Ilqr::solve` per tick on the 7-DOF iiwa, whose first
//! control then drives a simulated plant that receives seeded velocity
//! kicks every tick.
//!
//! The goal is the arm hanging down, and the plant restarts from a fresh
//! seeded state every [`EPISODE`] ticks. Both keep every tick's input
//! bounded while the kicks keep the loop replanning: each solve starts
//! from zero controls, and from a raised pose that initial 40-step
//! zero-torque rollout diverges to a non-finite cost on about one tick in
//! ten (the same happens to the plant without restarts).

use crate::harness::{
    all_finite, closed_loop, host_executors, peak_rss_mib, Report, RunConfig, Setups, TickRecord,
};
use crate::layers::{self, per_executor, visit, KernelReplay, BATCH_1T};
use crate::stats;
use crate::trace::Tracer;
use rbd_dynamics::{BatchEval, DynamicsWorkspace};
use rbd_model::{robots, RobotModel, SplitMix64};
use rbd_trajopt::{
    lq_jacobians_batched, rk4_step, Ilqr, IlqrOptions, IlqrResult, LqScratch, StepJacobians,
};
use std::time::Instant;

const HORIZON: usize = 40;
const DT: f64 = 0.02;
/// Iteration cap of every solve.
const MAX_ITERS: usize = 4;
/// Ticks between plant restarts.
const EPISODE: usize = 10;
/// Restart states: goal ± this (rad) per joint, at rest.
const START_SPREAD: f64 = 0.3;
/// Velocity kick per joint and tick: uniform ± this (rad/s).
const KICK: f64 = 0.1;
/// Ticks whose outcome defines `task_cost` (fixed, so the cost depends
/// only on the seed, never on how many ticks fit in the time budget).
const COST_TICKS: usize = 2000;
/// Output check: the plant stays within this of the goal (rad, ∞-norm).
const ERROR_BOUND: f64 = 1.0;
/// Hanging straight down from the shoulder.
const GOAL: [f64; 7] = [0.0, std::f64::consts::PI, 0.0, 0.0, 0.0, 0.0, 0.0];

/// The default options but for the control weight: at the default
/// `w_u` (and at 0.01 and 0.1) the capped solves' first controls let the
/// kicked plant leave [`ERROR_BOUND`] within an episode, while at 1 it
/// stays bounded.
fn options() -> IlqrOptions {
    IlqrOptions {
        horizon: HORIZON,
        dt: DT,
        max_iters: MAX_ITERS,
        w_u: 1.0,
        ..IlqrOptions::default()
    }
}

/// Seeded plant restarts and kicks.
struct Disturbances(SplitMix64);

impl Disturbances {
    fn new(seed: u64) -> Self {
        Self(SplitMix64::new(seed ^ 0x11c0_11c0))
    }

    fn restart(&mut self, q: &mut [f64], qd: &mut [f64]) {
        for (q, g) in q.iter_mut().zip(GOAL) {
            *q = g + START_SPREAD * self.0.next_symmetric();
        }
        qd.fill(0.0);
    }

    fn kick(&mut self, qd: &mut [f64]) {
        for v in qd {
            *v += KICK * self.0.next_symmetric();
        }
    }
}

/// Simulated robot under control.
struct Plant {
    q: Vec<f64>,
    qd: Vec<f64>,
    ws: DynamicsWorkspace,
    dist: Disturbances,
}

impl Plant {
    fn new(model: &RobotModel, seed: u64) -> Self {
        let nv = model.nv();
        Self {
            q: vec![0.0; nv],
            qd: vec![0.0; nv],
            ws: DynamicsWorkspace::new(model),
            dist: Disturbances::new(seed),
        }
    }

    /// Inputs of tick `i`: a restart at episode boundaries, then a kick.
    fn prepare(&mut self, i: usize) {
        if i % EPISODE == 0 {
            self.dist.restart(&mut self.q, &mut self.qd);
        }
        self.dist.kick(&mut self.qd);
    }

    /// Applies `u` for one step; returns the tracking cost of the new
    /// state, or `Err` if the plant left its bounds.
    fn step(&mut self, model: &RobotModel, u: &[f64]) -> Result<f64, String> {
        let (q, qd) = rk4_step(model, &mut self.ws, &self.q, &self.qd, u, DT);
        self.q = q;
        self.qd = qd;
        if !all_finite(self.q.iter().chain(&self.qd)) {
            return Err("plant state is not finite".into());
        }
        let o = options();
        let mut cost = 0.0;
        let mut err: f64 = 0.0;
        for i in 0..self.q.len() {
            let e = self.q[i] - GOAL[i];
            err = err.max(e.abs());
            cost += 0.5 * o.w_q * e * e
                + 0.5 * o.w_v * self.qd[i] * self.qd[i]
                + 0.5 * o.w_u * u[i] * u[i];
        }
        if err > ERROR_BOUND {
            return Err(format!(
                "tracking error {err:.3} rad exceeds {ERROR_BOUND:.3}"
            ));
        }
        Ok(cost)
    }
}

/// Output check of one solve.
fn check(r: &IlqrResult) -> Result<(), String> {
    if !all_finite(&r.cost_history) || r.cost_history.windows(2).any(|w| w[1] > w[0]) {
        return Err(format!(
            "cost history not finite and non-increasing: {:?}",
            r.cost_history
        ));
    }
    match r.us.first() {
        Some(u) if all_finite(u) => Ok(()),
        _ => Err("first control missing or not finite".into()),
    }
}

/// LQ passes a solve ran, from the stop rules `IlqrOptions` documents:
/// each iteration starts with one, and the solve ends after `max_iters`
/// iterations, after an accepted step that improved by less than `tol`,
/// or after an iteration that accepted no step.
fn lq_passes(r: &IlqrResult) -> usize {
    let o = options();
    let accepted = r.cost_history.len() - 1;
    let stopped_by_tol = accepted > 0 && {
        let (c0, c1) = (r.cost_history[accepted - 1], r.cost_history[accepted]);
        (c0 - c1) / c0.max(1e-12) < o.tol
    };
    accepted + usize::from(accepted < o.max_iters && !stopped_by_tol)
}

/// A solver warmed up with one tick.
fn ready(model: &RobotModel, seed: u64) -> Ilqr<'_> {
    let mut ilqr = Ilqr::new(model, GOAL.to_vec(), options());
    let mut plant = Plant::new(model, seed);
    plant.prepare(0);
    ilqr.solve(&plant.q, &plant.qd);
    ilqr
}

/// One timed set-up from scratch; everything is dropped after the clock
/// stops.
fn setup_s(seed: u64) -> f64 {
    let t = Instant::now();
    let model = robots::iiwa();
    let ilqr = ready(&model, seed);
    let s = t.elapsed().as_secs_f64();
    drop(ilqr);
    s
}

/// Per traced tick: what the controller reported.
struct TickTrace {
    tick_ms: f64,
    lq_ms: f64,
    riccati_ms: f64,
    rollout_ms: f64,
    accepted: usize,
    passes: usize,
    workers: usize,
}

pub fn run(cfg: &RunConfig, rep: &mut Report) -> Result<(), String> {
    let mut setups = Setups::default();
    setups.time(|| setup_s(cfg.seed));
    let model: &'static RobotModel = Box::leak(Box::new(robots::iiwa()));
    let mut ilqr = ready(model, cfg.seed);
    rep.line(format!(
        "ilqr_iiwa: horizon {HORIZON}, dt {DT}, max_iters {MAX_ITERS}, episode {EPISODE} ticks, kick ±{KICK} rad/s"
    ));
    let (loop_s, min_ticks) = cfg.untraced_loop(COST_TICKS);
    let max_ticks = (loop_s * 2000.0) as usize + min_ticks;

    let mut plant = Plant::new(model, cfg.seed);
    let mut cost_sum = 0.0;
    let untraced = closed_loop(loop_s, min_ticks, max_ticks, |i| {
        plant.prepare(i);
        let t0 = Instant::now();
        let r = ilqr.solve(&plant.q, &plant.qd);
        let latency_s = t0.elapsed().as_secs_f64();
        let outcome = check(&r)
            .and_then(|()| plant.step(model, &r.us[0]))
            .map(|c| {
                if i < COST_TICKS {
                    cost_sum += c;
                }
            });
        setups.after_tick(i, || setup_s(cfg.seed));
        TickRecord { latency_s, outcome }
    });
    rep.add_loop("untraced", &untraced);
    rep.line(format!(
        "executors: {} (LQ batch engaged {})",
        host_executors(),
        ilqr.lq_workers()
    ));
    if !cfg.trace {
        rep.set_setup(&setups);
        rep.set("peak_rss_mb", peak_rss_mib()?);
        rep.set("task_cost", cost_sum / COST_TICKS as f64);
        rep.line(format!(
            "task_cost: mean tracking cost of the plant over the first {COST_TICKS} ticks"
        ));
        return rep.set_latency_metrics(&untraced);
    }

    // ---- Traced run: tick + phase spans, then layer replays.
    let mut tr = Tracer::with_capacity(64 * 4096);
    let mut replay = KernelReplay::new(model);
    // The solve's own LQ passes time the batch at the host's executor
    // count; the replay times it at one.
    let mut batch_1t = BatchEval::with_threads(model, 1)
        .with_point_flops(rbd_accel::ops::rk4_sens_point_flops(model));
    let mut lq_scratch = vec![LqScratch::for_model(model)];
    let mut jacs: Vec<StepJacobians> = (0..HORIZON)
        .map(|_| StepJacobians::zeros(model.nv()))
        .collect();
    let mut ticks: Vec<TickTrace> = Vec::with_capacity(4096);
    let traced = closed_loop(cfg.traced_loop_s(), 20, 4096, |i| {
        plant.prepare(i);
        let t0 = Instant::now();
        let r = ilqr.solve(&plant.q, &plant.qd);
        let t1 = Instant::now();
        let id = i as u32;
        let span = tr.record("tick", id, None, t0, t1);
        tr.record_phases(
            span,
            &[
                ("ilqr.lq", r.lq_time_s),
                ("ilqr.riccati", r.solver_time_s),
                ("ilqr.rollout", r.rollout_time_s),
            ],
        );
        let outcome = check(&r).and_then(|()| {
            ticks.push(TickTrace {
                tick_ms: (t1 - t0).as_secs_f64() * 1e3,
                lq_ms: r.lq_time_s * 1e3,
                riccati_ms: r.solver_time_s * 1e3,
                rollout_ms: r.rollout_time_s * 1e3,
                accepted: r.cost_history.len() - 1,
                passes: lq_passes(&r),
                workers: ilqr.lq_workers(),
            });
            let replay_span = tr.open("replay", id, None);
            let (traj, us) = (&r.trajectory, &r.us);
            tr.time(BATCH_1T, id, replay_span, || {
                lq_jacobians_batched(&mut batch_1t, DT, traj, us, &mut jacs, &mut lq_scratch)
            });
            let k = i % HORIZON;
            let lanes = [0, 10, 20, 30].map(|o| visit(traj, us, (k + o) % HORIZON));
            let points = [0, 1, 2].map(|o| visit(traj, us, (k + o) % HORIZON));
            let replayed = replay.replay(&mut tr, id, replay_span, &points, &lanes, DT);
            tr.close(replay_span);
            replayed?;
            plant.step(model, &r.us[0]).map(|_| ())
        });
        TickRecord {
            latency_s: (t1 - t0).as_secs_f64(),
            outcome,
        }
    });
    rep.add_loop("traced", &traced);
    if ticks.is_empty() {
        return Err("no traced tick passed its checks".into());
    }

    let km = layers::kernel_metrics(&tr, model, rep)?;
    let med = |f: &dyn Fn(&TickTrace) -> f64| {
        stats::median(&ticks.iter().map(f).collect::<Vec<_>>()).expect("non-empty")
    };
    let batch_ms = med(&|t| t.lq_ms / t.passes.max(1) as f64);
    let batch_1t_ms = layers::median_us(&tr, BATCH_1T)? * 1e-3;
    let workers = med(&|t| t.workers as f64);
    rep.set("ilqr.lq_ms", med(&|t| t.lq_ms));
    rep.set("ilqr.riccati_ms", med(&|t| t.riccati_ms));
    rep.set("ilqr.rollout_ms", med(&|t| t.rollout_ms));
    rep.set(
        "ilqr.accepted_iters",
        stats::mean(&ticks.iter().map(|t| t.accepted as f64).collect::<Vec<_>>())
            .expect("non-empty"),
    );
    // Line-search trials are not visible from outside: implied from the
    // rollout phase time and the replayed rk4_step median.
    let implied_trials = med(&|t| t.rollout_ms * 1e3 / (HORIZON as f64 * km.rk4_step) - 1.0);
    rep.set("ilqr.linesearch_trials_implied", implied_trials);
    rep.set_batch_metrics(workers, batch_ms, batch_1t_ms);

    // Attribution: each tick against Σ(observed calls × layer median);
    // Riccati has no public layer below it, so it explains itself. The
    // observed rollouts are the initial one and one per accepted step;
    // rejected line-search trials stay in the rollout phase's remainder.
    const HOLDERS: [&str; 3] = [
        "ilqr.lq",
        "ilqr.rollout (incl. rejected line-search trials)",
        "controller glue",
    ];
    let rem = |t: &TickTrace| {
        [
            t.lq_ms - t.passes as f64 * per_executor(HORIZON, t.workers) * km.rk4_sens * 1e-3,
            t.rollout_ms - ((1 + t.accepted) * HORIZON) as f64 * km.rk4_step * 1e-3,
            t.tick_ms - t.lq_ms - t.riccati_ms - t.rollout_ms,
        ]
    };
    rep.set(
        "tick.unexplained_frac",
        med(&|t| rem(t).iter().sum::<f64>() / t.tick_ms),
    );
    let holders: Vec<(&str, f64)> = (0..HOLDERS.len())
        .map(|j| (HOLDERS[j], med(&|t| rem(t)[j])))
        .collect();
    rep.line(format!(
        "  ilqr.lq   calls {:.1}/tick (observed LQ passes), each ceil({HORIZON}/workers) x rk4_sens per executor",
        med(&|t| t.passes as f64)
    ));
    rep.line(format!(
        "  ilqr.rollout  {:.1} rollouts/tick observed (initial + accepted); {:.2} line-search trials/tick implied (rollout time / ({HORIZON} x rk4_step median) - 1)",
        med(&|t| 1.0 + t.accepted as f64),
        implied_trials
    ));
    rep.line(format!(
        "  phase shares of the tick (medians): ilqr.lq {:.2}, ilqr.riccati {:.2}, ilqr.rollout {:.2}",
        med(&|t| t.lq_ms / t.tick_ms),
        med(&|t| t.riccati_ms / t.tick_ms),
        med(&|t| t.rollout_ms / t.tick_ms),
    ));
    crate::finish_traced(rep, &tr, &untraced, &traced, &holders, cfg)
}
