//! `lq_quadruped_arm`: one `lq_jacobians_batched` per tick over 100
//! seeded sampling points on the paper's Fig 3 quadruped-with-arm
//! (floating base, nv = 24) — the batched ΔFD / RK4-sensitivity task of
//! an MPC iteration's LQ phase. Each tick gets fresh points.

use crate::harness::{
    all_finite, closed_loop, host_executors, peak_rss_mib, Report, RunConfig, Setups, TickRecord,
};
use crate::layers::{self, per_executor, visit, KernelReplay, BATCH_1T};
use crate::stats;
use crate::trace::Tracer;
use rbd_dynamics::{BatchEval, DynamicsWorkspace};
use rbd_model::{integrate_config, integrate_config_into, robots, RobotModel, SplitMix64};
use rbd_trajopt::{
    lq_jacobians_batched, rk4_step, rk4_step_with_sensitivity_into, LqScratch, Rk4SensScratch,
    StepJacobians,
};
use std::time::Instant;

const POINTS: usize = 100;
const DT: f64 = 0.02;
/// Sampling points: neutral ⊕ uniform ± this tangent offset …
const Q_SPREAD: f64 = 0.3;
/// … velocities uniform ± this, controls uniform ± [`U_SPREAD`].
const QD_SPREAD: f64 = 1.0;
const U_SPREAD: f64 = 5.0;
/// Every this many ticks, the batch output is compared bit for bit with
/// a serial loop.
const CHECK_EVERY: usize = 8;
/// Ticks whose points define `task_cost`.
const FD_TICKS: usize = 4;
/// Central-difference step of the `task_cost` reference.
const FD_STEP: f64 = 1e-6;

type Traj = Vec<(Vec<f64>, Vec<f64>)>;

/// Seeded sampling points, regenerated in place each tick.
struct Points {
    rng: SplitMix64,
    neutral: Vec<f64>,
    dq: Vec<f64>,
    traj: Traj,
    us: Vec<Vec<f64>>,
}

impl Points {
    fn new(model: &RobotModel, seed: u64) -> Self {
        let (nq, nv) = (model.nq(), model.nv());
        Self {
            rng: SplitMix64::new(seed ^ 0x1a_9ad),
            neutral: model.neutral_config(),
            dq: vec![0.0; nv],
            traj: vec![(vec![0.0; nq], vec![0.0; nv]); POINTS],
            us: vec![vec![0.0; nv]; POINTS],
        }
    }

    fn next(&mut self, model: &RobotModel) {
        for ((q, qd), u) in self.traj.iter_mut().zip(self.us.iter_mut()) {
            for d in self.dq.iter_mut() {
                *d = Q_SPREAD * self.rng.next_symmetric();
            }
            integrate_config_into(model, &self.neutral, &self.dq, 1.0, q);
            for v in qd.iter_mut() {
                *v = QD_SPREAD * self.rng.next_symmetric();
            }
            for x in u.iter_mut() {
                *x = U_SPREAD * self.rng.next_symmetric();
            }
        }
    }
}

/// The controller-side state of the LQ pass: pool, per-executor scratch
/// and the output Jacobians.
struct LqPass<'m> {
    batch: BatchEval<'m>,
    scratch: Vec<LqScratch>,
    jacs: Vec<StepJacobians>,
}

impl<'m> LqPass<'m> {
    fn new(model: &'m RobotModel, batch: BatchEval<'m>) -> Self {
        Self {
            scratch: (0..batch.threads())
                .map(|_| LqScratch::for_model(model))
                .collect(),
            jacs: (0..POINTS)
                .map(|_| StepJacobians::zeros(model.nv()))
                .collect(),
            batch: batch.with_point_flops(rbd_accel::ops::rk4_sens_point_flops(model)),
        }
    }

    fn tick(&mut self, p: &Points) {
        lq_jacobians_batched(
            &mut self.batch,
            DT,
            &p.traj,
            &p.us,
            &mut self.jacs,
            &mut self.scratch,
        );
    }
}

/// The serial reference loop.
struct Serial {
    ws: DynamicsWorkspace,
    sens: Rk4SensScratch,
    q_next: Vec<f64>,
    qd_next: Vec<f64>,
    jac: StepJacobians,
}

impl Serial {
    fn new(model: &RobotModel) -> Self {
        Self {
            ws: DynamicsWorkspace::new(model),
            sens: Rk4SensScratch::for_model(model),
            q_next: vec![0.0; model.nq()],
            qd_next: vec![0.0; model.nv()],
            jac: StepJacobians::zeros(model.nv()),
        }
    }

    fn point(&mut self, model: &RobotModel, p: &Points, k: usize) -> &StepJacobians {
        let (q, qd) = &p.traj[k];
        rk4_step_with_sensitivity_into(
            model,
            &mut self.ws,
            &mut self.sens,
            q,
            qd,
            &p.us[k],
            DT,
            &mut self.q_next,
            &mut self.qd_next,
            &mut self.jac,
        );
        &self.jac
    }

    /// Index of the first point whose batched Jacobians differ in any bit.
    fn first_mismatch(
        &mut self,
        model: &RobotModel,
        p: &Points,
        jacs: &[StepJacobians],
    ) -> Option<usize> {
        (0..POINTS).find(|&k| {
            let r = self.point(model, p, k);
            !same_bits(r, &jacs[k])
        })
    }
}

fn same_bits(a: &StepJacobians, b: &StepJacobians) -> bool {
    let rows = |m: &rbd_trajopt::StepJacobians| (m.a.rows(), m.b.rows());
    rows(a) == rows(b)
        && (0..a.a.rows()).all(|i| {
            let eq = |x: &[f64], y: &[f64]| {
                x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
            };
            eq(a.a.row(i), b.a.row(i)) && eq(a.b.row(i), b.b.row(i))
        })
}

fn finite(jacs: &[StepJacobians]) -> bool {
    jacs.iter()
        .all(|j| (0..j.a.rows()).all(|i| all_finite(j.a.row(i)) && all_finite(j.b.row(i))))
}

/// Geometric mean over the points of the first [`FD_TICKS`] ticks of the
/// relative Frobenius
/// error of the velocity rows of the step Jacobians against central
/// finite differences of `rk4_step`. The per-point errors spread over
/// orders of magnitude, so they are averaged in log space.
fn task_cost(model: &RobotModel, seed: u64) -> f64 {
    let nv = model.nv();
    let mut p = Points::new(model, seed);
    let mut serial = Serial::new(model);
    let mut ws = DynamicsWorkspace::new(model);
    let h = FD_STEP;
    let mut log_errors = Vec::with_capacity(FD_TICKS * POINTS);
    for _ in 0..FD_TICKS {
        p.next(model);
        for k in 0..POINTS {
            let (q, qd) = p.traj[k].clone();
            let u = p.us[k].clone();
            let jac = serial.point(model, &p, k);
            let (mut num, mut den) = (0.0, 0.0);
            for j in 0..3 * nv {
                let eval = |s: f64, ws: &mut DynamicsWorkspace| {
                    let (mut qq, mut qqd, mut uu) = (q.clone(), qd.clone(), u.clone());
                    match j / nv {
                        0 => {
                            let mut e = vec![0.0; nv];
                            e[j] = 1.0;
                            qq = integrate_config(model, &q, &e, s * h);
                        }
                        1 => qqd[j - nv] += s * h,
                        _ => uu[j - 2 * nv] += s * h,
                    }
                    rk4_step(model, ws, &qq, &qqd, &uu, DT).1
                };
                let (plus, minus) = (eval(1.0, &mut ws), eval(-1.0, &mut ws));
                for i in 0..nv {
                    let fd = (plus[i] - minus[i]) / (2.0 * h);
                    let an = if j < 2 * nv {
                        jac.a[(nv + i, j)]
                    } else {
                        jac.b[(nv + i, j - 2 * nv)]
                    };
                    num += (fd - an) * (fd - an);
                    den += an * an;
                }
            }
            log_errors.push((num / den).sqrt().ln());
        }
    }
    stats::mean(&log_errors).expect("POINTS > 0").exp()
}

/// The host-executor pass, warmed up with one tick.
fn ready(model: &RobotModel, seed: u64) -> LqPass<'_> {
    let mut pass = LqPass::new(model, BatchEval::new(model));
    let mut p = Points::new(model, seed);
    p.next(model);
    pass.tick(&p);
    pass
}

/// One timed set-up from scratch; everything is dropped after the clock
/// stops.
fn setup_s(seed: u64) -> f64 {
    let t = Instant::now();
    let model = robots::quadruped_arm();
    let pass = ready(&model, seed);
    let s = t.elapsed().as_secs_f64();
    drop(pass);
    s
}

struct TickTrace {
    tick_ms: f64,
    workers: usize,
}

pub fn run(cfg: &RunConfig, rep: &mut Report) -> Result<(), String> {
    let mut setups = Setups::default();
    setups.time(|| setup_s(cfg.seed));
    let model: &'static RobotModel = Box::leak(Box::new(robots::quadruped_arm()));
    let mut pass = ready(model, cfg.seed);
    rep.line(format!(
        "lq_quadruped_arm: {POINTS} points per tick, nv {}, bit-identity vs serial every {CHECK_EVERY} ticks",
        model.nv()
    ));
    let (loop_s, min_ticks) = cfg.untraced_loop(0);
    let max_ticks = (loop_s * 500.0) as usize + min_ticks;

    let mut points = Points::new(model, cfg.seed);
    let mut serial = Serial::new(model);
    let mut check = |i: usize, p: &Points, jacs: &[StepJacobians]| -> Result<(), String> {
        if !finite(jacs) {
            return Err("non-finite Jacobian".into());
        }
        if i % CHECK_EVERY == 0 {
            if let Some(k) = serial.first_mismatch(model, p, jacs) {
                return Err(format!(
                    "point {k}: batched Jacobians differ from the serial loop"
                ));
            }
        }
        Ok(())
    };
    let untraced = closed_loop(loop_s, min_ticks, max_ticks, |i| {
        points.next(model);
        let t0 = Instant::now();
        pass.tick(&points);
        let latency_s = t0.elapsed().as_secs_f64();
        let outcome = check(i, &points, &pass.jacs);
        setups.after_tick(i, || setup_s(cfg.seed));
        TickRecord { latency_s, outcome }
    });
    rep.add_loop("untraced", &untraced);
    rep.line(format!(
        "executors: {} (batch engaged {})",
        host_executors(),
        pass.batch.last_workers()
    ));
    if !cfg.trace {
        rep.set_setup(&setups);
        rep.set("peak_rss_mb", peak_rss_mib()?);
        rep.set("task_cost", task_cost(model, cfg.seed));
        rep.line(format!(
            "task_cost: geometric mean relative error of the velocity rows vs central differences (h = {FD_STEP}) over the {} points of the first {FD_TICKS} ticks", FD_TICKS * POINTS
        ));
        return rep.set_latency_metrics(&untraced);
    }

    // ---- Traced run: the tick is the batch; replay it at 1 executor.
    let mut one = LqPass::new(model, BatchEval::with_threads(model, 1));
    let mut tr = Tracer::with_capacity(64 * 4096);
    let mut replay = KernelReplay::new(model);
    let mut ticks: Vec<TickTrace> = Vec::with_capacity(4096);
    let traced = closed_loop(cfg.traced_loop_s(), 20, 4096, |i| {
        points.next(model);
        let t0 = Instant::now();
        pass.tick(&points);
        let t1 = Instant::now();
        let id = i as u32;
        tr.record("tick", id, None, t0, t1);
        let outcome = check(i, &points, &pass.jacs).and_then(|()| {
            ticks.push(TickTrace {
                tick_ms: (t1 - t0).as_secs_f64() * 1e3,
                workers: pass.batch.last_workers(),
            });
            let replay_span = tr.open("replay", id, None);
            tr.time(BATCH_1T, id, replay_span, || one.tick(&points));
            let (traj, us) = (&points.traj, &points.us);
            let lanes = [0, 1, 2, 3].map(|k| visit(traj, us, k));
            let points = [0, 1, 2].map(|o| visit(traj, us, (i + o) % POINTS));
            let replayed = replay.replay(&mut tr, id, replay_span, &points, &lanes, DT);
            tr.close(replay_span);
            replayed
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
    let workers = med(&|t| t.workers as f64);
    let batch_ms = med(&|t| t.tick_ms);
    let batch_1t_ms = layers::median_us(&tr, BATCH_1T)? * 1e-3;
    rep.set_batch_metrics(workers, batch_ms, batch_1t_ms);

    // Attribution: the batch against the busiest executor's points × the
    // replayed rk4_sens median.
    let rem = |t: &TickTrace| t.tick_ms - per_executor(POINTS, t.workers) * km.rk4_sens * 1e-3;
    rep.set("tick.unexplained_frac", med(&|t| rem(t) / t.tick_ms));
    rep.line(format!(
        "  batch  calls 1/tick, {POINTS} x rk4_sens (observed), ceil({POINTS}/workers) per executor; 4 x fd.dfd per rk4_sens"
    ));
    crate::finish_traced(
        rep,
        &tr,
        &untraced,
        &traced,
        &[("batch dispatch", med(&rem))],
        cfg,
    )
}
