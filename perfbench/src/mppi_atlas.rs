//! `mppi_atlas`: one `Mppi::iterate` per tick on Atlas (floating base,
//! nv = 35), 64 samples × 8 steps; the first blended control then drives
//! a simulated plant.
//!
//! The unactuated floating base falls under gravity, so the plant
//! restarts from a fresh seeded state every [`EPISODE`] ticks, and each
//! episode gets a fresh controller (built and warmed up outside the tick
//! timing): `Mppi` never shifts or decays its nominal sequence, and kept
//! across episodes the nominal random-walks until sample rollouts leave
//! the manifold and the tick panics after a few hundred ticks.

use crate::harness::{
    all_finite, closed_loop, host_executors, peak_rss_mib, Report, RunConfig, Setups, TickRecord,
};
use crate::layers::{self, per_executor, KernelReplay, Visit, BATCH_1T};
use crate::stats;
use crate::trace::Tracer;
use rbd_dynamics::{DynamicsWorkspace, LANE_WIDTH};
use rbd_model::{integrate_config_into, robots, RobotModel, SplitMix64};
use rbd_trajopt::{rk4_step, Mppi, MppiOptions, MppiStep};
use std::time::Instant;

const SAMPLES: usize = 64;
const DT: f64 = 0.01;
const HORIZON: usize = 8;
/// Ticks between plant restarts.
const EPISODE: usize = 25;
/// Restart states: neutral ⊕ uniform ± this tangent offset, with
/// velocities uniform ± [`VEL_SPREAD`].
const START_SPREAD: f64 = 0.1;
const VEL_SPREAD: f64 = 0.1;
/// Ticks whose outcome defines `task_cost` (fixed, so the cost depends
/// only on the seed, never on how many ticks fit in the time budget).
const COST_TICKS: usize = 2000;
/// Ticks whose states are replayed by the 1-executor equivalence check.
const CHECK_TICKS: usize = 16;
const _: () = assert!(
    CHECK_TICKS <= EPISODE,
    "the check replays one controller's ticks"
);

/// Options of the controller of `episode`; its noise seed derives from
/// the run's seed.
fn options(seed: u64, episode: usize) -> MppiOptions {
    MppiOptions {
        samples: SAMPLES,
        horizon: HORIZON,
        dt: DT,
        seed: (seed ^ 0x6d70_7069)
            .wrapping_add((episode as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ..MppiOptions::default()
    }
}

/// A controller for `episode`, warmed up with one iteration at the
/// episode's start state; `threads: None` uses the host's executors.
fn controller<'m>(
    model: &'m RobotModel,
    seed: u64,
    episode: usize,
    plant: &Plant,
    threads: Option<usize>,
) -> Mppi<'m> {
    let opts = options(seed, episode);
    let mut mppi = match threads {
        Some(t) => Mppi::with_threads(model, opts, t),
        None => Mppi::new(model, opts),
    };
    mppi.iterate(&plant.q, &plant.qd);
    mppi
}

/// Simulated robot under control, with seeded restarts.
struct Plant {
    q: Vec<f64>,
    qd: Vec<f64>,
    neutral: Vec<f64>,
    dq: Vec<f64>,
    ws: DynamicsWorkspace,
    rng: SplitMix64,
}

impl Plant {
    fn new(model: &RobotModel, seed: u64) -> Self {
        Self {
            q: model.neutral_config(),
            qd: vec![0.0; model.nv()],
            neutral: model.neutral_config(),
            dq: vec![0.0; model.nv()],
            ws: DynamicsWorkspace::new(model),
            rng: SplitMix64::new(seed ^ 0x5eed_a71a),
        }
    }

    /// Inputs of tick `i`; `true` at an episode start.
    fn prepare(&mut self, model: &RobotModel, i: usize) -> bool {
        let restart = i % EPISODE == 0;
        if restart {
            for (d, v) in self.dq.iter_mut().zip(self.qd.iter_mut()) {
                *d = START_SPREAD * self.rng.next_symmetric();
                *v = VEL_SPREAD * self.rng.next_symmetric();
            }
            integrate_config_into(model, &self.neutral, &self.dq, 1.0, &mut self.q);
        }
        restart
    }

    fn step(&mut self, model: &RobotModel, u: &[f64]) -> Result<(), String> {
        let (q, qd) = rk4_step(model, &mut self.ws, &self.q, &self.qd, u, DT);
        self.q = q;
        self.qd = qd;
        if all_finite(self.q.iter().chain(&self.qd)) {
            Ok(())
        } else {
            Err("plant state is not finite".into())
        }
    }
}

/// Output check of one iteration; returns the count of non-finite
/// sample costs.
fn check(mppi: &Mppi, step: &MppiStep) -> Result<usize, String> {
    if !step.best_cost.is_finite() || !all_finite(mppi.nominal()) {
        return Err(format!(
            "non-finite output: best_cost {} / nominal finite {}",
            step.best_cost,
            all_finite(mppi.nominal())
        ));
    }
    Ok(mppi.costs().iter().filter(|c| !c.is_finite()).count())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The first episode's controller, warmed up.
fn ready(model: &RobotModel, seed: u64) -> Mppi<'_> {
    let mut plant = Plant::new(model, seed);
    plant.prepare(model, 0);
    controller(model, seed, 0, &plant, None)
}

/// One timed set-up from scratch; everything is dropped after the clock
/// stops.
fn setup_s(seed: u64) -> f64 {
    let t = Instant::now();
    let model = robots::atlas();
    let mppi = ready(&model, seed);
    let s = t.elapsed().as_secs_f64();
    drop(mppi);
    s
}

struct TickTrace {
    tick_ms: f64,
    step: MppiStep,
    nonfinite: usize,
}

pub fn run(cfg: &RunConfig, rep: &mut Report) -> Result<(), String> {
    let mut setups = Setups::default();
    setups.time(|| setup_s(cfg.seed));
    let model: &'static RobotModel = Box::leak(Box::new(robots::atlas()));
    let mut mppi = ready(model, cfg.seed);
    let nv = model.nv();
    rep.line(format!(
        "mppi_atlas: {SAMPLES} samples x {HORIZON} steps, K={LANE_WIDTH} lanes, episode {EPISODE} ticks"
    ));
    let (loop_s, min_ticks) = cfg.untraced_loop(COST_TICKS);
    let max_ticks = (loop_s * 2000.0) as usize + min_ticks;

    let mut plant = Plant::new(model, cfg.seed);
    let mut cost_sum = 0.0;
    let mut check_states: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(CHECK_TICKS);
    let mut snapshot = (Vec::new(), Vec::new());
    let untraced = closed_loop(loop_s, min_ticks, max_ticks, |i| {
        if plant.prepare(model, i) && i > 0 {
            mppi = controller(model, cfg.seed, i / EPISODE, &plant, None);
        }
        let t0 = Instant::now();
        let step = mppi.iterate(&plant.q, &plant.qd);
        let latency_s = t0.elapsed().as_secs_f64();
        if i < CHECK_TICKS {
            check_states.push((plant.q.clone(), plant.qd.clone()));
            if i + 1 == CHECK_TICKS {
                snapshot = (bits(mppi.costs()), bits(mppi.nominal()));
            }
        }
        if i < COST_TICKS {
            cost_sum += step.best_cost;
        }
        let outcome = check(&mppi, &step).and_then(|_| plant.step(model, &mppi.nominal()[..nv]));
        setups.after_tick(i, || setup_s(cfg.seed));
        TickRecord { latency_s, outcome }
    });
    rep.add_loop("untraced", &untraced);
    if !cfg.trace {
        rep.set_setup(&setups);
        rep.set("peak_rss_mb", peak_rss_mib()?);
        rep.set("task_cost", cost_sum / COST_TICKS as f64);
        rep.line(format!(
            "task_cost: mean best_cost over the first {COST_TICKS} ticks"
        ));
        equivalence_check(model, cfg.seed, &check_states, &snapshot, rep);
        return rep.set_latency_metrics(&untraced);
    }

    // ---- Traced run. A 1-executor twin iterates on the same states, so
    // its rollout phase is the single-thread baseline of the batch.
    let mut twin = controller(model, cfg.seed, 0, &plant, Some(1));
    let mut tr = Tracer::with_capacity(64 * 4096);
    let mut replay = KernelReplay::new(model);
    let mut ticks: Vec<TickTrace> = Vec::with_capacity(4096);
    let mut recent: Vec<(Vec<f64>, Vec<f64>)> =
        vec![(plant.q.clone(), plant.qd.clone()); LANE_WIDTH];
    let traced = closed_loop(cfg.traced_loop_s(), 20, 4096, |i| {
        if plant.prepare(model, i) {
            mppi = controller(model, cfg.seed, i / EPISODE, &plant, None);
            twin = controller(model, cfg.seed, i / EPISODE, &plant, Some(1));
        }
        let t0 = Instant::now();
        let step = mppi.iterate(&plant.q, &plant.qd);
        let t1 = Instant::now();
        let id = i as u32;
        let span = tr.record("tick", id, None, t0, t1);
        tr.record_phases(
            span,
            &[
                ("mppi.sample", step.sample_s),
                ("mppi.rollout", step.rollout_s),
                ("mppi.update", step.update_s),
            ],
        );
        let outcome = check(&mppi, &step).and_then(|nonfinite| {
            ticks.push(TickTrace {
                tick_ms: (t1 - t0).as_secs_f64() * 1e3,
                step,
                nonfinite,
            });
            let replay_span = tr.open("replay", id, None);
            let twin_span = tr.open("twin_1t.tick", id, replay_span);
            let twin_step = twin.iterate(&plant.q, &plant.qd);
            tr.close(twin_span);
            tr.record_phases(
                twin_span,
                &[
                    ("twin_1t.sample", twin_step.sample_s),
                    (BATCH_1T, twin_step.rollout_s),
                ],
            );
            recent[i % LANE_WIDTH] = (plant.q.clone(), plant.qd.clone());
            let u = &mppi.nominal()[..nv];
            let lanes = [0, 1, 2, 3].map(|l| Visit {
                q: &recent[l].0,
                qd: &recent[l].1,
                u,
            });
            let replayed = replay.replay(&mut tr, id, replay_span, &lanes[..3], &lanes, DT);
            tr.close(replay_span);
            replayed?;
            plant.step(model, u)
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
    let workers = med(&|t| t.step.batch_threads as f64);
    // The host-count batch is the tick's own rollout phase.
    let batch_ms = med(&|t| t.step.rollout_s * 1e3);
    let batch_1t_ms = layers::median_us(&tr, BATCH_1T)? * 1e-3;
    rep.set("mppi.sample_ms", med(&|t| t.step.sample_s * 1e3));
    rep.set("mppi.rollout_ms", batch_ms);
    rep.set("mppi.update_ms", med(&|t| t.step.update_s * 1e3));
    rep.set(
        "mppi.ess_frac",
        med(&|t| t.step.effective_samples / SAMPLES as f64),
    );
    rep.set(
        "mppi.nonfinite_frac",
        stats::mean(
            &ticks
                .iter()
                .map(|t| t.nonfinite as f64 / SAMPLES as f64)
                .collect::<Vec<_>>(),
        )
        .expect("non-empty"),
    );
    rep.set_batch_metrics(workers, batch_ms, batch_1t_ms);

    // Attribution: the rollout phase against the busiest executor's lane
    // groups × the replayed group median (the replay rolls out the same
    // horizon on the same robot).
    let groups = SAMPLES.div_ceil(LANE_WIDTH);
    const HOLDERS: [&str; 2] = ["mppi.rollout", "controller glue"];
    let rem = |t: &TickTrace| {
        let s = &t.step;
        [
            s.rollout_s * 1e3 - per_executor(groups, s.batch_threads) * km.lane4_group * 1e-3,
            t.tick_ms - s.total_s() * 1e3,
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
        "  mppi.rollout  calls {groups} lane groups/tick (observed), ceil({groups}/workers) per executor; sample and update phases have no public layer"
    ));
    crate::finish_traced(rep, &tr, &untraced, &traced, &holders, cfg)
}

/// Replays the recorded states through a fresh 1-executor controller and
/// requires bit-identical costs and nominal at the check tick.
fn equivalence_check(
    model: &'static RobotModel,
    seed: u64,
    states: &[(Vec<f64>, Vec<f64>)],
    snapshot: &(Vec<u64>, Vec<u64>),
    rep: &mut Report,
) {
    if states.len() < CHECK_TICKS {
        rep.check_failures
            .push("too few ticks for the 1-executor equivalence check".into());
        return;
    }
    let mut plant = Plant::new(model, seed);
    plant.prepare(model, 0);
    let mut twin = controller(model, seed, 0, &plant, Some(1));
    for (q, qd) in states {
        twin.iterate(q, qd);
    }
    if bits(twin.costs()) == snapshot.0 && bits(twin.nominal()) == snapshot.1 {
        rep.line(format!(
            "check: costs and nominal at tick {} are bit-identical at 1 and {} executors",
            CHECK_TICKS - 1,
            host_executors()
        ));
    } else {
        rep.check_failures.push(format!(
            "MPPI costs/nominal at 1 executor differ from {} executors",
            host_executors()
        ));
    }
}
