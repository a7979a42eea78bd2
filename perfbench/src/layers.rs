//! Replays of single layer calls at a tick's visited states, timed from
//! outside as spans, and the per-layer metrics derived from them.
//!
//! Layers, top down (module names): `rbd_trajopt` controllers →
//! `rbd_dynamics::batch` → `rbd_trajopt::integrator` /
//! `rbd_dynamics::lanes` → `rbd_dynamics` derivatives (ΔFD) →
//! `rbd_dynamics` kernels (MMinvGen-based FD, ABA).

use crate::harness::Report;
use crate::stats;
use crate::trace::Tracer;
use rbd_dynamics::{
    aba_in_ws, fd_derivatives_into, forward_dynamics_into, rk4_rollout_into,
    rk4_rollout_lanes_into, DynamicsWorkspace, FdDerivatives, LaneRolloutScratch, LaneWorkspace,
    RolloutScratch, LANE_WIDTH,
};
use rbd_model::RobotModel;
use rbd_trajopt::{rk4_step, rk4_step_with_sensitivity_into, Rk4SensScratch, StepJacobians};
use std::hint::black_box;

/// Steps of the replayed lane and scalar rollouts (MPPI's horizon).
pub const LANE_HORIZON: usize = 8;

/// Span names of the replayed layer calls.
pub const RK4_STEP: &str = "integrator.rk4_step";
pub const RK4_SENS: &str = "integrator.rk4_sens";
pub const DFD: &str = "fd.dfd";
pub const FD_MINV: &str = "fd.fd_minv";
pub const ABA: &str = "aba.aba";
pub const LANE4: &str = "lanes.rollout_lane4";
pub const SCALAR: &str = "lanes.rollout_scalar";
pub const BATCH_1T: &str = "batch.1t";

/// A visited state and the control applied there.
#[derive(Clone, Copy)]
pub struct Visit<'a> {
    pub q: &'a [f64],
    pub qd: &'a [f64],
    pub u: &'a [f64],
}

/// The visit at sampling point `k` of a trajectory and its controls.
pub fn visit<'a>(traj: &'a [(Vec<f64>, Vec<f64>)], us: &'a [Vec<f64>], k: usize) -> Visit<'a> {
    Visit {
        q: &traj[k].0,
        qd: &traj[k].1,
        u: &us[k],
    }
}

/// Scratch for replaying one call of each kernel-level layer.
pub struct KernelReplay<'m> {
    model: &'m RobotModel,
    ws: DynamicsWorkspace,
    sens: Rk4SensScratch,
    q_next: Vec<f64>,
    qd_next: Vec<f64>,
    jac: StepJacobians,
    fd: FdDerivatives,
    qdd: Vec<f64>,
    lws: LaneWorkspace<LANE_WIDTH>,
    lane_rs: LaneRolloutScratch,
    scalar_rs: RolloutScratch,
    q0: Vec<f64>,
    qd0: Vec<f64>,
    us: Vec<f64>,
    q_traj: Vec<f64>,
    qd_traj: Vec<f64>,
}

impl<'m> KernelReplay<'m> {
    pub fn new(model: &'m RobotModel) -> Self {
        let (nq, nv, k, h) = (model.nq(), model.nv(), LANE_WIDTH, LANE_HORIZON);
        Self {
            model,
            ws: DynamicsWorkspace::new(model),
            sens: Rk4SensScratch::for_model(model),
            q_next: vec![0.0; nq],
            qd_next: vec![0.0; nv],
            jac: StepJacobians::zeros(nv),
            fd: FdDerivatives::zeros(nv),
            qdd: vec![0.0; nv],
            lws: LaneWorkspace::new(model),
            lane_rs: LaneRolloutScratch::for_model(model, k),
            scalar_rs: RolloutScratch::for_model(model),
            q0: vec![0.0; k * nq],
            qd0: vec![0.0; k * nv],
            // Zero controls: unforced motion stays bounded over the
            // horizon from any visited state.
            us: vec![0.0; k * h * nv],
            q_traj: vec![0.0; k * (h + 1) * nq],
            qd_traj: vec![0.0; k * (h + 1) * nv],
        }
    }

    /// Replays each kernel-level layer once per visit in `point_visits`
    /// (one layer at a time, so consecutive calls find their data in cache
    /// as they do inside a controller), then one K-lane rollout group of
    /// unforced motion (lane `l` starts at `lane_visits[l % len]`) and the
    /// scalar rollout of lane 0's inputs — all as spans of `tick` under
    /// `parent`.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        tick: u32,
        parent: Option<u32>,
        point_visits: &[Visit],
        lane_visits: &[Visit],
        dt: f64,
    ) -> Result<(), String> {
        let model = self.model;
        for v in point_visits {
            let next = tr.time(RK4_STEP, tick, parent, || {
                rk4_step(model, &mut self.ws, black_box(v.q), v.qd, v.u, dt)
            });
            black_box(next);
        }
        for v in point_visits {
            tr.time(RK4_SENS, tick, parent, || {
                rk4_step_with_sensitivity_into(
                    model,
                    &mut self.ws,
                    &mut self.sens,
                    black_box(v.q),
                    v.qd,
                    v.u,
                    dt,
                    &mut self.q_next,
                    &mut self.qd_next,
                    &mut self.jac,
                )
            });
            black_box(&self.jac);
        }
        for v in point_visits {
            tr.time(DFD, tick, parent, || {
                fd_derivatives_into(
                    model,
                    &mut self.ws,
                    black_box(v.q),
                    v.qd,
                    v.u,
                    None,
                    &mut self.fd,
                )
            })
            .map_err(|e| format!("ΔFD replay: {e}"))?;
            black_box(&self.fd);
        }
        for v in point_visits {
            tr.time(FD_MINV, tick, parent, || {
                forward_dynamics_into(
                    model,
                    &mut self.ws,
                    black_box(v.q),
                    v.qd,
                    v.u,
                    None,
                    &mut self.qdd,
                )
            })
            .map_err(|e| format!("FD replay: {e}"))?;
            black_box(&self.qdd);
        }
        for v in point_visits {
            tr.time(ABA, tick, parent, || {
                aba_in_ws(
                    model,
                    &mut self.ws,
                    black_box(v.q),
                    v.qd,
                    v.u,
                    None,
                    &mut self.qdd,
                )
            })
            .map_err(|e| format!("ABA replay: {e}"))?;
            black_box(&self.qdd);
        }
        if lane_visits.is_empty() {
            return Ok(());
        }

        let (nq, nv, h) = (model.nq(), model.nv(), LANE_HORIZON);
        for l in 0..LANE_WIDTH {
            let v = lane_visits[l % lane_visits.len()];
            self.q0[l * nq..(l + 1) * nq].copy_from_slice(v.q);
            self.qd0[l * nv..(l + 1) * nv].copy_from_slice(v.qd);
        }
        tr.time(LANE4, tick, parent, || {
            rk4_rollout_lanes_into(
                model,
                &mut self.lws,
                &mut self.lane_rs,
                black_box(&self.q0),
                &self.qd0,
                &self.us,
                h,
                dt,
                &mut self.q_traj,
                &mut self.qd_traj,
            )
        })
        .map_err(|e| format!("lane rollout replay: {e}"))?;
        black_box(&self.q_traj);
        tr.time(SCALAR, tick, parent, || {
            rk4_rollout_into(
                model,
                &mut self.ws,
                &mut self.scalar_rs,
                black_box(&self.q0[..nq]),
                &self.qd0[..nv],
                &self.us[..h * nv],
                h,
                dt,
                &mut self.q_traj[..(h + 1) * nq],
                &mut self.qd_traj[..(h + 1) * nv],
            )
        })
        .map_err(|e| format!("scalar rollout replay: {e}"))?;
        black_box(&self.q_traj);
        Ok(())
    }
}

/// Per-call medians (µs) of the kernel-level layers.
#[derive(Debug, Clone, Copy)]
pub struct KernelMedians {
    pub rk4_step: f64,
    pub rk4_sens: f64,
    pub dfd: f64,
    pub fd_minv: f64,
    pub aba: f64,
    /// Per sample of a K-lane group.
    pub lane4_sample: f64,
    pub scalar_sample: f64,
    /// One whole K-lane group.
    pub lane4_group: f64,
}

/// Median duration (µs) of the spans called `name`.
pub fn median_us(tr: &Tracer, name: &str) -> Result<f64, String> {
    stats::median(&tr.durations_us(name)).ok_or_else(|| format!("no `{name}` spans recorded"))
}

/// Sets the kernel-level per-layer metrics and prints their table rows
/// (calls counted per replay tick; self time = per-call median minus the
/// medians of the child layers it calls).
pub fn kernel_metrics(
    tr: &Tracer,
    model: &RobotModel,
    rep: &mut Report,
) -> Result<KernelMedians, String> {
    let m = KernelMedians {
        rk4_step: median_us(tr, RK4_STEP)?,
        rk4_sens: median_us(tr, RK4_SENS)?,
        dfd: median_us(tr, DFD)?,
        fd_minv: median_us(tr, FD_MINV)?,
        aba: median_us(tr, ABA)?,
        lane4_group: median_us(tr, LANE4)?,
        lane4_sample: median_us(tr, LANE4)? / LANE_WIDTH as f64,
        scalar_sample: median_us(tr, SCALAR)?,
    };
    let dfd_flops = rbd_accel::ops::delta_fd_flops(model);
    let aba_flops = rbd_accel::ops::aba_flops(model);
    rep.set("integrator.rk4_step_us", m.rk4_step);
    rep.set("integrator.rk4_sens_us", m.rk4_sens);
    rep.set("integrator.sens_chain_us", m.rk4_sens - 4.0 * m.dfd);
    rep.set("fd.dfd_us", m.dfd);
    rep.set("fd.dfd_flop_per_ns", dfd_flops / (m.dfd * 1e3));
    rep.set("fd.fd_minv_us", m.fd_minv);
    rep.set("aba.aba_us", m.aba);
    rep.set("aba.aba_flop_per_ns", aba_flops / (m.aba * 1e3));
    rep.set("lanes.rollout_lane4_us", m.lane4_sample);
    rep.set("lanes.rollout_scalar_us", m.scalar_sample);
    rep.set("lanes.lane4_speedup", m.scalar_sample / m.lane4_sample);

    let stages = 4.0 * LANE_HORIZON as f64;
    let row = |rep: &mut Report, name: &str, median: f64, self_us: f64, child: &str| {
        rep.line(format!(
            "  {name:<22} calls {:>4}  median {median:>10.2} us  self {self_us:>10.2} us  {child}",
            tr.durations_us(name).len()
        ));
    };
    rep.line("kernel layers (replayed at visited states):");
    row(
        rep,
        RK4_STEP,
        m.rk4_step,
        m.rk4_step - 4.0 * m.fd_minv,
        "children: 4 x fd.fd_minv",
    );
    row(
        rep,
        RK4_SENS,
        m.rk4_sens,
        m.rk4_sens - 4.0 * m.dfd,
        "children: 4 x fd.dfd (self = dense sensitivity chain)",
    );
    row(rep, DFD, m.dfd, m.dfd, "leaf");
    row(rep, FD_MINV, m.fd_minv, m.fd_minv, "leaf");
    row(rep, ABA, m.aba, m.aba, "leaf");
    row(
        rep,
        LANE4,
        m.lane4_group,
        m.lane4_group,
        "leaf: one K=4 group",
    );
    row(
        rep,
        SCALAR,
        m.scalar_sample,
        m.scalar_sample - stages * m.aba,
        "children: 4 x horizon x aba.aba",
    );
    Ok(m)
}

/// `ceil(n / w)`: items the busiest of `w` executors evaluates.
pub fn per_executor(n: usize, w: usize) -> f64 {
    n.div_ceil(w.max(1)) as f64
}
