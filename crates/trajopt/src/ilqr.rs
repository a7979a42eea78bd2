//! Iterative LQR trajectory optimizer — the paper's representative TO /
//! MPC consumer of batched dynamics and derivatives (Fig 1, Fig 2).
//!
//! Restricted to vector-space configuration models (`nq == nv`), which
//! covers the fixed-base arms the optimizer examples use.

use crate::integrator::{rk4_step_with_sensitivity_into, Rk4SensScratch, StepJacobians};
use rbd_dynamics::{
    rk4_step_aba_into, BatchEval, DynamicsError, DynamicsWorkspace, Isa, RolloutScratch,
};
use rbd_model::RobotModel;
use rbd_spatial::matn::FactorizationError;
use rbd_spatial::{MatN, VecN};
use std::time::Instant;

/// Per-executor scratch for the batched LQ approximation: one RK4
/// sensitivity scratch plus the (discarded) next-state output buffers.
/// Hold one per [`BatchEval`] executor and the whole batched LQ chain
/// ([`lq_jacobians_batched`]) runs without steady-state heap allocation
/// — proven end-to-end in `crates/trajopt/tests/zero_alloc.rs`.
#[derive(Debug, Clone, Default)]
pub struct LqScratch {
    sens: Rk4SensScratch,
    q_next: Vec<f64>,
    qd_next: Vec<f64>,
}

impl LqScratch {
    /// Scratch pre-sized for `model` (also grows lazily on first use).
    pub fn for_model(model: &RobotModel) -> Self {
        Self {
            sens: Rk4SensScratch::for_model(model),
            q_next: vec![0.0; model.nq()],
            qd_next: vec![0.0; model.nv()],
        }
    }
}

/// The batched LQ approximation: evaluates the discrete step Jacobians
/// at every `(traj[k], us[k])` sampling point through `batch`'s worker
/// pool, writing into `jacs[k]`. The sampling points are independent
/// (Fig 2c/13), so this fans out across however many executors the
/// work gate engages — with **bit-identical results at any worker
/// count** — and performs zero steady-state heap allocation once
/// `jacs`/`scratch` are warm (one [`LqScratch`] per executor).
///
/// # Panics
/// Panics if `us`/`jacs` lengths differ, `traj` is shorter than `us`,
/// `scratch` has fewer slots than `batch.threads()`, or forward
/// dynamics fails at a sampling point.
pub fn lq_jacobians_batched(
    batch: &mut BatchEval,
    dt: f64,
    traj: &[(Vec<f64>, Vec<f64>)],
    us: &[Vec<f64>],
    jacs: &mut [StepJacobians],
    scratch: &mut [LqScratch],
) {
    assert_eq!(us.len(), jacs.len(), "us/jacs length mismatch");
    assert!(traj.len() >= us.len(), "trajectory shorter than controls");
    let ok: Result<(), std::convert::Infallible> =
        batch.for_each_with_scratch(us, jacs, scratch, |model, ws, s, k, u, jac| {
            let (q, qd) = &traj[k];
            rk4_step_with_sensitivity_into(
                model,
                ws,
                &mut s.sens,
                q,
                qd,
                u,
                dt,
                &mut s.q_next,
                &mut s.qd_next,
                jac,
            );
            Ok(())
        });
    ok.expect("infallible");
}

/// iLQR hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlqrOptions {
    /// Number of integration steps in the horizon.
    pub horizon: usize,
    /// Step length, seconds.
    pub dt: f64,
    /// Running weight on configuration error.
    pub w_q: f64,
    /// Running weight on velocity.
    pub w_v: f64,
    /// Running weight on control.
    pub w_u: f64,
    /// Terminal weight on configuration/velocity error.
    pub w_terminal: f64,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Levenberg regularization added to `Q_uu`.
    pub reg: f64,
    /// Relative cost-decrease convergence threshold.
    pub tol: f64,
}

impl Default for IlqrOptions {
    fn default() -> Self {
        Self {
            horizon: 40,
            dt: 0.02,
            w_q: 2.0,
            w_v: 0.05,
            w_u: 1e-3,
            w_terminal: 60.0,
            max_iters: 30,
            reg: 1e-6,
            tol: 1e-7,
        }
    }
}

/// Result of an iLQR solve.
#[derive(Debug, Clone)]
pub struct IlqrResult {
    /// Cost after every accepted iteration (index 0 = initial rollout;
    /// `[f64::INFINITY]` when the initial rollout's dynamics failed).
    pub cost_history: Vec<f64>,
    /// Optimized controls.
    pub us: Vec<Vec<f64>>,
    /// State trajectory `(q, q̇)` under the optimized controls.
    pub trajectory: Vec<(Vec<f64>, Vec<f64>)>,
    /// Whether the relative improvement dropped below `tol`.
    pub converged: bool,
    /// Wall time spent in the LQ approximation (dynamics+derivatives,
    /// the Fig 2c "parallelizable" share).
    pub lq_time_s: f64,
    /// Wall time in the backward Riccati solve (serial share).
    pub solver_time_s: f64,
    /// Wall time in forward rollouts.
    pub rollout_time_s: f64,
}

/// Per-solver reusable state: the dynamics workspace, the batch worker
/// pool, the Riccati scratch and gains and the forward-pass buffers —
/// allocated once in [`Ilqr::new`] and reused by every [`Ilqr::solve`]
/// call, so a receding-horizon MPC loop re-solving each tick allocates
/// only the [`IlqrResult`] it returns.
#[derive(Debug)]
struct IlqrScratch<'m> {
    ws: DynamicsWorkspace,
    batch: BatchEval<'m>,
    riccati: Riccati,
    k_ff: Vec<VecN>,
    k_fb: Vec<MatN>,
    jacs: Vec<StepJacobians>,
    lq: Vec<LqScratch>,
    rollout: Rollout,
}

impl<'m> IlqrScratch<'m> {
    fn new(model: &'m RobotModel, horizon: usize) -> Self {
        let nv = model.nv();
        // The pool is sized to the host; whether a given LQ pass
        // actually fans out is decided per dispatch by BatchEval's
        // estimated-FLOP work gate (fed with the RK4-point cost model),
        // replacing the old `nv >= 4` model-size heuristic.
        let batch =
            BatchEval::new(model).with_point_flops(rbd_accel::ops::rk4_sens_point_flops(model));
        let executors = batch.threads();
        Self {
            ws: DynamicsWorkspace::new(model),
            batch,
            riccati: Riccati::new(nv),
            k_ff: (0..horizon).map(|_| VecN::zeros(nv)).collect(),
            k_fb: (0..horizon).map(|_| MatN::zeros(nv, 2 * nv)).collect(),
            jacs: (0..horizon).map(|_| StepJacobians::zeros(nv)).collect(),
            lq: (0..executors)
                .map(|_| LqScratch::for_model(model))
                .collect(),
            rollout: Rollout::new(model, horizon),
        }
    }
}

/// The value function and every scratch buffer of the backward Riccati
/// pass, for an `nv`-DOF model (`nx = 2nv`).
#[derive(Debug)]
struct Riccati {
    /// Value gradient `V_x` and Hessian `V_xx` of the step after the one
    /// being processed (the terminal cost's before the first step).
    vx: VecN,
    vxx: MatN,
    at: MatN,
    bt: MatN,
    vxx_t: MatN,
    vxx_a: MatN,
    vxx_b: MatN,
    qx: VecN,
    qu: VecN,
    qxx: MatN,
    quu: MatN,
    quu_t: MatN,
    qux: MatN,
    qux_t: MatN,
    quu_inv: MatN,
    quu_inv_t: MatN,
    l_s: MatN,
    d_s: VecN,
    kbt: MatN,
    tmp_nv: VecN,
    tmp_nx: VecN,
    tmp_nv_nx: MatN,
    tmp_nx_nx: MatN,
    cross: MatN,
}

impl Riccati {
    fn new(nv: usize) -> Self {
        let nx = 2 * nv;
        Self {
            vx: VecN::zeros(nx),
            vxx: MatN::zeros(nx, nx),
            at: MatN::zeros(nx, nx),
            bt: MatN::zeros(nv, nx),
            vxx_t: MatN::zeros(nx, nx),
            vxx_a: MatN::zeros(nx, nx),
            vxx_b: MatN::zeros(nx, nv),
            qx: VecN::zeros(nx),
            qu: VecN::zeros(nv),
            qxx: MatN::zeros(nx, nx),
            quu: MatN::zeros(nv, nv),
            quu_t: MatN::zeros(nv, nv),
            qux: MatN::zeros(nv, nx),
            qux_t: MatN::zeros(nx, nv),
            quu_inv: MatN::zeros(nv, nv),
            quu_inv_t: MatN::zeros(nv, nv),
            l_s: MatN::zeros(nv, nv),
            d_s: VecN::zeros(nv),
            kbt: MatN::zeros(nx, nv),
            tmp_nv: VecN::zeros(nv),
            tmp_nx: VecN::zeros(nx),
            tmp_nv_nx: MatN::zeros(nv, nx),
            tmp_nx_nx: MatN::zeros(nx, nx),
            cross: MatN::zeros(nx, nx),
        }
    }

    /// Sets `V_x`, `V_xx` to the terminal cost's gradient and Hessian at
    /// the final state `(q, q̇)`.
    fn terminal(&mut self, o: &IlqrOptions, goal: &[f64], q: &[f64], qd: &[f64]) {
        let nv = goal.len();
        self.vx.fill(0.0);
        self.vxx.fill(0.0);
        for i in 0..nv {
            self.vx[i] = o.w_terminal * (q[i] - goal[i]);
            self.vx[nv + i] = o.w_terminal * qd[i];
            self.vxx[(i, i)] = o.w_terminal;
            self.vxx[(nv + i, nv + i)] = o.w_terminal;
        }
    }

    /// One backward step at the sampling point `(q, q̇, u)` with step
    /// Jacobians `jac`: the gains `kf`, `kb` from the Q-function, then
    /// the value update of `V_x`, `V_xx`.
    ///
    /// Every matrix product runs on [`tr_mul_into`], with the left
    /// operand transposed explicitly where it is not already (`V_xx`,
    /// `Q_uu⁻¹`, `Q_uu`). Its sums match [`MatN::mul_mat_into`]'s, so for
    /// finite inputs every output equals the plain product chain's
    /// (`tests::reference_step`).
    ///
    /// # Errors
    /// Returns `Err` if the regularized `Q_uu` is not positive definite.
    #[allow(clippy::too_many_arguments)] // sampling point + Jacobians + two gain outputs
    fn step(
        &mut self,
        isa: Isa,
        o: &IlqrOptions,
        goal: &[f64],
        (q, qd): (&[f64], &[f64]),
        u: &[f64],
        jac: &StepJacobians,
        kf: &mut VecN,
        kb: &mut MatN,
    ) -> Result<(), FactorizationError> {
        let nv = goal.len();
        let nx = 2 * nv;
        let Self {
            vx,
            vxx,
            at,
            bt,
            vxx_t,
            vxx_a,
            vxx_b,
            qx,
            qu,
            qxx,
            quu,
            quu_t,
            qux,
            qux_t,
            quu_inv,
            quu_inv_t,
            l_s,
            d_s,
            kbt,
            tmp_nv,
            tmp_nx,
            tmp_nv_nx,
            tmp_nx_nx,
            cross,
        } = self;
        let (a, b) = (&jac.a, &jac.b);
        a.transpose_into(at);
        b.transpose_into(bt);

        // Q-function terms; the running-cost gradient/Hessian are
        // (block-)diagonal, so they fold in as updates instead of
        // materialized lx/lxx.
        at.mul_vec_into(vx, qx);
        bt.mul_vec_into(vx, qu);
        for i in 0..nv {
            qx[i] += o.w_q * (q[i] - goal[i]);
            qx[nv + i] += o.w_v * qd[i];
            qu[i] += o.w_u * u[i];
        }
        vxx.transpose_into(vxx_t);
        tr_mul_into(isa, vxx_t, a, vxx_a);
        tr_mul_into(isa, a, vxx_a, qxx);
        tr_mul_into(isa, vxx_t, b, vxx_b);
        tr_mul_into(isa, b, vxx_b, quu);
        for i in 0..nv {
            qxx[(i, i)] += o.w_q;
            qxx[(nv + i, nv + i)] += o.w_v;
            quu[(i, i)] += o.w_u + o.reg;
        }
        tr_mul_into(isa, b, vxx_a, qux);

        quu.inverse_spd_into(quu_inv, l_s, d_s)?;
        quu_inv.mul_vec_into(qu, kf);
        kf.scale(-1.0);
        quu_inv.transpose_into(quu_inv_t);
        tr_mul_into(isa, quu_inv_t, qux, kb);
        kb.scale(-1.0);

        // Value update (into vx/vxx, which the Q terms no longer read at
        // this point).
        kb.transpose_into(kbt);
        qux.transpose_into(qux_t);
        kbt.mul_vec_into(qu, tmp_nx);
        vx.copy_from(qx);
        *vx += &*tmp_nx;
        quu.mul_vec_into(kf, tmp_nv);
        kbt.mul_vec_into(tmp_nv, tmp_nx);
        *vx += &*tmp_nx;
        qux_t.mul_vec_into(kf, tmp_nx);
        *vx += &*tmp_nx;

        quu.transpose_into(quu_t);
        tr_mul_into(isa, quu_t, kb, tmp_nv_nx);
        tr_mul_into(isa, kb, tmp_nv_nx, tmp_nx_nx);
        vxx.copy_from(qxx);
        *vxx += &*tmp_nx_nx;
        tr_mul_into(isa, qux, kb, cross);
        for i in 0..nx {
            for j in 0..nx {
                vxx[(i, j)] += cross[(i, j)] + cross[(j, i)];
            }
        }
        Ok(())
    }
}

/// `out = Xᵀ·Y` for row-major `X` (`k×m`) and `Y` (`k×n`), the one dense
/// product kernel of the Riccati pass, on `isa`.
///
/// Register-blocked in 4×4 output tiles; `m % 4`, `n % 4` tails use
/// 4×1, 1×4 and 1×1 tiles of the same body. Row `k` of `X` holds column
/// `k` of `Xᵀ`, so a tile's four left entries load together, as in the
/// sensitivity chain's `chain_product`. Every element sums ascending in
/// `k` from zero like [`MatN::mul_mat_into`], which skips the terms of
/// zero left entries; for finite operands such a `0·y` term leaves the
/// sum unchanged, so `tr_mul_into(isa, &Aᵀ, B, out)` equals
/// `A.mul_mat_into(B, out)`. The AVX2 clone runs the same IEEE
/// operations in the same order with no FMA contraction, so both give
/// the same bits.
///
/// # Panics
/// Panics on shape mismatch (`out` must be `X.cols × Y.cols`).
fn tr_mul_into(isa: Isa, x: &MatN, y: &MatN, out: &mut MatN) {
    assert_eq!(x.rows(), y.rows(), "tr_mul_into shape mismatch");
    assert_eq!(
        (out.rows(), out.cols()),
        (x.cols(), y.cols()),
        "tr_mul_into output shape"
    );
    match isa {
        // SAFETY: `Avx2` is only produced after AVX2 was detected at runtime.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 { .. } => unsafe { tr_mul_avx2(x, y, out) },
        Isa::Portable => tr_mul_impl(x, y, out),
    }
}

/// AVX2-compiled clone of [`tr_mul_impl`].
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tr_mul_avx2(x: &MatN, y: &MatN, out: &mut MatN) {
    tr_mul_impl(x, y, out);
}

/// The tile loop of [`tr_mul_into`].
#[inline(always)]
fn tr_mul_impl(x: &MatN, y: &MatN, out: &mut MatN) {
    let (m, n) = (x.cols(), y.cols());
    let (m4, n4) = (m - m % 4, n - n % 4);
    for i in (0..m4).step_by(4) {
        for j in (0..n4).step_by(4) {
            tr_tile::<4, 4>(x, y, i, j, out);
        }
        for j in n4..n {
            tr_tile::<4, 1>(x, y, i, j, out);
        }
    }
    for i in m4..m {
        for j in (0..n4).step_by(4) {
            tr_tile::<1, 4>(x, y, i, j, out);
        }
        for j in n4..n {
            tr_tile::<1, 1>(x, y, i, j, out);
        }
    }
}

/// The `R×C` output tile at `(i, j)` of [`tr_mul_into`].
#[inline(always)]
fn tr_tile<const R: usize, const C: usize>(x: &MatN, y: &MatN, i: usize, j: usize, out: &mut MatN) {
    let mut acc = [[0.0f64; C]; R];
    let rows = x.as_slice().chunks_exact(x.cols());
    for (xk, yk) in rows.zip(y.as_slice().chunks_exact(y.cols())) {
        let (xk, yk) = (&xk[i..i + R], &yk[j..j + C]);
        for r in 0..R {
            for c in 0..C {
                acc[r][c] += xk[r] * yk[c];
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out.row_mut(i + r)[j..j + C].copy_from_slice(acc_r);
    }
}

/// The forward pass's trajectory buffers and the scratch of the
/// allocation-free RK4/ABA step ([`rk4_step_aba_into`]) they are rolled
/// out with.
#[derive(Debug)]
struct Rollout {
    scratch: RolloutScratch,
    /// The accepted states `(q, q̇)` (`horizon + 1`) and controls
    /// (`horizon`).
    traj: Vec<(Vec<f64>, Vec<f64>)>,
    us: Vec<Vec<f64>>,
    /// The line-search trial's; swapped with the accepted pair when the
    /// trial is accepted.
    trial_traj: Vec<(Vec<f64>, Vec<f64>)>,
    trial_us: Vec<Vec<f64>>,
    /// State deviation `x − x̄` of one step and its feedback `K_fb·(x − x̄)`.
    dx: VecN,
    fb: VecN,
}

impl Rollout {
    fn new(model: &RobotModel, horizon: usize) -> Self {
        let nv = model.nv();
        let traj = || vec![(vec![0.0; model.nq()], vec![0.0; nv]); horizon + 1];
        let us = || vec![vec![0.0; nv]; horizon];
        Self {
            scratch: RolloutScratch::for_model(model),
            traj: traj(),
            us: us(),
            trial_traj: traj(),
            trial_us: us(),
            dx: VecN::zeros(2 * nv),
            fb: VecN::zeros(nv),
        }
    }

    /// Rolls zero controls out from `(q0, q̇0)` into the accepted
    /// buffers.
    ///
    /// # Errors
    /// Returns the index of the step whose dynamics failed; the states
    /// up to it are written.
    fn initial(
        &mut self,
        model: &RobotModel,
        ws: &mut DynamicsWorkspace,
        dt: f64,
        q0: &[f64],
        qd0: &[f64],
    ) -> Result<(), usize> {
        self.traj[0].0.copy_from_slice(q0);
        self.traj[0].1.copy_from_slice(qd0);
        for u in &mut self.us {
            u.fill(0.0);
        }
        for (k, u) in self.us.iter().enumerate() {
            step_into(model, ws, &mut self.scratch, dt, &mut self.traj, k, u).map_err(|_| k)?;
        }
        Ok(())
    }

    /// Rolls the line-search trial of step size `alpha` out into the
    /// trial buffers: `u_k = ū_k + α·k_ff[k] + K_fb[k]·(x_k − x̄_k)` from
    /// the accepted initial state.
    ///
    /// # Errors
    /// Propagates a failed dynamics step.
    fn trial(
        &mut self,
        model: &RobotModel,
        ws: &mut DynamicsWorkspace,
        dt: f64,
        alpha: f64,
        k_ff: &[VecN],
        k_fb: &[MatN],
    ) -> Result<(), DynamicsError> {
        let nv = model.nv();
        let Self {
            scratch,
            traj,
            us,
            trial_traj,
            trial_us,
            dx,
            fb,
        } = self;
        let (q0, qd0) = &traj[0];
        trial_traj[0].0.copy_from_slice(q0);
        trial_traj[0].1.copy_from_slice(qd0);
        for (k, u) in trial_us.iter_mut().enumerate() {
            let ((q, qd), (q_ref, qd_ref)) = (&trial_traj[k], &traj[k]);
            for i in 0..nv {
                dx[i] = q[i] - q_ref[i];
                dx[nv + i] = qd[i] - qd_ref[i];
            }
            k_fb[k].mul_vec_into(dx, fb);
            for i in 0..nv {
                u[i] = us[k][i] + alpha * k_ff[k][i] + fb[i];
            }
            step_into(model, ws, scratch, dt, trial_traj, k, u)?;
        }
        Ok(())
    }

    /// Makes the trial the accepted trajectory.
    fn accept(&mut self) {
        std::mem::swap(&mut self.traj, &mut self.trial_traj);
        std::mem::swap(&mut self.us, &mut self.trial_us);
    }
}

/// `traj[k + 1]` = one RK4/ABA step of `traj[k]` under `u`.
fn step_into(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    scratch: &mut RolloutScratch,
    dt: f64,
    traj: &mut [(Vec<f64>, Vec<f64>)],
    k: usize,
    u: &[f64],
) -> Result<(), DynamicsError> {
    let (head, tail) = traj.split_at_mut(k + 1);
    let (q, qd) = &head[k];
    let (q_new, qd_new) = &mut tail[0];
    rk4_step_aba_into(model, ws, scratch, q, qd, u, dt, q_new, qd_new)
}

/// The optimizer.
#[derive(Debug)]
pub struct Ilqr<'m> {
    model: &'m RobotModel,
    options: IlqrOptions,
    goal: Vec<f64>,
    scratch: IlqrScratch<'m>,
}

impl<'m> Ilqr<'m> {
    /// Creates an optimizer steering towards `q_goal` at rest.
    ///
    /// # Panics
    /// Panics unless `model.nq() == model.nv()` (vector-space models).
    pub fn new(model: &'m RobotModel, q_goal: Vec<f64>, options: IlqrOptions) -> Self {
        assert_eq!(
            model.nq(),
            model.nv(),
            "iLQR example requires a vector-space configuration"
        );
        assert_eq!(q_goal.len(), model.nq());
        Self {
            model,
            options,
            goal: q_goal,
            scratch: IlqrScratch::new(model, options.horizon),
        }
    }

    /// Executors the most recent LQ dispatch engaged (1 = the work gate
    /// kept the batch inline on the caller; 0 before the first solve).
    pub fn lq_workers(&self) -> usize {
        self.scratch.batch.last_workers()
    }

    /// Runs the optimizer from `(q0, qd0)` with zero initial controls.
    ///
    /// The LQ approximation fans out across worker threads through
    /// [`BatchEval`] (the sampling points are independent, Fig 2c/13).
    /// The backward Riccati pass and the forward rollouts (RK4 steps
    /// with the O(n) ABA as stage dynamics) run serially on scratch
    /// preallocated in [`Ilqr::new`]: a warm solve allocates only the
    /// returned [`IlqrResult`], however many iterations it runs.
    ///
    /// A failed dynamics evaluation in a rollout does not panic. In the
    /// initial rollout it ends the solve before any LQ pass, with
    /// `cost_history == [f64::INFINITY]`, no accepted step, zero controls
    /// and `trajectory` holding the states reached before the failing
    /// step. A line-search trial that fails is rejected like one that
    /// raises the cost.
    ///
    /// # Panics
    /// Panics if `q0` or `qd0` does not have `nv` entries, or if the LQ
    /// approximation's ΔFD fails at a point the ABA rollout passed (a
    /// mass matrix singular to one method's rounding only).
    pub fn solve(&mut self, q0: &[f64], qd0: &[f64]) -> IlqrResult {
        let Self {
            model,
            options,
            goal,
            scratch,
        } = self;
        let model: &RobotModel = model;
        let o = *options;
        let goal: &[f64] = goal;
        let nv = model.nv();
        assert_eq!(q0.len(), nv, "q0 dimension");
        assert_eq!(qd0.len(), nv, "qd0 dimension");
        let IlqrScratch {
            ws,
            batch,
            riccati,
            k_ff,
            k_fb,
            jacs,
            lq,
            rollout,
        } = scratch;
        let (mut lq_t, mut solver_t, mut rollout_t) = (0.0, 0.0, 0.0);
        // Sized for every cost this solve can record, so the result's
        // history never reallocates.
        let mut history = Vec::with_capacity(o.max_iters + 1);

        let t0 = Instant::now();
        let initial = rollout.initial(model, ws, o.dt, q0, qd0);
        rollout_t += t0.elapsed().as_secs_f64();
        if let Err(k) = initial {
            history.push(f64::INFINITY);
            return IlqrResult {
                cost_history: history,
                us: rollout.us.clone(),
                trajectory: rollout.traj[..=k].to_vec(),
                converged: false,
                lq_time_s: lq_t,
                solver_time_s: solver_t,
                rollout_time_s: rollout_t,
            };
        }
        let mut cost = stage_cost(&o, goal, nv, &rollout.traj, &rollout.us);
        history.push(cost);
        let mut converged = false;
        let isa = Isa::detect();

        for _ in 0..o.max_iters {
            // ---- LQ approximation (batched across sampling points,
            //      one workspace + scratch slot per executor; Fig 2c).
            //      Fully preallocated: zero steady-state allocation.
            let t = Instant::now();
            lq_jacobians_batched(batch, o.dt, &rollout.traj, &rollout.us, jacs, lq);
            lq_t += t.elapsed().as_secs_f64();

            // ---- Backward Riccati pass (serial, allocation-free).
            let t = Instant::now();
            let (qn, qdn) = &rollout.traj[o.horizon];
            riccati.terminal(&o, goal, qn, qdn);
            let backward_ok = (0..o.horizon).rev().all(|k| {
                let (q, qd) = &rollout.traj[k];
                riccati
                    .step(
                        isa,
                        &o,
                        goal,
                        (q, qd),
                        &rollout.us[k],
                        &jacs[k],
                        &mut k_ff[k],
                        &mut k_fb[k],
                    )
                    .is_ok()
            });
            solver_t += t.elapsed().as_secs_f64();
            if !backward_ok {
                break;
            }

            // ---- Forward pass with line search (serial,
            //      allocation-free).
            let t = Instant::now();
            let mut accepted = false;
            for &alpha in &[1.0, 0.5, 0.25, 0.1, 0.03] {
                if rollout.trial(model, ws, o.dt, alpha, k_ff, k_fb).is_err() {
                    continue;
                }
                let new_cost = stage_cost(&o, goal, nv, &rollout.trial_traj, &rollout.trial_us);
                if new_cost < cost {
                    let rel = (cost - new_cost) / cost.max(1e-12);
                    rollout.accept();
                    cost = new_cost;
                    history.push(cost);
                    accepted = true;
                    if rel < o.tol {
                        converged = true;
                    }
                    break;
                }
            }
            rollout_t += t.elapsed().as_secs_f64();
            if !accepted || converged {
                converged = converged || !accepted;
                break;
            }
        }

        IlqrResult {
            cost_history: history,
            us: rollout.us.clone(),
            trajectory: rollout.traj.clone(),
            converged,
            lq_time_s: lq_t,
            solver_time_s: solver_t,
            rollout_time_s: rollout_t,
        }
    }
}

/// Quadratic tracking cost of a trajectory/control sequence.
fn stage_cost(
    o: &IlqrOptions,
    goal: &[f64],
    nv: usize,
    traj: &[(Vec<f64>, Vec<f64>)],
    us: &[Vec<f64>],
) -> f64 {
    let mut c = 0.0;
    for (k, u) in us.iter().enumerate() {
        let (q, qd) = &traj[k];
        for i in 0..nv {
            let e = q[i] - goal[i];
            c += 0.5 * o.w_q * e * e + 0.5 * o.w_v * qd[i] * qd[i] + 0.5 * o.w_u * u[i] * u[i];
        }
    }
    let (qn, qdn) = traj.last().unwrap();
    for i in 0..nv {
        let e = qn[i] - goal[i];
        c += 0.5 * o.w_terminal * (e * e + qdn[i] * qdn[i]);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::{rk4_step, rk4_step_with_sensitivity};
    use rbd_model::{random_state, robots, ModelBuilder, SplitMix64};
    use rbd_spatial::SpatialInertia;

    /// The backward step as a chain of [`MatN::mul_mat_into`] products
    /// on the same scratch — the reference [`Riccati::step`] must
    /// reproduce exactly.
    #[allow(clippy::too_many_arguments)]
    fn reference_step(
        r: &mut Riccati,
        o: &IlqrOptions,
        goal: &[f64],
        (q, qd): (&[f64], &[f64]),
        u: &[f64],
        jac: &StepJacobians,
        kf: &mut VecN,
        kb: &mut MatN,
    ) -> Result<(), FactorizationError> {
        let nv = goal.len();
        let nx = 2 * nv;
        let Riccati {
            vx,
            vxx,
            at,
            bt,
            vxx_a,
            vxx_b,
            qx,
            qu,
            qxx,
            quu,
            qux,
            qux_t,
            quu_inv,
            l_s,
            d_s,
            kbt,
            tmp_nv,
            tmp_nx,
            tmp_nv_nx,
            tmp_nx_nx,
            cross,
            ..
        } = r;
        let (a, b) = (&jac.a, &jac.b);
        a.transpose_into(at);
        b.transpose_into(bt);
        at.mul_vec_into(vx, qx);
        bt.mul_vec_into(vx, qu);
        for i in 0..nv {
            qx[i] += o.w_q * (q[i] - goal[i]);
            qx[nv + i] += o.w_v * qd[i];
            qu[i] += o.w_u * u[i];
        }
        vxx.mul_mat_into(a, vxx_a);
        at.mul_mat_into(vxx_a, qxx);
        vxx.mul_mat_into(b, vxx_b);
        bt.mul_mat_into(vxx_b, quu);
        for i in 0..nv {
            qxx[(i, i)] += o.w_q;
            qxx[(nv + i, nv + i)] += o.w_v;
            quu[(i, i)] += o.w_u + o.reg;
        }
        bt.mul_mat_into(vxx_a, qux);

        quu.inverse_spd_into(quu_inv, l_s, d_s)?;
        quu_inv.mul_vec_into(qu, kf);
        kf.scale(-1.0);
        quu_inv.mul_mat_into(qux, kb);
        kb.scale(-1.0);

        kb.transpose_into(kbt);
        qux.transpose_into(qux_t);
        kbt.mul_vec_into(qu, tmp_nx);
        vx.copy_from(qx);
        *vx += &*tmp_nx;
        quu.mul_vec_into(kf, tmp_nv);
        kbt.mul_vec_into(tmp_nv, tmp_nx);
        *vx += &*tmp_nx;
        qux_t.mul_vec_into(kf, tmp_nx);
        *vx += &*tmp_nx;

        quu.mul_mat_into(kb, tmp_nv_nx);
        kbt.mul_mat_into(tmp_nv_nx, tmp_nx_nx);
        vxx.copy_from(qxx);
        *vxx += &*tmp_nx_nx;
        qux_t.mul_mat_into(kb, cross);
        for i in 0..nx {
            for j in 0..nx {
                vxx[(i, j)] += cross[(i, j)] + cross[(j, i)];
            }
        }
        Ok(())
    }

    /// Zero-control `rk4_step` rollout of `horizon` steps.
    fn rk4_step_rollout(
        model: &RobotModel,
        dt: f64,
        q0: &[f64],
        qd0: &[f64],
        horizon: usize,
    ) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut ws = DynamicsWorkspace::new(model);
        let u = vec![0.0; model.nv()];
        let mut traj = vec![(q0.to_vec(), qd0.to_vec())];
        for _ in 0..horizon {
            let (q, qd) = traj.last().unwrap();
            let next = rk4_step(model, &mut ws, q, qd, &u, dt);
            traj.push(next);
        }
        traj
    }

    #[test]
    fn riccati_equals_mul_mat_reference_exactly() {
        for model in [robots::iiwa(), robots::serial_chain(3)] {
            let nv = model.nv();
            let o = IlqrOptions {
                horizon: 12,
                ..IlqrOptions::default()
            };
            let mut rng = SplitMix64::new(41);
            let goal: Vec<f64> = (0..nv).map(|_| rng.next_symmetric()).collect();
            let s = random_state(&model, 9);
            let us: Vec<Vec<f64>> = (0..o.horizon)
                .map(|_| (0..nv).map(|_| 2.0 * rng.next_symmetric()).collect())
                .collect();
            let mut ws = DynamicsWorkspace::new(&model);
            let mut traj = vec![(s.q, s.qd)];
            let mut jacs = Vec::new();
            for u in &us {
                let (q, qd) = traj.last().unwrap();
                let (q_new, qd_new, jac) =
                    rk4_step_with_sensitivity(&model, &mut ws, q, qd, u, o.dt);
                traj.push((q_new, qd_new));
                jacs.push(jac);
            }

            for isa in Isa::host_all() {
                let (mut got, mut want) = (Riccati::new(nv), Riccati::new(nv));
                let (qn, qdn) = &traj[o.horizon];
                got.terminal(&o, &goal, qn, qdn);
                want.terminal(&o, &goal, qn, qdn);
                let (mut kf, mut kb) = (VecN::zeros(nv), MatN::zeros(nv, 2 * nv));
                let (mut kf_ref, mut kb_ref) = (kf.clone(), kb.clone());
                for k in (0..o.horizon).rev() {
                    let x = (&traj[k].0[..], &traj[k].1[..]);
                    got.step(isa, &o, &goal, x, &us[k], &jacs[k], &mut kf, &mut kb)
                        .unwrap();
                    reference_step(
                        &mut want,
                        &o,
                        &goal,
                        x,
                        &us[k],
                        &jacs[k],
                        &mut kf_ref,
                        &mut kb_ref,
                    )
                    .unwrap();
                    let tag = format!("{} {isa:?} step {k}", model.name());
                    assert!(
                        kf.max_abs() > 0.0 && kb.max_abs() > 0.0,
                        "{tag}: zero gains"
                    );
                    assert_eq!(kf, kf_ref, "{tag}: k_ff");
                    assert_eq!(kb, kb_ref, "{tag}: k_fb");
                    assert_eq!(got.vx, want.vx, "{tag}: V_x");
                    assert_eq!(got.vxx, want.vxx, "{tag}: V_xx");
                }
            }
        }
    }

    #[test]
    fn tr_mul_matches_mul_mat_on_every_tile_shape() {
        // Every m, n residue mod 4 and a k that is not a tile multiple.
        for (k, m, n) in [(6, 5, 7), (3, 8, 2), (9, 1, 4), (4, 4, 4), (2, 3, 3)] {
            let x = MatN::from_fn(k, m, |a, b| (0.37 * (7 * a + 3 * b) as f64).sin());
            let y = MatN::from_fn(k, n, |a, b| (0.53 * (5 * a + 11 * b) as f64 + 1.0).cos());
            let mut want = MatN::zeros(m, n);
            x.transpose().mul_mat_into(&y, &mut want);
            for isa in Isa::host_all() {
                let mut got = MatN::zeros(m, n);
                tr_mul_into(isa, &x, &y, &mut got);
                assert_eq!(got, want, "{k}x{m}ᵀ·{k}x{n} on {isa:?}");
            }
        }
    }

    #[test]
    fn initial_cost_matches_rk4_step_rollout() {
        for (model, seed) in [(robots::iiwa(), 2), (robots::serial_chain(3), 4)] {
            let nv = model.nv();
            let o = IlqrOptions {
                horizon: 30,
                max_iters: 1,
                ..IlqrOptions::default()
            };
            let goal = vec![0.3; nv];
            let s = random_state(&model, seed);
            let traj = rk4_step_rollout(&model, o.dt, &s.q, &s.qd, o.horizon);
            let want = stage_cost(&o, &goal, nv, &traj, &vec![vec![0.0; nv]; o.horizon]);
            let r = Ilqr::new(&model, goal, o).solve(&s.q, &s.qd);
            let rel = (r.cost_history[0] - want).abs() / want.abs();
            assert!(
                rel <= 1e-12,
                "{}: initial cost {} vs rk4_step rollout {want} (rel {rel:e})",
                model.name(),
                r.cost_history[0]
            );
        }
    }

    #[test]
    fn singular_leaf_ends_the_solve_without_panicking() {
        // A chain whose leaf has no inertia: its articulated-inertia
        // block is zero, so the ABA stage of the first rollout step
        // returns `SingularMassMatrix`.
        let chain = robots::serial_chain(2);
        let mut b = ModelBuilder::new("chain2-massless-leaf");
        let root = b.add_body(
            "link0",
            None,
            chain.joint(0).jtype,
            chain.joint(0).placement,
            *chain.link_inertia(0),
        );
        b.add_body(
            "link1",
            Some(root),
            chain.joint(1).jtype,
            chain.joint(1).placement,
            SpatialInertia::zero(),
        );
        let model = b.build();
        let mut ilqr = Ilqr::new(&model, vec![0.2, 0.1], IlqrOptions::default());
        let r = ilqr.solve(&[0.1, -0.2], &[0.0, 0.3]);
        assert_eq!(r.cost_history, [f64::INFINITY]);
        assert!(!r.converged);
        assert_eq!(r.lq_time_s, 0.0, "no LQ pass may run");
        assert_eq!(r.trajectory, [(vec![0.1, -0.2], vec![0.0, 0.3])]);
        assert_eq!(r.us, vec![vec![0.0; 2]; IlqrOptions::default().horizon]);
    }

    #[test]
    fn cost_decreases_monotonically() {
        let model = robots::serial_chain(2);
        let goal = vec![0.6, -0.4];
        let mut ilqr = Ilqr::new(
            &model,
            goal,
            IlqrOptions {
                horizon: 25,
                max_iters: 12,
                ..IlqrOptions::default()
            },
        );
        let q0 = vec![0.0; 2];
        let qd0 = vec![0.0; 2];
        let r = ilqr.solve(&q0, &qd0);
        assert!(r.cost_history.len() >= 2, "no accepted iteration");
        for w in r.cost_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!(*r.cost_history.last().unwrap() < 0.5 * r.cost_history[0]);
    }

    #[test]
    fn reaches_goal_neighborhood() {
        let model = robots::serial_chain(2);
        let goal = vec![0.3, 0.2];
        let mut ilqr = Ilqr::new(
            &model,
            goal.clone(),
            IlqrOptions {
                horizon: 35,
                max_iters: 25,
                w_terminal: 150.0,
                ..IlqrOptions::default()
            },
        );
        let r = ilqr.solve(&[0.0; 2], &[0.0; 2]);
        let (qn, _) = r.trajectory.last().unwrap();
        for i in 0..2 {
            assert!(
                (qn[i] - goal[i]).abs() < 0.15,
                "final q[{i}] = {} vs goal {}",
                qn[i],
                goal[i]
            );
        }
    }

    /// ∞-norm distance of `q` to `goal`.
    fn goal_error(q: &[f64], goal: &[f64]) -> f64 {
        q.iter()
            .zip(goal)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max)
    }

    /// Receding-horizon options of the closed-loop tests.
    fn mpc_options() -> IlqrOptions {
        IlqrOptions {
            horizon: 20,
            max_iters: 6,
            dt: 0.02,
            w_terminal: 120.0,
            ..IlqrOptions::default()
        }
    }

    #[test]
    fn closed_loop_reaches_goal() {
        // Classical MPC: re-solve every tick, apply the first control to
        // the RK4 plant.
        let model = robots::serial_chain(2);
        let goal = vec![0.4, -0.3];
        let opts = mpc_options();
        let mut solver = Ilqr::new(&model, goal.clone(), opts);
        let mut ws = DynamicsWorkspace::new(&model);
        let (mut q, mut qd) = (vec![0.0, 0.0], vec![0.0, 0.0]);
        for _ in 0..25 {
            let u = solver.solve(&q, &qd).us[0].clone();
            (q, qd) = rk4_step(&model, &mut ws, &q, &qd, &u, opts.dt);
        }
        let final_error = goal_error(&q, &goal);
        assert!(
            final_error < 0.2,
            "closed loop did not approach the goal: err {final_error}"
        );
    }

    #[test]
    fn closed_loop_beats_open_loop_under_disturbance() {
        // Apply the first tick's plan open-loop vs re-planning: with a
        // velocity disturbance injected mid-run, MPC ends closer.
        let model = robots::serial_chain(2);
        let goal = vec![0.5, 0.2];
        let opts = mpc_options();

        // Open loop: one solve, roll out its controls with a disturbance.
        let mut solver = Ilqr::new(&model, goal.clone(), opts);
        let sol = solver.solve(&[0.0, 0.0], &[0.0, 0.0]);
        let mut ws = DynamicsWorkspace::new(&model);
        let (mut q, mut qd) = (vec![0.0, 0.0], vec![0.0, 0.0]);
        for (k, u) in sol.us.iter().enumerate().take(20) {
            if k == 8 {
                qd[0] += 1.5; // kick
            }
            (q, qd) = rk4_step(&model, &mut ws, &q, &qd, u, opts.dt);
        }
        let open_err = goal_error(&q, &goal);

        // Closed loop with the same kick.
        let (mut qc, mut qdc) = (vec![0.0, 0.0], vec![0.0, 0.0]);
        for k in 0..20 {
            if k == 8 {
                qdc[0] += 1.5;
            }
            let u = solver.solve(&qc, &qdc).us[0].clone();
            (qc, qdc) = rk4_step(&model, &mut ws, &qc, &qdc, &u, opts.dt);
        }
        let closed_err = goal_error(&qc, &goal);

        assert!(
            closed_err < open_err + 1e-9,
            "closed {closed_err} vs open {open_err}"
        );
    }

    #[test]
    fn timing_breakdown_populated() {
        let model = robots::serial_chain(2);
        let mut ilqr = Ilqr::new(
            &model,
            vec![0.1, 0.1],
            IlqrOptions {
                horizon: 10,
                max_iters: 3,
                ..IlqrOptions::default()
            },
        );
        let r = ilqr.solve(&[0.0; 2], &[0.0; 2]);
        assert!(r.lq_time_s > 0.0);
        assert!(r.solver_time_s > 0.0);
        assert!(r.rollout_time_s > 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_quaternion_models() {
        let model = robots::hyq();
        let _ = Ilqr::new(&model, vec![0.0; 18], IlqrOptions::default());
    }
}
