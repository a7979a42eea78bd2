//! Manifold integrators and their discrete sensitivities.
//!
//! The 4th-order Runge-Kutta sensitivity analysis is the paper's
//! canonical partially-serial workload (Fig 13): each step makes four
//! *serial* ΔFD calls, while steps at different sampling points are
//! independent.

use rbd_dynamics::{fd_derivatives_into, DynamicsWorkspace, FdDerivatives, Isa};
use rbd_model::{integrate_config, integrate_config_into, RobotModel};
use rbd_spatial::MatN;

/// Discrete dynamics Jacobians of one integration step in tangent
/// coordinates: `δx⁺ ≈ A δx + B δu` with `x = (q, q̇) ∈ R^{2nv}`.
#[derive(Debug, Clone)]
pub struct StepJacobians {
    /// `∂x⁺/∂x`, `2nv × 2nv`.
    pub a: MatN,
    /// `∂x⁺/∂u`, `2nv × nv`.
    pub b: MatN,
}

impl StepJacobians {
    /// Zero-initialized Jacobians sized for an `nv`-DOF model (the shape
    /// [`rk4_step_with_sensitivity_into`] writes).
    pub fn zeros(nv: usize) -> Self {
        Self {
            a: MatN::zeros(2 * nv, 2 * nv),
            b: MatN::zeros(2 * nv, nv),
        }
    }
}

/// One classical RK4 step on the configuration manifold.
///
/// # Panics
/// Panics if forward dynamics fails.
pub fn rk4_step(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    h: f64,
) -> (Vec<f64>, Vec<f64>) {
    let fd = |ws: &mut DynamicsWorkspace, q: &[f64], qd: &[f64]| {
        rbd_dynamics::forward_dynamics(model, ws, q, qd, tau, None).expect("fd")
    };
    let nv = model.nv();
    let k1v = qd.to_vec();
    let k1a = fd(ws, q, qd);

    let q2 = integrate_config(model, q, &k1v, h / 2.0);
    let qd2: Vec<f64> = (0..nv).map(|i| qd[i] + h / 2.0 * k1a[i]).collect();
    let k2a = fd(ws, &q2, &qd2);

    let q3 = integrate_config(model, q, &qd2, h / 2.0);
    let qd3: Vec<f64> = (0..nv).map(|i| qd[i] + h / 2.0 * k2a[i]).collect();
    let k3a = fd(ws, &q3, &qd3);

    let q4 = integrate_config(model, q, &qd3, h);
    let qd4: Vec<f64> = (0..nv).map(|i| qd[i] + h * k3a[i]).collect();
    let k4a = fd(ws, &q4, &qd4);

    let vbar: Vec<f64> = (0..nv)
        .map(|i| (k1v[i] + 2.0 * qd2[i] + 2.0 * qd3[i] + qd4[i]) / 6.0)
        .collect();
    let q_new = integrate_config(model, q, &vbar, h);
    let qd_new: Vec<f64> = (0..nv)
        .map(|i| qd[i] + h / 6.0 * (k1a[i] + 2.0 * k2a[i] + 2.0 * k3a[i] + k4a[i]))
        .collect();
    (q_new, qd_new)
}

/// Row-major `nv×nv` sensitivity blocks of one RK4 stage quantity with
/// respect to `(δq, δq̇, δu)`, in that order.
type Blocks = [Vec<f64>; 3];

/// Reusable scratch for [`rk4_step_with_sensitivity_into`]: the four
/// stage ΔFD outputs, the chain rule's sensitivity blocks and the
/// intermediate stage-state vectors. Holding one of these per evaluation
/// thread makes the whole LQ approximation allocation-free in steady
/// state.
#[derive(Debug, Clone, Default)]
pub struct Rk4SensScratch {
    /// ΔFD outputs of the four stages. Stage 1's `(J_q, J_q̇, M⁻¹)` is
    /// also its acceleration sensitivity `s_k₁a` (the incoming
    /// sensitivities are the identity).
    d: [FdDerivatives; 4],
    chain: ChainScratch,
    q_stage: Vec<f64>,
    qd_stage: [Vec<f64>; 3],
    vbar: Vec<f64>,
}

/// Sensitivity blocks of the chain rule (see [`sens_chain_impl`]).
#[derive(Debug, Clone, Default)]
struct ChainScratch {
    /// `nv×nv` identity and zero blocks: `s_q₀ = (I, 0, 0)` and
    /// `s_q̇₀ = (0, I, 0)` are views of these.
    eye: Vec<f64>,
    zero: Vec<f64>,
    /// `s_q̇₂`, `s_q̇₃`, `s_q̇₄`.
    s_qd: [Blocks; 3],
    /// `s_k₂a`, `s_k₃a`, `s_k₄a`.
    s_ka: [Blocks; 3],
    /// `s_q₃`, then `s_q₄`; each is consumed by its own stage.
    s_q: Blocks,
    /// `J_qᵀ` and `J_q̇ᵀ` of the stage being chained: the products'
    /// left operands, column-major so a tile's four rows load together.
    jt: [MatN; 2],
}

impl ChainScratch {
    fn ensure_dims(&mut self, nv: usize) {
        let n2 = nv * nv;
        if self.eye.len() != n2 {
            self.eye.clear();
            self.eye.resize(n2, 0.0);
            for i in 0..nv {
                self.eye[i * nv + i] = 1.0;
            }
            self.zero.clear();
            self.zero.resize(n2, 0.0);
        }
        for v in self
            .s_qd
            .iter_mut()
            .chain(self.s_ka.iter_mut())
            .chain(std::iter::once(&mut self.s_q))
            .flatten()
        {
            v.resize(n2, 0.0);
        }
        for m in &mut self.jt {
            m.resize(nv, nv);
        }
    }
}

impl Rk4SensScratch {
    /// Scratch sized for `model`; also grows lazily on first use.
    pub fn for_model(model: &RobotModel) -> Self {
        let mut s = Self::default();
        s.ensure_dims(model);
        s
    }

    /// Sizes every buffer for `model`; allocation-free when already
    /// sized. The constant identity/zero sensitivities of the initial
    /// state are (re)installed here.
    pub fn ensure_dims(&mut self, model: &RobotModel) {
        let nv = model.nv();
        for d in &mut self.d {
            d.ensure_dims(nv);
        }
        self.chain.ensure_dims(nv);
        self.q_stage.resize(model.nq(), 0.0);
        for v in self.qd_stage.iter_mut() {
            v.resize(nv, 0.0);
        }
        self.vbar.resize(nv, 0.0);
    }
}

/// One RK4 step together with its discrete Jacobians, computed from four
/// serial ΔFD evaluations (the Fig 13 sub-task chain).
///
/// Derivatives are taken in tangent coordinates; for quaternion joints
/// the transport of the configuration tangent across the step is
/// approximated to first order in `h` (exact for 1-DOF joints).
///
/// Allocates its scratch and outputs per call; hot paths should hold a
/// [`Rk4SensScratch`] and call [`rk4_step_with_sensitivity_into`].
///
/// # Panics
/// Panics if forward dynamics fails.
pub fn rk4_step_with_sensitivity(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    h: f64,
) -> (Vec<f64>, Vec<f64>, StepJacobians) {
    let mut scratch = Rk4SensScratch::for_model(model);
    let mut q_new = vec![0.0; model.nq()];
    let mut qd_new = vec![0.0; model.nv()];
    let mut jac = StepJacobians {
        a: MatN::zeros(0, 0),
        b: MatN::zeros(0, 0),
    };
    rk4_step_with_sensitivity_into(
        model,
        ws,
        &mut scratch,
        q,
        qd,
        tau,
        h,
        &mut q_new,
        &mut qd_new,
        &mut jac,
    );
    (q_new, qd_new, jac)
}

/// [`rk4_step_with_sensitivity`] into caller-reused scratch and outputs:
/// performs zero steady-state heap allocation (all per-stage sensitivity
/// blocks live in `scratch`, the outputs are resized only on first use)
/// — the last allocating link of the LQ approximation chain.
///
/// The chain rule skips the known structure of the first two stages and
/// runs 15 `nv×nv` products per step instead of 24; the Jacobians are
/// exactly equal to the dense six-products-per-stage chain's for finite
/// ΔFD outputs.
///
/// # Panics
/// Panics if forward dynamics fails or on dimension mismatches.
#[allow(clippy::too_many_arguments)] // stage inputs + three outputs, mirrors the by-value API
pub fn rk4_step_with_sensitivity_into(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    scratch: &mut Rk4SensScratch,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    h: f64,
    q_new: &mut Vec<f64>,
    qd_new: &mut Vec<f64>,
    jac: &mut StepJacobians,
) {
    rk4_sens_step(
        Isa::detect(),
        model,
        ws,
        scratch,
        q,
        qd,
        tau,
        h,
        q_new,
        qd_new,
        jac,
    );
}

/// [`rk4_step_with_sensitivity_into`] with the chain's instruction set
/// chosen by the caller.
#[allow(clippy::too_many_arguments)]
fn rk4_sens_step(
    isa: Isa,
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    scratch: &mut Rk4SensScratch,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    h: f64,
    q_new: &mut Vec<f64>,
    qd_new: &mut Vec<f64>,
    jac: &mut StepJacobians,
) {
    let nv = model.nv();
    scratch.ensure_dims(model);
    q_new.resize(model.nq(), 0.0);
    qd_new.resize(nv, 0.0);
    jac.a.resize(2 * nv, 2 * nv);
    jac.b.resize(2 * nv, nv);

    let Rk4SensScratch {
        d,
        chain,
        q_stage,
        qd_stage,
        vbar,
    } = scratch;
    let [qd2, qd3, qd4] = qd_stage;
    let mut fd = |q_i: &[f64], qd_i: &[f64], out: &mut FdDerivatives| {
        fd_derivatives_into(model, ws, q_i, qd_i, tau, None, out).expect("ΔFD");
    };

    // The state path: four serial ΔFD stages. The sensitivities never
    // feed back into it, so the chain rule runs afterwards in one pass.
    fd(q, qd, &mut d[0]);
    // Stage 2: q2 = q ⊕ (h/2 k1v), qd2 = qd + h/2 k1a.
    integrate_config_into(model, q, qd, h / 2.0, q_stage);
    for i in 0..nv {
        qd2[i] = qd[i] + h / 2.0 * d[0].qdd[i];
    }
    fd(q_stage, qd2, &mut d[1]);
    // Stage 3.
    integrate_config_into(model, q, qd2, h / 2.0, q_stage);
    for i in 0..nv {
        qd3[i] = qd[i] + h / 2.0 * d[1].qdd[i];
    }
    fd(q_stage, qd3, &mut d[2]);
    // Stage 4.
    integrate_config_into(model, q, qd3, h, q_stage);
    for i in 0..nv {
        qd4[i] = qd[i] + h * d[2].qdd[i];
    }
    fd(q_stage, qd4, &mut d[3]);

    // Combine.
    for i in 0..nv {
        vbar[i] = (qd[i] + 2.0 * qd2[i] + 2.0 * qd3[i] + qd4[i]) / 6.0;
    }
    integrate_config_into(model, q, vbar, h, q_new);
    for i in 0..nv {
        qd_new[i] =
            qd[i] + h / 6.0 * (d[0].qdd[i] + 2.0 * d[1].qdd[i] + 2.0 * d[2].qdd[i] + d[3].qdd[i]);
    }

    sens_chain(isa, h, d, chain, jac);
}

/// Runs [`sens_chain_impl`] on `isa`. The AVX2 clone is the same code
/// compiled with 4-wide registers: the same IEEE operations in the same
/// order and no FMA contraction, so both give the same bits.
fn sens_chain(
    isa: Isa,
    h: f64,
    d: &[FdDerivatives; 4],
    c: &mut ChainScratch,
    jac: &mut StepJacobians,
) {
    match isa {
        // SAFETY: `Avx2` is only produced after AVX2 was detected at runtime.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 { .. } => unsafe { sens_chain_avx2(h, d, c, jac) },
        Isa::Portable => sens_chain_impl(h, d, c, jac),
    }
}

/// AVX2-compiled clone of [`sens_chain_impl`].
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sens_chain_avx2(
    h: f64,
    d: &[FdDerivatives; 4],
    c: &mut ChainScratch,
    jac: &mut StepJacobians,
) {
    sens_chain_impl(h, d, c, jac);
}

/// `(J_q, J_q̇, M⁻¹)` of one stage's ΔFD output as row-major slices.
#[inline(always)]
fn fd_blocks(d: &FdDerivatives) -> [&[f64]; 3] {
    [
        d.dqdd_dq.as_slice(),
        d.dqdd_dqd.as_slice(),
        d.dqdd_dtau.as_slice(),
    ]
}

/// The RK4 chain rule from the four stage ΔFD outputs to the step
/// Jacobians. Stage `k` has acceleration sensitivity
/// `s_kₖa = J_q·s_qₖ + J_q̇·s_q̇ₖ (+ M⁻¹ on the δu block)`, where
/// `s_qₖ = s_q₀ + cₖ·s_q̇ₖ₋₁` and `s_q̇ₖ = s_q̇₀ + cₖ·s_kₖ₋₁a`.
///
/// The known structure of the first two stages is never multiplied:
/// - stage 1: `(s_q₁, s_q̇₁) = ((I,0,0), (0,I,0))`, so `s_k₁a` is
///   `(J_q, J_q̇, M⁻¹)` itself;
/// - stage 2: `s_q₂ = (I, h/2·I, 0)`, so `J_q·s_q₂` is `(J_q, h/2·J_q, 0)`
///   and only the three `J_q̇·s_q̇₂` products remain;
/// - stages 3 and 4: three two-product [`chain_product`] calls each.
///
/// That is 15 `nv×nv` products per step instead of 24. Every element
/// keeps the dense chain's expression: each product sums ascending in
/// `k` from zero and the two products of a stage are added afterwards,
/// so the results equal the dense chain's. Where the dense chain
/// multiplies by an identity or zero block, the skipped terms are exact
/// zeros for finite ΔFD outputs and can only change the sign of a zero.
#[inline(always)]
fn sens_chain_impl(h: f64, d: &[FdDerivatives; 4], c: &mut ChainScratch, jac: &mut StepJacobians) {
    let nv = d[0].qdd.len();
    let ChainScratch {
        eye,
        zero,
        s_qd,
        s_ka,
        s_q,
        jt,
    } = c;
    let s_q0 = [&eye[..], &zero[..], &zero[..]];
    let s_qd0 = [&zero[..], &eye[..], &zero[..]];
    let [s_qd2, s_qd3, s_qd4] = s_qd;
    let [s_k2a, s_k3a, s_k4a] = s_ka;
    let s_k1a = fd_blocks(&d[0]);

    // Stage 2.
    for b in 0..3 {
        axpy(&mut s_qd2[b], s_qd0[b], h / 2.0, s_k1a[b]);
    }
    let [jq, _, minv] = fd_blocks(&d[1]);
    d[1].dqdd_dqd.transpose_into(&mut jt[1]);
    // Per block, the addend J_q·s_q₂ as (scale, matrix): J_q, h/2·J_q and,
    // in place of the zero δu block, the M⁻¹ term.
    let jq_sq2 = [(1.0, jq), (h / 2.0, jq), (1.0, minv)];
    for b in 0..3 {
        chain_product::<false>(
            nv,
            &[],
            &[],
            jt[1].as_slice(),
            &s_qd2[b],
            Some(jq_sq2[b]),
            &mut s_k2a[b],
        );
    }
    // Stage 3.
    for b in 0..3 {
        axpy(&mut s_q[b], s_q0[b], h / 2.0, &s_qd2[b]);
        axpy(&mut s_qd3[b], s_qd0[b], h / 2.0, &s_k2a[b]);
    }
    general_stage(nv, &d[2], jt, s_q, s_qd3, s_k3a);
    // Stage 4.
    for b in 0..3 {
        axpy(&mut s_q[b], s_q0[b], h, &s_qd3[b]);
        axpy(&mut s_qd4[b], s_qd0[b], h, &s_k3a[b]);
    }
    general_stage(nv, &d[3], jt, s_q, s_qd4, s_k4a);

    // Combine: the q rows are s_q₀ + h/6·(s_q̇₀ + 2 s_q̇₂ + 2 s_q̇₃ + s_q̇₄),
    // the q̇ rows s_q̇₀ + h/6·(s_k₁a + 2 s_k₂a + 2 s_k₃a + s_k₄a).
    let s6 = h / 6.0;
    for b in 0..3 {
        for i in 0..nv {
            let r = i * nv..(i + 1) * nv;
            rk4_sum_row(
                jac_row(jac, nv, b, i),
                &s_q0[b][r.clone()],
                s6,
                &s_qd0[b][r.clone()],
                &s_qd2[b][r.clone()],
                &s_qd3[b][r.clone()],
                &s_qd4[b][r.clone()],
            );
            rk4_sum_row(
                jac_row(jac, nv, b, nv + i),
                &s_qd0[b][r.clone()],
                s6,
                &s_k1a[b][r.clone()],
                &s_k2a[b][r.clone()],
                &s_k3a[b][r.clone()],
                &s_k4a[b][r],
            );
        }
    }
}

/// Row `row` of the step Jacobians' column block `b` (`δq`, `δq̇` in
/// `A`, `δu` in `B`).
#[inline(always)]
fn jac_row(jac: &mut StepJacobians, nv: usize, b: usize, row: usize) -> &mut [f64] {
    if b < 2 {
        &mut jac.a.row_mut(row)[b * nv..][..nv]
    } else {
        jac.b.row_mut(row)
    }
}

/// `s_kₖa = J_q·s_qₖ + J_q̇·s_q̇ₖ (+ M⁻¹ on the δu block)` of stages 3 and 4.
#[inline(always)]
fn general_stage(
    nv: usize,
    d: &FdDerivatives,
    jt: &mut [MatN; 2],
    sq: &Blocks,
    sqd: &Blocks,
    ka: &mut Blocks,
) {
    d.dqdd_dq.transpose_into(&mut jt[0]);
    d.dqdd_dqd.transpose_into(&mut jt[1]);
    let [jq_t, jqd_t] = [jt[0].as_slice(), jt[1].as_slice()];
    let add = [None, None, Some((1.0, d.dqdd_dtau.as_slice()))];
    for b in 0..3 {
        chain_product::<true>(nv, jq_t, &sq[b], jqd_t, &sqd[b], add[b], &mut ka[b]);
    }
}

/// `out = base + s·x`, element-wise.
#[inline(always)]
fn axpy(out: &mut [f64], base: &[f64], s: f64, x: &[f64]) {
    for ((o, &a), &xv) in out.iter_mut().zip(base).zip(x) {
        *o = a + s * xv;
    }
}

/// One row of the RK4 combine: `out = e + s·(((x1 + 2·x2) + 2·x3) + x4)`.
#[inline(always)]
fn rk4_sum_row(out: &mut [f64], e: &[f64], s: f64, x1: &[f64], x2: &[f64], x3: &[f64], x4: &[f64]) {
    let terms = e.iter().zip(x1).zip(x2).zip(x3).zip(x4);
    for (o, ((((&ev, &a), &b), &c), &d)) in out.iter_mut().zip(terms) {
        *o = ev + s * (((a + 2.0 * b) + 2.0 * c) + d);
    }
}

/// Register-blocked `out = A₁·B₁ + A₂·B₂ + s·X` over `n×n` slices, with
/// `A₁`, `A₂` given transposed (`a1t`, `a2t`) and the rest row-major.
/// With `TWO = false` the `A₁·B₁` term is absent (`a1t`/`b1` are
/// unused); `add = None` drops the `s·X` term.
///
/// 4×4 output tiles hold one accumulator set per product. Each sum runs
/// ascending in `k` from zero, like [`MatN::mul_mat_into`], and the two
/// products are added only at the end, so every element equals the one
/// of two separate products followed by an add. `n % 4` tails use 4×1,
/// 1×4 and 1×1 tiles of the same body.
#[inline(always)]
fn chain_product<const TWO: bool>(
    n: usize,
    a1t: &[f64],
    b1: &[f64],
    a2t: &[f64],
    b2: &[f64],
    add: Option<(f64, &[f64])>,
    out: &mut [f64],
) {
    let n4 = n - n % 4;
    for i in (0..n4).step_by(4) {
        for j in (0..n4).step_by(4) {
            tile::<4, 4, TWO>(n, i, j, a1t, b1, a2t, b2, add, out);
        }
        for j in n4..n {
            tile::<4, 1, TWO>(n, i, j, a1t, b1, a2t, b2, add, out);
        }
    }
    for i in n4..n {
        for j in (0..n4).step_by(4) {
            tile::<1, 4, TWO>(n, i, j, a1t, b1, a2t, b2, add, out);
        }
        for j in n4..n {
            tile::<1, 1, TWO>(n, i, j, a1t, b1, a2t, b2, add, out);
        }
    }
}

/// The `R×C` output tile at `(i, j)` of [`chain_product`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize, const C: usize, const TWO: bool>(
    n: usize,
    i: usize,
    j: usize,
    a1t: &[f64],
    b1: &[f64],
    a2t: &[f64],
    b2: &[f64],
    add: Option<(f64, &[f64])>,
    out: &mut [f64],
) {
    let mut acc1 = [[0.0f64; C]; R];
    let mut acc2 = [[0.0f64; C]; R];
    // Row k of every operand; without the first product its operands
    // alias the second's and are never read.
    let (a1t, b1) = if TWO { (a1t, b1) } else { (a2t, b2) };
    let rows = a1t.chunks_exact(n).zip(b1.chunks_exact(n));
    for ((a1k, b1k), (a2k, b2k)) in rows.zip(a2t.chunks_exact(n).zip(b2.chunks_exact(n))) {
        let (a2k, b2k) = (&a2k[i..i + R], &b2k[j..j + C]);
        for r in 0..R {
            for c in 0..C {
                acc2[r][c] += a2k[r] * b2k[c];
            }
        }
        if TWO {
            let (a1k, b1k) = (&a1k[i..i + R], &b1k[j..j + C]);
            for r in 0..R {
                for c in 0..C {
                    acc1[r][c] += a1k[r] * b1k[c];
                }
            }
        }
    }
    for r in 0..R {
        let at = (i + r) * n + j;
        for c in 0..C {
            let p = if TWO {
                acc1[r][c] + acc2[r][c]
            } else {
                acc2[r][c]
            };
            out[at + c] = match add {
                Some((s, x)) => p + s * x[at + c],
                None => p,
            };
        }
    }
}

/// The dense chain rule (six `nv×nv` products and three add passes per
/// stage, 24 products per step), kept as the reference the structured
/// chain must reproduce bit for bit.
#[cfg(test)]
mod dense_reference {
    use super::*;

    /// Tangent-space derivative bookkeeping of one RK4 stage quantity.
    #[derive(Debug, Clone)]
    struct Sens {
        /// w.r.t. δq (nv × nv)
        dq: MatN,
        /// w.r.t. δq̇ (nv × nv)
        dqd: MatN,
        /// w.r.t. δu (nv × nv)
        du: MatN,
    }

    impl Sens {
        fn zeros(nv: usize) -> Self {
            Self {
                dq: MatN::zeros(nv, nv),
                dqd: MatN::zeros(nv, nv),
                du: MatN::zeros(nv, nv),
            }
        }

        /// `self = base + s · other`, component-wise over all three blocks.
        fn axpy_from(&mut self, base: &Sens, s: f64, other: &Sens) {
            let f = |out: &mut MatN, a: &MatN, b: &MatN| {
                for i in 0..a.rows() {
                    for j in 0..a.cols() {
                        out[(i, j)] = a[(i, j)] + s * b[(i, j)];
                    }
                }
            };
            f(&mut self.dq, &base.dq, &other.dq);
            f(&mut self.dqd, &base.dqd, &other.dqd);
            f(&mut self.du, &base.du, &other.du);
        }

        /// `self += s · other`, component-wise over all three blocks.
        fn add_scaled(&mut self, s: f64, other: &Sens) {
            let f = |out: &mut MatN, b: &MatN| {
                for i in 0..b.rows() {
                    for j in 0..b.cols() {
                        out[(i, j)] += s * b[(i, j)];
                    }
                }
            };
            f(&mut self.dq, &other.dq);
            f(&mut self.dqd, &other.dqd);
            f(&mut self.du, &other.du);
        }
    }

    /// One ΔFD chain-rule stage: `ka = J_q·sq + J_qd·sqd (+ M⁻¹ on du)`.
    #[allow(clippy::too_many_arguments)]
    fn stage_sens(
        model: &RobotModel,
        ws: &mut DynamicsWorkspace,
        tau: &[f64],
        q_i: &[f64],
        qd_i: &[f64],
        sq: &Sens,
        sqd: &Sens,
        ka_out: &mut [f64],
        ka: &mut Sens,
    ) {
        let nv = model.nv();
        let mut d = FdDerivatives::zeros(nv);
        let mut tmp = MatN::zeros(nv, nv);
        fd_derivatives_into(model, ws, q_i, qd_i, tau, None, &mut d).expect("ΔFD");
        ka_out.copy_from_slice(&d.qdd);
        let mut chain2 = |a: &MatN, b: &MatN, out: &mut MatN| {
            d.dqdd_dq.mul_mat_into(a, out);
            d.dqdd_dqd.mul_mat_into(b, &mut tmp);
            for i in 0..nv {
                for j in 0..nv {
                    out[(i, j)] += tmp[(i, j)];
                }
            }
        };
        chain2(&sq.dq, &sqd.dq, &mut ka.dq);
        chain2(&sq.dqd, &sqd.dqd, &mut ka.dqd);
        chain2(&sq.du, &sqd.du, &mut ka.du);
        for i in 0..nv {
            for j in 0..nv {
                ka.du[(i, j)] += d.dqdd_dtau[(i, j)];
            }
        }
    }

    /// One RK4 step and its Jacobians through the dense chain.
    pub(super) fn rk4_step_with_sensitivity_dense(
        model: &RobotModel,
        ws: &mut DynamicsWorkspace,
        q: &[f64],
        qd: &[f64],
        tau: &[f64],
        h: f64,
    ) -> (Vec<f64>, Vec<f64>, StepJacobians) {
        let nv = model.nv();
        let mut s_q0 = Sens::zeros(nv);
        let mut s_qd0 = Sens::zeros(nv);
        for i in 0..nv {
            s_q0.dq[(i, i)] = 1.0;
            s_qd0.dqd[(i, i)] = 1.0;
        }
        let [mut s_q2, mut s_q3, mut s_q4] = std::array::from_fn(|_| Sens::zeros(nv));
        let [mut s_qd2, mut s_qd3, mut s_qd4] = std::array::from_fn(|_| Sens::zeros(nv));
        let [mut s_k1a, mut s_k2a, mut s_k3a, mut s_k4a] = std::array::from_fn(|_| Sens::zeros(nv));
        let mut s_bar = Sens::zeros(nv);
        let mut s_out = Sens::zeros(nv);
        let mut q_stage = vec![0.0; model.nq()];
        let [mut qd2, mut qd3, mut qd4] = std::array::from_fn(|_| vec![0.0; nv]);
        let [mut k1a, mut k2a, mut k3a, mut k4a] = std::array::from_fn(|_| vec![0.0; nv]);

        stage_sens(model, ws, tau, q, qd, &s_q0, &s_qd0, &mut k1a, &mut s_k1a);
        integrate_config_into(model, q, qd, h / 2.0, &mut q_stage);
        for i in 0..nv {
            qd2[i] = qd[i] + h / 2.0 * k1a[i];
        }
        s_q2.axpy_from(&s_q0, h / 2.0, &s_qd0);
        s_qd2.axpy_from(&s_qd0, h / 2.0, &s_k1a);
        stage_sens(
            model, ws, tau, &q_stage, &qd2, &s_q2, &s_qd2, &mut k2a, &mut s_k2a,
        );
        integrate_config_into(model, q, &qd2, h / 2.0, &mut q_stage);
        for i in 0..nv {
            qd3[i] = qd[i] + h / 2.0 * k2a[i];
        }
        s_q3.axpy_from(&s_q0, h / 2.0, &s_qd2);
        s_qd3.axpy_from(&s_qd0, h / 2.0, &s_k2a);
        stage_sens(
            model, ws, tau, &q_stage, &qd3, &s_q3, &s_qd3, &mut k3a, &mut s_k3a,
        );
        integrate_config_into(model, q, &qd3, h, &mut q_stage);
        for i in 0..nv {
            qd4[i] = qd[i] + h * k3a[i];
        }
        s_q4.axpy_from(&s_q0, h, &s_qd3);
        s_qd4.axpy_from(&s_qd0, h, &s_k3a);
        stage_sens(
            model, ws, tau, &q_stage, &qd4, &s_q4, &s_qd4, &mut k4a, &mut s_k4a,
        );

        let vbar: Vec<f64> = (0..nv)
            .map(|i| (qd[i] + 2.0 * qd2[i] + 2.0 * qd3[i] + qd4[i]) / 6.0)
            .collect();
        let mut q_new = vec![0.0; model.nq()];
        integrate_config_into(model, q, &vbar, h, &mut q_new);
        let qd_new: Vec<f64> = (0..nv)
            .map(|i| qd[i] + h / 6.0 * (k1a[i] + 2.0 * k2a[i] + 2.0 * k3a[i] + k4a[i]))
            .collect();

        let mut jac = StepJacobians::zeros(nv);
        s_bar.axpy_from(&s_qd0, 2.0, &s_qd2);
        s_bar.add_scaled(2.0, &s_qd3);
        s_bar.add_scaled(1.0, &s_qd4);
        s_out.axpy_from(&s_q0, h / 6.0, &s_bar);
        for i in 0..nv {
            for j in 0..nv {
                jac.a[(i, j)] = s_out.dq[(i, j)];
                jac.a[(i, nv + j)] = s_out.dqd[(i, j)];
                jac.b[(i, j)] = s_out.du[(i, j)];
            }
        }
        s_bar.axpy_from(&s_k1a, 2.0, &s_k2a);
        s_bar.add_scaled(2.0, &s_k3a);
        s_bar.add_scaled(1.0, &s_k4a);
        s_out.axpy_from(&s_qd0, h / 6.0, &s_bar);
        for i in 0..nv {
            for j in 0..nv {
                jac.a[(nv + i, j)] = s_out.dq[(i, j)];
                jac.a[(nv + i, nv + j)] = s_out.dqd[(i, j)];
                jac.b[(nv + i, j)] = s_out.du[(i, j)];
            }
        }
        (q_new, qd_new, jac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_dynamics::{forward_dynamics, total_energy};
    use rbd_model::{random_state, robots};

    /// The six bit-identity models: every `nv % 4` tail (iiwa 7, HyQ 18,
    /// `serial_chain(5)`, Atlas 35), an all-tile size (quadruped-arm 24)
    /// and a random branching tree.
    fn chain_models() -> Vec<RobotModel> {
        vec![
            robots::iiwa(),
            robots::hyq(),
            robots::quadruped_arm(),
            robots::atlas(),
            robots::serial_chain(5),
            robots::random_tree(10, 7),
        ]
    }

    /// One structured step on `isa` with a fresh scratch.
    fn structured_step(
        isa: Isa,
        model: &RobotModel,
        q: &[f64],
        qd: &[f64],
        tau: &[f64],
        h: f64,
    ) -> (Vec<f64>, Vec<f64>, StepJacobians) {
        let mut ws = DynamicsWorkspace::new(model);
        let mut scratch = Rk4SensScratch::for_model(model);
        let (mut q_new, mut qd_new, mut jac) = (Vec::new(), Vec::new(), StepJacobians::zeros(0));
        rk4_sens_step(
            isa,
            model,
            &mut ws,
            &mut scratch,
            q,
            qd,
            tau,
            h,
            &mut q_new,
            &mut qd_new,
            &mut jac,
        );
        (q_new, qd_new, jac)
    }

    /// Panics at the first entry where `same` rejects the pair.
    fn assert_entries(what: &str, got: &[f64], want: &[f64], same: impl Fn(f64, f64) -> bool) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        if let Some(k) = (0..got.len()).find(|&k| !same(got[k], want[k])) {
            panic!("{what}[{k}]: {:e} vs {:e}", got[k], want[k]);
        }
    }

    #[test]
    fn structured_chain_equals_dense_chain_exactly() {
        for model in chain_models() {
            let nv = model.nv();
            for seed in [3, 11, 29] {
                let s = random_state(&model, seed);
                let tau: Vec<f64> = (0..nv).map(|k| 0.5 - 0.07 * k as f64).collect();
                let h = 0.01;
                let mut ws = DynamicsWorkspace::new(&model);
                let (q_ref, qd_ref, jac_ref) = dense_reference::rk4_step_with_sensitivity_dense(
                    &model, &mut ws, &s.q, &s.qd, &tau, h,
                );
                for isa in Isa::host_all() {
                    let (q_new, qd_new, jac) = structured_step(isa, &model, &s.q, &s.qd, &tau, h);
                    let tag = format!("{} seed {seed} {isa:?}", model.name());
                    let eq = |a: f64, b: f64| a == b;
                    assert_entries(&format!("{tag} q+"), &q_new, &q_ref, eq);
                    assert_entries(&format!("{tag} qd+"), &qd_new, &qd_ref, eq);
                    assert_entries(
                        &format!("{tag} A"),
                        jac.a.as_slice(),
                        jac_ref.a.as_slice(),
                        eq,
                    );
                    assert_entries(
                        &format!("{tag} B"),
                        jac.b.as_slice(),
                        jac_ref.b.as_slice(),
                        eq,
                    );
                }
            }
        }
    }

    #[test]
    fn avx2_chain_and_portable_chain_agree_bitwise() {
        let isas = Isa::host_all();
        if isas.len() < 2 {
            eprintln!("no AVX2 on this host; only the portable chain runs");
            return;
        }
        for model in chain_models() {
            let nv = model.nv();
            let s = random_state(&model, 5);
            let tau: Vec<f64> = (0..nv).map(|k| 0.2 * k as f64 - 0.9).collect();
            let (q_p, qd_p, jac_p) = structured_step(isas[0], &model, &s.q, &s.qd, &tau, 0.02);
            let (q_v, qd_v, jac_v) = structured_step(isas[1], &model, &s.q, &s.qd, &tau, 0.02);
            let tag = model.name();
            let bits = |a: f64, b: f64| a.to_bits() == b.to_bits();
            assert_entries(&format!("{tag} q+"), &q_v, &q_p, bits);
            assert_entries(&format!("{tag} qd+"), &qd_v, &qd_p, bits);
            assert_entries(
                &format!("{tag} A"),
                jac_v.a.as_slice(),
                jac_p.a.as_slice(),
                bits,
            );
            assert_entries(
                &format!("{tag} B"),
                jac_v.b.as_slice(),
                jac_p.b.as_slice(),
                bits,
            );
        }
    }

    #[test]
    fn reused_scratch_across_models_matches_fresh_scratch() {
        // One scratch resized iiwa → Atlas → iiwa must give the same bits
        // as a fresh one (the identity block is rebuilt on resize).
        let mut scratch = Rk4SensScratch::default();
        for model in [robots::iiwa(), robots::atlas(), robots::iiwa()] {
            let nv = model.nv();
            let s = random_state(&model, 8);
            let tau = vec![0.1; nv];
            let mut ws = DynamicsWorkspace::new(&model);
            let (mut q_new, mut qd_new, mut jac) =
                (Vec::new(), Vec::new(), StepJacobians::zeros(0));
            rk4_step_with_sensitivity_into(
                &model,
                &mut ws,
                &mut scratch,
                &s.q,
                &s.qd,
                &tau,
                0.01,
                &mut q_new,
                &mut qd_new,
                &mut jac,
            );
            let (_, _, fresh) = structured_step(Isa::detect(), &model, &s.q, &s.qd, &tau, 0.01);
            let bits = |a: f64, b: f64| a.to_bits() == b.to_bits();
            assert_entries("A", jac.a.as_slice(), fresh.a.as_slice(), bits);
            assert_entries("B", jac.b.as_slice(), fresh.b.as_slice(), bits);
        }
    }

    #[test]
    fn aba_rk4_step_agrees_with_rk4_step() {
        // The iLQR rollouts step with the O(n) ABA, the plant and the LQ
        // pass with M⁻¹(τ − C): the two differ by rounding only.
        let mut worst = 0.0f64;
        for model in [robots::iiwa(), robots::serial_chain(3)] {
            let nv = model.nv();
            let mut ws = DynamicsWorkspace::new(&model);
            let mut scratch = rbd_dynamics::RolloutScratch::for_model(&model);
            let (mut q_new, mut qd_new) = (vec![0.0; model.nq()], vec![0.0; nv]);
            let mut rng = rbd_model::SplitMix64::new(13);
            for seed in 0..200 {
                let s = random_state(&model, seed);
                let tau: Vec<f64> = (0..nv).map(|_| rng.next_symmetric()).collect();
                let (q_ref, qd_ref) = rk4_step(&model, &mut ws, &s.q, &s.qd, &tau, 0.02);
                rbd_dynamics::rk4_step_aba_into(
                    &model,
                    &mut ws,
                    &mut scratch,
                    &s.q,
                    &s.qd,
                    &tau,
                    0.02,
                    &mut q_new,
                    &mut qd_new,
                )
                .unwrap();
                let err = q_new
                    .iter()
                    .zip(&q_ref)
                    .chain(qd_new.iter().zip(&qd_ref))
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(
                    err <= 1e-13,
                    "{} seed {seed}: max |Δx⁺| = {err:e}",
                    model.name()
                );
                worst = worst.max(err);
            }
        }
        eprintln!("max |Δx⁺| between the ABA and M⁻¹ RK4 steps: {worst:e}");
    }

    #[test]
    fn rk4_more_accurate_than_euler() {
        let model = robots::iiwa();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 1);
        let tau = vec![0.0; model.nv()];
        let e0 = total_energy(&model, &mut ws, &s.q, &s.qd);

        let run = |steps: usize, h: f64, rk4: bool| {
            let mut ws = DynamicsWorkspace::new(&model);
            let (mut q, mut qd) = (s.q.clone(), s.qd.clone());
            for _ in 0..steps {
                if rk4 {
                    (q, qd) = rk4_step(&model, &mut ws, &q, &qd, &tau, h);
                } else {
                    // Semi-implicit Euler: q̇⁺ = q̇ + h·FD, q⁺ = q ⊕ h·q̇⁺.
                    let qdd = forward_dynamics(&model, &mut ws, &q, &qd, &tau, None).unwrap();
                    qd = qd.iter().zip(&qdd).map(|(v, a)| v + h * a).collect();
                    q = integrate_config(&model, &q, &qd, h);
                }
            }
            (total_energy(&model, &mut ws, &q, &qd) - e0).abs()
        };
        let drift_rk4 = run(100, 2e-3, true);
        let drift_euler = run(100, 2e-3, false);
        assert!(
            drift_rk4 < drift_euler,
            "rk4 {drift_rk4} vs euler {drift_euler}"
        );
    }

    #[test]
    fn sensitivity_matches_finite_difference() {
        let model = robots::iiwa();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 2);
        let tau: Vec<f64> = (0..model.nv()).map(|k| 0.4 - 0.1 * k as f64).collect();
        let h = 0.01;
        let nv = model.nv();

        let (_, _, jac) = rk4_step_with_sensitivity(&model, &mut ws, &s.q, &s.qd, &tau, h);

        let eps = 1e-6;
        // Perturb each state coordinate and difference the step.
        for j in 0..2 * nv {
            let mut perturb = |sign: f64| -> (Vec<f64>, Vec<f64>) {
                let mut q = s.q.clone();
                let mut qd = s.qd.clone();
                if j < nv {
                    let mut dv = vec![0.0; nv];
                    dv[j] = sign * eps;
                    q = integrate_config(&model, &q, &dv, 1.0);
                } else {
                    qd[j - nv] += sign * eps;
                }
                rk4_step(&model, &mut ws, &q, &qd, &tau, h)
            };
            let (qp, qdp) = perturb(1.0);
            let (qm, qdm) = perturb(-1.0);
            for i in 0..nv {
                let num_q = (qp[i] - qm[i]) / (2.0 * eps);
                let num_qd = (qdp[i] - qdm[i]) / (2.0 * eps);
                assert!(
                    (jac.a[(i, j)] - num_q).abs() < 2e-4,
                    "A[{i},{j}]: {} vs {num_q}",
                    jac.a[(i, j)]
                );
                assert!(
                    (jac.a[(nv + i, j)] - num_qd).abs() < 2e-4,
                    "A[{},{j}]: {} vs {num_qd}",
                    nv + i,
                    jac.a[(nv + i, j)]
                );
            }
        }
        // Control Jacobian.
        for j in 0..nv {
            let mut tp = tau.clone();
            let mut tm = tau.clone();
            tp[j] += eps;
            tm[j] -= eps;
            let (qp, qdp) = rk4_step(&model, &mut ws, &s.q, &s.qd, &tp, h);
            let (qm, qdm) = rk4_step(&model, &mut ws, &s.q, &s.qd, &tm, h);
            for i in 0..nv {
                let num_q = (qp[i] - qm[i]) / (2.0 * eps);
                let num_qd = (qdp[i] - qdm[i]) / (2.0 * eps);
                assert!((jac.b[(i, j)] - num_q).abs() < 2e-4);
                assert!((jac.b[(nv + i, j)] - num_qd).abs() < 2e-4);
            }
        }
    }
}
