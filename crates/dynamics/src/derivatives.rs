//! ΔRNEA — analytical derivatives of inverse dynamics
//! (`∂τ/∂q`, `∂τ/∂q̇`), following the world-frame formulation of
//! Carpentier & Mansard (RSS 2018), which is also the form that exposes
//! the paper's *incremental column* structure (§IV-A4): the useful
//! columns of `∂v_i`, `∂a_i` are exactly the ancestor DOFs of body `i`,
//! so per-joint work grows linearly with depth.
//!
//! Derivatives are taken in the tangent space of the configuration
//! manifold (`q ⊕ δ` through each joint's exponential map), which for
//! revolute/prismatic joints coincides with plain partial derivatives.
//!
//! This expansion ([`rnea_derivatives_expansion_into`]) is the reference
//! implementation. The production entry points [`rnea_derivatives`] and
//! [`rnea_derivatives_into`] run the IDSVA kernel of [`crate::idsva`],
//! which computes the same derivatives with fewer operations and is
//! cross-checked against this one.
//!
//! The expansion kernel is allocation-free in steady state: all
//! intermediate per-body/per-DOF tables live in flat, stride-indexed
//! [`DynamicsWorkspace`] buffers, and it writes into a caller-reused
//! [`RneaDerivatives`]. The backward pass walks the precomputed
//! related-DOF sets instead of all `nv` columns, exploiting the
//! branch-induced sparsity of `∂τ` (Fig 5).

use crate::idsva::rnea_derivatives_into;
use crate::workspace::DynamicsWorkspace;
use rbd_model::RobotModel;
use rbd_spatial::{ForceVec, MatN, MotionVec, SpatialInertia};

/// Result of [`rnea_derivatives`].
#[derive(Debug, Clone, Default)]
pub struct RneaDerivatives {
    /// `∂τ/∂q` (tangent space), `nv × nv`.
    pub dtau_dq: MatN,
    /// `∂τ/∂q̇`, `nv × nv`.
    pub dtau_dqd: MatN,
    /// The torque at the evaluation point (free by-product).
    pub tau: Vec<f64>,
}

impl RneaDerivatives {
    /// Zero-initialized output storage for an `nv`-DOF model, meant to be
    /// reused across [`rnea_derivatives_into`] calls.
    pub fn zeros(nv: usize) -> Self {
        Self {
            dtau_dq: MatN::zeros(nv, nv),
            dtau_dqd: MatN::zeros(nv, nv),
            tau: vec![0.0; nv],
        }
    }

    /// Reshapes the buffers for an `nv`-DOF model; a no-op (and hence
    /// allocation-free) when the dimensions already match.
    pub fn ensure_dims(&mut self, nv: usize) {
        self.dtau_dq.resize(nv, nv);
        self.dtau_dqd.resize(nv, nv);
        self.tau.resize(nv, 0.0);
    }
}

/// Per-body quantities invariant across the chain-DOF loop.
struct BodyInvariants {
    v: MotionVec,
    a: MotionVec,
    iw: SpatialInertia,
    /// `I v`, hoisted.
    iw_v: ForceVec,
    /// `I a`, hoisted.
    iw_a: ForceVec,
}

/// Body-force derivative columns `∂f_i/∂q_j`, `∂f_i/∂q̇_j` from the
/// velocity/acceleration derivative columns of DOF `j` — the Lie
/// derivative of the inertia (`d_inertia_apply`) expanded around the
/// hoisted `I v` / `I a` products.
///
/// `∂v/∂q̇_j` is exactly `S_j` for every body below joint `j`, so the
/// caller passes the shared `S_j ×* (I v)` product (`sj_x_iwv`) once and
/// both outputs reuse it.
#[inline(always)]
fn body_force_derivatives(
    b: &BodyInvariants,
    sj: &MotionVec,
    sj_x_iwv: &ForceVec,
    dv_q: &MotionVec,
    da_q: &MotionVec,
    da_qd: &MotionVec,
) -> (ForceVec, ForceVec) {
    let BodyInvariants {
        v,
        a,
        iw,
        iw_v,
        iw_a,
    } = b;
    // `I` is linear, so the two pairs of applications of the original
    // expansion (`-I(sj×a) + I(da_q)` and `-I(sj×v) + I(dv_q)`) fuse into
    // single applications to differences — two inertia applies saved per
    // column at tolerance-level numerical difference.
    let df_q = sj.cross_force(iw_a)
        + iw.apply_diff(da_q, &sj.cross_motion(a))
        + dv_q.cross_force(iw_v)
        + v.cross_force(&(*sj_x_iwv + iw.apply_diff(dv_q, &sj.cross_motion(v))));
    let df_qd = iw.mul_motion(da_qd) + *sj_x_iwv + v.cross_force(&iw.mul_motion(sj));
    (df_q, df_qd)
}

/// Analytical `ΔID`: `∂_u τ = ΔID(q, q̇, q̈, f_ext)` with `u = [q; q̇]`.
///
/// Allocates a fresh [`RneaDerivatives`] per call; hot paths should hold
/// one and call [`rnea_derivatives_into`] instead.
///
/// `fext` entries are world-frame spatial forces per body (constant under
/// the differentiation, matching the paper's treatment).
///
/// # Panics
/// Panics on dimension mismatches.
///
/// # Example
/// ```
/// use rbd_dynamics::{rnea_derivatives, DynamicsWorkspace};
/// use rbd_model::{robots, random_state};
/// let model = robots::iiwa();
/// let mut ws = DynamicsWorkspace::new(&model);
/// let s = random_state(&model, 0);
/// let qdd = vec![0.0; model.nv()];
/// let d = rnea_derivatives(&model, &mut ws, &s.q, &s.qd, &qdd, None);
/// assert_eq!(d.dtau_dq.rows(), model.nv());
/// ```
pub fn rnea_derivatives(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    qdd: &[f64],
    fext: Option<&[ForceVec]>,
) -> RneaDerivatives {
    let mut out = RneaDerivatives::zeros(model.nv());
    rnea_derivatives_into(model, ws, q, qd, qdd, fext, &mut out);
    out
}

/// Analytical `ΔID` via the Carpentier–Mansard expansion: chain-compacted
/// `∂v`/`∂a` tables, per-pair force differentiation. Kept as the
/// reference implementation that [`rnea_derivatives_into`] (IDSVA) is
/// cross-validated against; same signature and outputs up to f64
/// rounding, zero heap allocation in steady state.
///
/// # Panics
/// Panics on input dimension mismatches.
pub fn rnea_derivatives_expansion_into(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    qdd: &[f64],
    fext: Option<&[ForceVec]>,
    out: &mut RneaDerivatives,
) {
    let nb = model.num_bodies();
    let nv = model.nv();
    assert_eq!(q.len(), model.nq(), "q dimension");
    assert_eq!(qd.len(), nv, "qd dimension");
    assert_eq!(qdd.len(), nv, "qdd dimension");
    if let Some(f) = fext {
        assert_eq!(f.len(), nb, "fext dimension");
    }
    out.ensure_dims(nv);

    ws.update_kinematics(model, q);

    // Split the workspace into disjoint field borrows so the index-set
    // slices can be read while the scratch tables are written.
    let DynamicsWorkspace {
        s,
        s_off,
        xworld,
        f,
        s_world,
        v_world,
        a_world,
        chain_offsets,
        chain_dofs,
        desc_offsets,
        desc_dofs,
        rel_offsets,
        rel_dofs,
        vj_w,
        aj_w,
        inertia_w,
        dv_dq,
        da_dq,
        da_dqd,
        df_dq,
        df_dqd,
        ..
    } = ws;
    let chain = |i: usize| &chain_dofs[chain_offsets[i]..chain_offsets[i + 1]];
    let desc = |i: usize| &desc_dofs[desc_offsets[i]..desc_offsets[i + 1]];
    let rel = |i: usize| &rel_dofs[rel_offsets[i]..rel_offsets[i + 1]];

    // Gravity baseline: a₀ = -g in world coordinates.
    let a0 = MotionVec::new(rbd_spatial::Vec3::zero(), -model.gravity);

    // Forward pass: world-frame S columns, velocities, accelerations,
    // inertias.
    for i in 0..nb {
        let x0 = xworld[i];
        let vo = model.v_offset(i);
        let ni = s_off[i + 1] - s_off[i];
        x0.inv_apply_motion_batch(&s[vo..vo + ni], &mut s_world[vo..vo + ni]);
        vj_w[i] = MotionVec::weighted_sum(&s_world[vo..vo + ni], &qd[vo..vo + ni]);
        aj_w[i] = MotionVec::weighted_sum(&s_world[vo..vo + ni], &qdd[vo..vo + ni]);

        let (vp, ap) = match model.topology().parent(i) {
            Some(p) => (v_world[p], a_world[p]),
            None => (MotionVec::zero(), a0),
        };
        let v = vp + vj_w[i];
        v_world[i] = v;
        a_world[i] = ap + aj_w[i] + v.cross_motion(&vj_w[i]);

        inertia_w[i] = model.link_inertia(i).transform_to_parent(&x0);
    }

    // Body forces (world frame) and their derivatives along the chain
    // DOFs. The `dv`/`da` tables are chain-compacted: body `i`'s row
    // holds exactly its chain entries, and since `chain(i)` extends
    // `chain(parent)` verbatim, entry `k` of the parent row is the parent
    // value for entry `k` of the child row — no strided indexing and no
    // structurally-zero slots. `∂v/∂q̇` needs no table at all: it is
    // exactly `S_j` in world coordinates for every body below joint `j`.
    // The `df` tables are accumulated into during the backward pass at
    // descendant DOFs, so exactly those slots are cleared here.
    for i in 0..nb {
        let parent = model.topology().parent(i);
        let v = v_world[i];
        let a = a_world[i];
        let iw = inertia_w[i];
        let vji = vj_w[i];
        let aji = aj_w[i];
        // Per-body invariants of the chain loop, hoisted: I v, I a (each
        // otherwise recomputed for every chain DOF).
        let iw_v = iw.mul_motion(&v);
        let iw_a = iw.mul_motion(&a);

        let mut fb = iw_a + v.cross_force(&iw_v);
        if let Some(fx) = fext {
            fb -= fx[i]; // already world frame
        }
        f[i] = fb;

        let row = i * nv;
        for &j in desc(i) {
            df_dq[row + j] = ForceVec::zero();
            df_dqd[row + j] = ForceVec::zero();
        }

        // The chain splits into inherited DOFs (ancestors, with
        // parent-table entries) and body i's own DOFs (no parent terms,
        // but the extra `S` and `v × S` contributions) — handling them in
        // two loops removes the per-column branches.
        let crow = chain_offsets[i];
        let pcrow = parent.map(|p| chain_offsets[p]);
        let (inherited, own_dofs) = {
            let c = chain(i);
            let split = c.len() - (s_off[i + 1] - s_off[i]);
            (&c[..split], &c[split..])
        };
        let body = BodyInvariants {
            v,
            a,
            iw,
            iw_v,
            iw_a,
        };
        for (k, &j) in inherited.iter().enumerate() {
            let sj = s_world[j];
            let pc = pcrow.expect("inherited DOFs imply a parent") + k;
            let (pdv_q, pda_q, pda_qd) = (dv_dq[pc], da_dq[pc], da_dqd[pc]);
            // `S_j × vJ` and `S_j ×* (I v)` each appear twice below
            // (∂v/∂q̇ is exactly S_j) — computed once per column.
            let sjxvj = sj.cross_motion(&vji);
            let sj_x_iwv = sj.cross_force(&iw_v);
            // --- velocity derivatives (∂v/∂q̇ is exactly S_j, untabled)
            let dv_q = pdv_q + sjxvj;
            // --- acceleration derivatives
            let da_q =
                pda_q + sj.cross_motion(&aji) + dv_q.cross_motion(&vji) + v.cross_motion(&sjxvj);
            let da_qd = pda_qd + sjxvj;

            dv_dq[crow + k] = dv_q;
            da_dq[crow + k] = da_q;
            da_dqd[crow + k] = da_qd;

            let (df_q, df_qd) = body_force_derivatives(&body, &sj, &sj_x_iwv, &dv_q, &da_q, &da_qd);
            df_dq[row + j] = df_q;
            df_dqd[row + j] = df_qd;
        }
        let split = inherited.len();
        for (k, &j) in own_dofs.iter().enumerate() {
            let sj = s_world[j];
            let sjxvj = sj.cross_motion(&vji);
            let sj_x_iwv = sj.cross_force(&iw_v);
            let dv_q = sjxvj;
            let da_q = sj.cross_motion(&aji) + dv_q.cross_motion(&vji) + v.cross_motion(&sjxvj);
            let da_qd = sjxvj + v.cross_motion(&sj);

            dv_dq[crow + split + k] = dv_q;
            da_dq[crow + split + k] = da_q;
            da_dqd[crow + split + k] = da_qd;

            let (df_q, df_qd) = body_force_derivatives(&body, &sj, &sj_x_iwv, &dv_q, &da_q, &da_qd);
            df_dq[row + j] = df_q;
            df_dqd[row + j] = df_qd;
        }
    }

    // Backward pass: aggregate forces and derivatives up the tree, emit τ
    // derivative rows. Only the related DOFs of each body are visited —
    // every other column of its rows is exactly zero.
    out.dtau_dq.fill(0.0);
    out.dtau_dqd.fill(0.0);

    for i in (0..nb).rev() {
        let vo = model.v_offset(i);
        let ni = s_off[i + 1] - s_off[i];
        let row = i * nv;
        MotionVec::dot_force_batch(&s_world[vo..vo + ni], &f[i], &mut out.tau[vo..vo + ni]);
        let prow = model.topology().parent(i).map(|p| p * nv);
        for &j in rel(i) {
            let dfq = df_dq[row + j];
            let dfqd = df_dqd[row + j];
            // Geometric term: only when joint(j) ⪯ i, i.e. j is a chain
            // DOF — within the related set those are exactly the DOFs
            // preceding the end of body i's own block. The per-pair cross
            // product is hoisted per column via the triple-product
            // identity (S_j × S_k)·f = -S_k·(S_j ×* f).
            let chain_j = j < vo + ni;
            let cj = if chain_j {
                s_world[j].cross_force(&f[i])
            } else {
                ForceVec::zero()
            };
            for k in 0..ni {
                let sk = s_world[vo + k];
                let mut dq = sk.dot_force(&dfq);
                if chain_j {
                    dq -= sk.dot_force(&cj);
                }
                out.dtau_dq[(vo + k, j)] += dq;
                out.dtau_dqd[(vo + k, j)] += sk.dot_force(&dfqd);
            }
            // Aggregate into the parent row in the same sweep — the
            // columns are already in registers.
            if let Some(pr) = prow {
                df_dq[pr + j] += dfq;
                df_dqd[pr + j] += dfqd;
            }
        }
        if let Some(p) = model.topology().parent(i) {
            let fa = f[i];
            f[p] += fa;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite_diff::rnea_derivatives_numeric;
    use crate::rnea::rnea;
    use rbd_model::{random_state, robots, RobotModel};

    fn check(model: &RobotModel, seed: u64, tol: f64) {
        let mut ws = DynamicsWorkspace::new(model);
        let s = random_state(model, seed);
        let qdd: Vec<f64> = (0..model.nv()).map(|k| 0.5 - 0.07 * k as f64).collect();

        let analytic = rnea_derivatives(model, &mut ws, &s.q, &s.qd, &qdd, None);
        let (num_dq, num_dqd) = rnea_derivatives_numeric(model, &s.q, &s.qd, &qdd, None, 1e-6);

        let scale = 1.0 + num_dq.max_abs().max(num_dqd.max_abs());
        let err_q = (&analytic.dtau_dq - &num_dq).max_abs() / scale;
        let err_qd = (&analytic.dtau_dqd - &num_dqd).max_abs() / scale;
        assert!(err_q < tol, "{}: ∂τ/∂q error {err_q}", model.name());
        assert!(err_qd < tol, "{}: ∂τ/∂q̇ error {err_qd}", model.name());

        // τ by-product matches plain RNEA.
        let tau = rnea(model, &mut ws, &s.q, &s.qd, &qdd, None);
        for k in 0..model.nv() {
            assert!((analytic.tau[k] - tau[k]).abs() < 1e-8 * (1.0 + tau[k].abs()));
        }
    }

    #[test]
    fn iiwa_fixed_base() {
        check(&robots::iiwa(), 1, 1e-5);
    }

    #[test]
    fn hyq_floating_base() {
        check(&robots::hyq(), 2, 1e-5);
    }

    #[test]
    fn atlas_humanoid() {
        check(&robots::atlas(), 3, 1e-5);
    }

    #[test]
    fn tiago_planar() {
        check(&robots::tiago(), 4, 1e-5);
    }

    #[test]
    fn random_trees() {
        for seed in 0..4 {
            check(&robots::random_tree(8, seed), seed + 30, 1e-5);
        }
    }

    #[test]
    fn with_external_forces() {
        let model = robots::hyq();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 6);
        let qdd: Vec<f64> = (0..model.nv()).map(|k| 0.1 * k as f64).collect();
        let fext: Vec<ForceVec> = (0..model.num_bodies())
            .map(|i| ForceVec::from_slice(&[0.5, -0.3, 0.2, 3.0, 1.0 - i as f64 * 0.1, -2.0]))
            .collect();
        let analytic = rnea_derivatives(&model, &mut ws, &s.q, &s.qd, &qdd, Some(&fext));
        let (num_dq, num_dqd) =
            rnea_derivatives_numeric(&model, &s.q, &s.qd, &qdd, Some(&fext), 1e-6);
        let scale = 1.0 + num_dq.max_abs();
        assert!((&analytic.dtau_dq - &num_dq).max_abs() / scale < 1e-5);
        assert!((&analytic.dtau_dqd - &num_dqd).max_abs() / scale < 1e-5);
    }

    /// ∂τ/∂q̈ is the mass matrix; check via linearity instead of a
    /// dedicated output: ΔID at two q̈ values has identical ∂τ/∂q̇ terms
    /// only when velocity effects dominate — so instead verify that the
    /// dtau_dq of a *static* configuration (q̇ = 0, q̈ = 0) matches the
    /// gradient of gravity torques alone.
    #[test]
    fn static_gradient_is_gravity_gradient() {
        let model = robots::iiwa();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 9);
        let zero = vec![0.0; model.nv()];
        let analytic = rnea_derivatives(&model, &mut ws, &s.q, &zero, &zero, None);
        let (num_dq, num_dqd) = rnea_derivatives_numeric(&model, &s.q, &zero, &zero, None, 1e-6);
        assert!((&analytic.dtau_dq - &num_dq).max_abs() < 1e-5);
        // With zero velocity the q̇ gradient must vanish except Coriolis
        // cross terms, which are linear in q̇ → exactly zero here.
        assert!(analytic.dtau_dqd.max_abs() < 1e-10);
        assert!(num_dqd.max_abs() < 1e-6);
    }

    /// Reusing one output across calls with dirty intermediate state must
    /// give bit-identical results to a fresh evaluation.
    #[test]
    fn workspace_reuse_is_deterministic() {
        for model in [robots::hyq(), robots::atlas(), robots::random_tree(9, 1)] {
            let mut ws = DynamicsWorkspace::new(&model);
            let mut out = RneaDerivatives::zeros(model.nv());
            let s1 = random_state(&model, 21);
            let s2 = random_state(&model, 22);
            let qdd: Vec<f64> = (0..model.nv()).map(|k| 0.2 - 0.03 * k as f64).collect();

            // Dirty the scratch with a different state, then re-evaluate.
            rnea_derivatives_into(&model, &mut ws, &s2.q, &s2.qd, &qdd, None, &mut out);
            rnea_derivatives_into(&model, &mut ws, &s1.q, &s1.qd, &qdd, None, &mut out);

            let mut fresh_ws = DynamicsWorkspace::new(&model);
            let fresh = rnea_derivatives(&model, &mut fresh_ws, &s1.q, &s1.qd, &qdd, None);
            assert_eq!(
                (&out.dtau_dq - &fresh.dtau_dq).max_abs(),
                0.0,
                "{}: dirty reuse changed ∂τ/∂q",
                model.name()
            );
            assert_eq!((&out.dtau_dqd - &fresh.dtau_dqd).max_abs(), 0.0);
            assert_eq!(out.tau, fresh.tau);
        }
    }
}
