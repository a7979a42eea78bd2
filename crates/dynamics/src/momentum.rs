//! Centroidal quantities (total momentum, centre of mass): test-only
//! oracles that check the ABA against Newton's laws, as `energy.rs` is
//! the energy oracle of the property suite.

use crate::workspace::DynamicsWorkspace;
use rbd_model::RobotModel;
use rbd_spatial::{ForceVec, MotionVec, Vec3};

/// Whole-robot centre of mass in world coordinates.
pub fn center_of_mass(model: &RobotModel, ws: &mut DynamicsWorkspace, q: &[f64]) -> Vec3 {
    ws.update_kinematics(model, q);
    let mut weighted = Vec3::zero();
    let mut mass = 0.0;
    for i in 0..model.num_bodies() {
        let inertia = model.link_inertia(i);
        if inertia.mass == 0.0 {
            continue;
        }
        let x0 = ws.xworld[i];
        let com_w = x0.rot.transpose() * inertia.com() + x0.trans;
        weighted += com_w * inertia.mass;
        mass += inertia.mass;
    }
    assert!(mass > 0.0, "massless robot");
    weighted / mass
}

/// Total robot mass.
pub fn total_mass(model: &RobotModel) -> f64 {
    (0..model.num_bodies())
        .map(|i| model.link_inertia(i).mass)
        .sum()
}

/// Total spatial momentum about the world origin, world coordinates
/// (`h = Σᵢ (^0X_i)* Iᵢ vᵢ`, angular part first).
pub fn spatial_momentum(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
) -> ForceVec {
    ws.update_kinematics(model, q);
    let mut h = ForceVec::zero();
    for i in 0..model.num_bodies() {
        let vo = model.v_offset(i);
        let ni = ws.s_off[i + 1] - ws.s_off[i];
        let vj = MotionVec::weighted_sum(&ws.s[vo..vo + ni], &qd[vo..vo + ni]);
        let v = match model.topology().parent(i) {
            Some(p) => ws.xup[i].apply_motion(&ws.v[p]) + vj,
            None => vj,
        };
        ws.v[i] = v;
        let h_local = model.link_inertia(i).mul_motion(&v);
        h += ws.xworld[i].inv_apply_force(&h_local);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aba::aba;
    use rbd_model::{integrate_config, random_state, robots};

    /// Linear momentum of an unactuated floating robot changes at
    /// exactly m·g (Newton), and angular momentum about the world origin
    /// at the gravity moment — checked along an ABA rollout.
    #[test]
    fn momentum_rate_equals_gravity_wrench() {
        let model = robots::hyq();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 9);
        let (q, qd) = (s.q.clone(), s.qd.clone());
        let tau = vec![0.0; model.nv()];
        let m = total_mass(&model);

        let h0 = spatial_momentum(&model, &mut ws, &q, &qd);
        let dt = 1e-6;
        let qdd = aba(&model, &mut ws, &q, &qd, &tau, None).unwrap();
        let qd1: Vec<f64> = qd.iter().zip(&qdd).map(|(v, a)| v + dt * a).collect();
        let q1 = integrate_config(&model, &q, &qd, dt);
        let h1 = spatial_momentum(&model, &mut ws, &q1, &qd1);

        let dh_lin = (h1.lin() - h0.lin()) * (1.0 / dt);
        let expect_lin = model.gravity * m;
        assert!(
            (dh_lin - expect_lin).max_abs() < 1e-3 * (1.0 + expect_lin.max_abs()),
            "ṗ = {dh_lin} vs m·g = {expect_lin}"
        );

        // Angular: ḣ_ang = c × (m g) about the world origin.
        let com = center_of_mass(&model, &mut ws, &q);
        let dh_ang = (h1.ang() - h0.ang()) * (1.0 / dt);
        let expect_ang = com.cross(&(model.gravity * m));
        assert!(
            (dh_ang - expect_ang).max_abs() < 1e-2 * (1.0 + expect_ang.max_abs()),
            "ḣ = {dh_ang} vs c×mg = {expect_ang}"
        );
    }

    /// Internal joint motion of a free-floating robot cannot change the
    /// total momentum (gravity off).
    #[test]
    fn internal_motion_conserves_momentum_without_gravity() {
        let mut model = robots::hyq();
        model.gravity = Vec3::zero();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 2);
        let (mut q, mut qd) = (s.q.clone(), s.qd.clone());
        let tau: Vec<f64> = (0..model.nv())
            .map(|k| if k >= 6 { 0.8 - 0.1 * k as f64 } else { 0.0 })
            .collect();
        let h0 = spatial_momentum(&model, &mut ws, &q, &qd);
        let dt = 1e-4;
        for _ in 0..100 {
            let qdd = aba(&model, &mut ws, &q, &qd, &tau, None).unwrap();
            q = integrate_config(&model, &q, &qd, dt);
            for k in 0..model.nv() {
                qd[k] += dt * qdd[k];
            }
        }
        let h1 = spatial_momentum(&model, &mut ws, &q, &qd);
        assert!(
            (h1 - h0).max_abs() < 1e-2 * (1.0 + h0.max_abs()),
            "momentum drifted: {h0} → {h1}"
        );
    }
}
