//! Property-based tests pinning the K-lane lockstep kernels
//! **bit-identical** to the scalar path across randomized kinematic
//! trees, the paper robots (floating base included) and randomized
//! states — plus the lane-group batch dispatch at every worker count
//! (proptest; gated behind the `proptest-tests` feature like the other
//! property suites).

use dadu_rbd::dynamics::{
    aba_in_ws, forward_dynamics_aba_lanes_in_ws, lanes::LaneWorkspace, rk4_rollout_into,
    rk4_rollout_lanes_into, rnea_in_ws, rnea_lanes_in_ws, BatchEval, DynamicsWorkspace,
    LaneRolloutScratch, RolloutScratch,
};
use dadu_rbd::model::{random_state, robots, RobotModel};
use proptest::prelude::*;

const K: usize = 4;

/// Every test model class: the three paper robots (Atlas and HyQ are
/// floating-base), the hybrid, plus a randomized tree per case.
fn model_for(idx: usize, tree_n: usize, tree_seed: u64) -> RobotModel {
    match idx {
        0 => robots::iiwa(),
        1 => robots::hyq(),
        2 => robots::atlas(),
        3 => robots::quadruped_arm(),
        _ => robots::random_tree(tree_n, tree_seed),
    }
}

/// Packs `K` random lane states into flat lane-major buffers.
fn lane_states(model: &RobotModel, seed0: u64) -> (Vec<f64>, Vec<f64>) {
    let (nq, nv) = (model.nq(), model.nv());
    let mut q = vec![0.0; K * nq];
    let mut qd = vec![0.0; K * nv];
    for l in 0..K {
        let s = random_state(model, seed0.wrapping_add(l as u64));
        q[l * nq..(l + 1) * nq].copy_from_slice(&s.q);
        qd[l * nv..(l + 1) * nv].copy_from_slice(&s.qd);
    }
    (q, qd)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lane RNEA and lane ABA are bit-identical to the scalar kernels,
    /// lane by lane, on every model class at randomized states.
    #[test]
    fn lane_sweeps_bit_identical_to_scalar(
        model_idx in 0usize..5,
        tree_n in 2usize..10,
        tree_seed in 0u64..500,
        state_seed in 0u64..1000,
    ) {
        let model = model_for(model_idx, tree_n, tree_seed);
        let (nq, nv) = (model.nq(), model.nv());
        let (q, qd) = lane_states(&model, state_seed);
        let qdd: Vec<f64> = (0..K * nv).map(|i| 0.25 - 0.015 * i as f64).collect();
        let tau: Vec<f64> = (0..K * nv).map(|i| 0.4 - 0.02 * i as f64).collect();

        let mut lws = LaneWorkspace::<K>::new(&model);
        let mut ws = DynamicsWorkspace::new(&model);

        rnea_lanes_in_ws(&model, &mut lws, &q, &qd, &qdd, 1.0);
        for l in 0..K {
            rnea_in_ws(
                &model, &mut ws,
                &q[l * nq..(l + 1) * nq],
                &qd[l * nv..(l + 1) * nv],
                &qdd[l * nv..(l + 1) * nv],
                None, 1.0,
            );
            for d in 0..nv {
                prop_assert_eq!(lws.tau_lanes()[d][l], ws.tau[d], "RNEA lane {} dof {}", l, d);
            }
        }

        forward_dynamics_aba_lanes_in_ws(&model, &mut lws, &q, &qd, &tau).unwrap();
        let mut qdd_ref = vec![0.0; nv];
        for l in 0..K {
            aba_in_ws(
                &model, &mut ws,
                &q[l * nq..(l + 1) * nq],
                &qd[l * nv..(l + 1) * nv],
                &tau[l * nv..(l + 1) * nv],
                None, &mut qdd_ref,
            ).unwrap();
            for d in 0..nv {
                prop_assert_eq!(lws.qdd_lanes()[d][l], qdd_ref[d], "ABA lane {} dof {}", l, d);
            }
        }
    }

    /// The lane rollout trajectory equals the scalar rollout bitwise,
    /// per lane, for random trees and states.
    #[test]
    fn lane_rollout_bit_identical_to_scalar(
        model_idx in 0usize..5,
        tree_n in 2usize..9,
        tree_seed in 0u64..500,
        state_seed in 0u64..1000,
        horizon in 1usize..4,
    ) {
        let model = model_for(model_idx, tree_n, tree_seed);
        let (nq, nv) = (model.nq(), model.nv());
        let (q0, qd0) = lane_states(&model, state_seed);
        let us: Vec<f64> = (0..K * horizon * nv).map(|i| 0.3 - 0.01 * i as f64).collect();
        let dt = 0.01;

        let mut lws = LaneWorkspace::<K>::new(&model);
        let mut lane_rs = LaneRolloutScratch::for_model(&model, K);
        let mut q_traj = vec![0.0; K * (horizon + 1) * nq];
        let mut qd_traj = vec![0.0; K * (horizon + 1) * nv];
        rk4_rollout_lanes_into(
            &model, &mut lws, &mut lane_rs, &q0, &qd0, &us, horizon, dt,
            &mut q_traj, &mut qd_traj,
        ).unwrap();

        let mut ws = DynamicsWorkspace::new(&model);
        let mut rs = RolloutScratch::for_model(&model);
        let mut q_ref = vec![0.0; (horizon + 1) * nq];
        let mut qd_ref = vec![0.0; (horizon + 1) * nv];
        for l in 0..K {
            rk4_rollout_into(
                &model, &mut ws, &mut rs,
                &q0[l * nq..(l + 1) * nq],
                &qd0[l * nv..(l + 1) * nv],
                &us[l * horizon * nv..(l + 1) * horizon * nv],
                horizon, dt, &mut q_ref, &mut qd_ref,
            ).unwrap();
            prop_assert_eq!(
                &q_traj[l * (horizon + 1) * nq..(l + 1) * (horizon + 1) * nq],
                &q_ref[..], "q lane {}", l
            );
            prop_assert_eq!(
                &qd_traj[l * (horizon + 1) * nv..(l + 1) * (horizon + 1) * nv],
                &qd_ref[..], "qd lane {}", l
            );
        }
    }

    /// The lane-group batch dispatch (`for_each_lane_groups` chunking, scalar
    /// remainder) is bit-identical to the serial scalar loop at every
    /// worker count for arbitrary batch sizes.
    #[test]
    fn lane_group_dispatch_bit_identical_at_any_worker_count(
        n_samples in 1usize..14,
        threads in 0usize..5,
        state_seed in 0u64..1000,
    ) {
        let model = robots::hyq();
        let (nq, nv) = (model.nq(), model.nv());
        let horizon = 2;
        let dt = 0.01;
        // Per-sample states and controls.
        let states: Vec<_> = (0..n_samples)
            .map(|k| random_state(&model, state_seed.wrapping_add(k as u64)))
            .collect();
        let us_all: Vec<Vec<f64>> = (0..n_samples)
            .map(|k| (0..horizon * nv).map(|i| 0.2 - 0.01 * (i + k) as f64).collect())
            .collect();

        // Serial scalar reference: final configuration per sample.
        let mut ws = DynamicsWorkspace::new(&model);
        let mut rs = RolloutScratch::for_model(&model);
        let mut q_ref = vec![0.0; (horizon + 1) * nq];
        let mut qd_ref = vec![0.0; (horizon + 1) * nv];
        let reference: Vec<Vec<f64>> = (0..n_samples).map(|k| {
            rk4_rollout_into(
                &model, &mut ws, &mut rs, &states[k].q, &states[k].qd, &us_all[k],
                horizon, dt, &mut q_ref, &mut qd_ref,
            ).unwrap();
            q_ref[horizon * nq..].to_vec()
        }).collect();

        // Lane-group dispatch through the pool.
        struct Slot {
            lws: LaneWorkspace<K>,
            lane_rs: LaneRolloutScratch,
            scalar_rs: RolloutScratch,
            q0: Vec<f64>, qd0: Vec<f64>, us: Vec<f64>,
            q_traj: Vec<f64>, qd_traj: Vec<f64>,
        }
        let mut batch = BatchEval::with_threads(&model, threads).with_point_flops(1e9);
        let mut slots: Vec<Slot> = (0..batch.threads()).map(|_| Slot {
            lws: LaneWorkspace::new(&model),
            lane_rs: LaneRolloutScratch::for_model(&model, K),
            scalar_rs: RolloutScratch::for_model(&model),
            q0: vec![0.0; K * nq], qd0: vec![0.0; K * nv],
            us: vec![0.0; K * horizon * nv],
            q_traj: vec![0.0; K * (horizon + 1) * nq],
            qd_traj: vec![0.0; K * (horizon + 1) * nv],
        }).collect();
        let ids: Vec<usize> = (0..n_samples).collect();
        let mut outs: Vec<Vec<f64>> = vec![Vec::new(); n_samples];
        let r: Result<(), std::convert::Infallible> = batch.for_each_lane_groups(
            K, &ids, &mut outs, &mut slots,
            |model, ws, sc, _start, group, group_outs| {
                if group.len() == K {
                    for (l, &k) in group.iter().enumerate() {
                        sc.q0[l * nq..(l + 1) * nq].copy_from_slice(&states[k].q);
                        sc.qd0[l * nv..(l + 1) * nv].copy_from_slice(&states[k].qd);
                        sc.us[l * horizon * nv..(l + 1) * horizon * nv]
                            .copy_from_slice(&us_all[k]);
                    }
                    rk4_rollout_lanes_into(
                        model, &mut sc.lws, &mut sc.lane_rs, &sc.q0, &sc.qd0, &sc.us,
                        horizon, dt, &mut sc.q_traj, &mut sc.qd_traj,
                    ).unwrap();
                    for (l, o) in group_outs.iter_mut().enumerate() {
                        *o = sc.q_traj[l * (horizon + 1) * nq + horizon * nq..]
                            [..nq].to_vec();
                    }
                } else {
                    for (&k, o) in group.iter().zip(group_outs.iter_mut()) {
                        rk4_rollout_into(
                            model, ws, &mut sc.scalar_rs, &states[k].q, &states[k].qd,
                            &us_all[k], horizon, dt,
                            &mut sc.q_traj[..(horizon + 1) * nq],
                            &mut sc.qd_traj[..(horizon + 1) * nv],
                        ).unwrap();
                        *o = sc.q_traj[horizon * nq..(horizon + 1) * nq].to_vec();
                    }
                }
                Ok(())
            },
        );
        r.unwrap();
        for (k, (got, expect)) in outs.iter().zip(&reference).enumerate() {
            prop_assert_eq!(got, expect, "sample {} at {} threads", k, threads);
        }
    }
}
