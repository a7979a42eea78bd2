//! Proves the RK4 sensitivity chain — the per-point unit of the LQ
//! approximation — performs zero steady-state heap allocation once its
//! [`Rk4SensScratch`] and outputs are warm: a counting global allocator
//! watches every alloc while the hot path runs against reused storage.
//! The same allocator shows that a warm iLQR solve allocates only the
//! result it returns.
//!
//! The tests share one process and run on libtest's parallel threads;
//! the counting allocator (shared with `rbd-dynamics`' proofs) counts
//! only the running test's own thread and its pool workers, and
//! serializes the test bodies, so the counts hold under the default
//! harness.

#[path = "../../dynamics/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{alloc_count, serial};
use rbd_dynamics::{BatchEval, DynamicsWorkspace};
use rbd_model::{integrate_config_into, random_state, robots};
use rbd_spatial::MatN;
use rbd_trajopt::{
    lq_jacobians_batched, rk4_step, rk4_step_with_sensitivity_into, LqScratch, Rk4SensScratch,
    StepJacobians,
};

#[test]
fn rk4_sensitivity_chain_does_not_allocate_in_steady_state() {
    let _serial = serial();
    for model in [robots::iiwa(), robots::hyq(), robots::atlas()] {
        let mut ws = DynamicsWorkspace::new(&model);
        let mut scratch = Rk4SensScratch::for_model(&model);
        let nv = model.nv();
        let s = random_state(&model, 3);
        let tau: Vec<f64> = (0..nv).map(|k| 0.3 - 0.04 * k as f64).collect();
        let mut q_new = vec![0.0; model.nq()];
        let mut qd_new = vec![0.0; nv];
        let mut jac = StepJacobians {
            a: MatN::zeros(0, 0),
            b: MatN::zeros(0, 0),
        };

        // Warm-up: sizes the outputs and every scratch buffer.
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

        // Steady state: the full four-stage ΔFD chain-rule evaluation —
        // the per-point unit of the LQ approximation — must be
        // allocation-free end to end.
        let count = alloc_count(|| {
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
            )
        });
        assert_eq!(
            count,
            0,
            "rk4_step_with_sensitivity_into allocated {count} time(s) on {}",
            model.name()
        );

        // The manifold integrator it is built on is allocation-free too.
        let count = alloc_count(|| {
            integrate_config_into(&model, &s.q, &s.qd, 0.01, &mut q_new);
        });
        assert_eq!(count, 0, "integrate_config_into allocated {count} time(s)");
    }
}

#[test]
fn mppi_iteration_does_not_allocate_in_steady_state() {
    let _serial = serial();
    // The FULL sampling-MPC dispatch chain — Gaussian noise fill,
    // lane-group pool dispatch, lockstep lane rollouts + scalar
    // remainder, trajectory scoring and the softmax control blend —
    // must be allocation-free once the controller is warm, with
    // multiple workers engaged. 10 samples at lane width 4 exercise two
    // full lane groups AND the scalar remainder path.
    use rbd_trajopt::{Mppi, MppiOptions};
    let model = robots::iiwa();
    let opts = MppiOptions {
        samples: 10,
        horizon: 3,
        ..Default::default()
    };
    let mut mppi = Mppi::with_threads(&model, opts, 4);
    let q0 = model.neutral_config();
    let qd0 = vec![0.0; model.nv()];

    // Warm-up sizes every per-executor buffer.
    mppi.iterate(&q0, &qd0);

    let count = alloc_count(|| {
        mppi.iterate(&q0, &qd0);
    });
    assert_eq!(count, 0, "MPPI iteration allocated {count} time(s)");
}

#[test]
fn batched_multi_worker_lq_phase_does_not_allocate_in_steady_state() {
    let _serial = serial();
    // The *whole* batched LQ approximation — persistent-pool dispatch,
    // per-executor workspace + Rk4SensScratch slots, the four-stage ΔFD
    // chain at every sampling point, and the Jacobian writes — must be
    // allocation-free once warm, with multiple workers actually engaged.
    // Pool-worker allocations are counted too: this covers the
    // `for_each_with_scratch` dispatch path end to end.
    let model = robots::iiwa();
    let nv = model.nv();
    let horizon = 40;
    let dt = 0.01;
    let mut batch = BatchEval::with_threads(&model, 4)
        .with_point_flops(rbd_accel::ops::rk4_sens_point_flops(&model));

    // A short rollout provides the sampling points (allocates; outside
    // the counted window).
    let mut ws = DynamicsWorkspace::new(&model);
    let s = random_state(&model, 5);
    let us: Vec<Vec<f64>> = (0..horizon)
        .map(|k| (0..nv).map(|i| 0.2 - 0.01 * (k + i) as f64).collect())
        .collect();
    let mut traj = vec![(s.q.clone(), s.qd.clone())];
    for u in &us {
        let (q, qd) = traj.last().unwrap();
        traj.push(rk4_step(&model, &mut ws, q, qd, u, dt));
    }
    let mut jacs: Vec<StepJacobians> = (0..horizon).map(|_| StepJacobians::zeros(nv)).collect();
    let mut scratch: Vec<LqScratch> = (0..batch.threads())
        .map(|_| LqScratch::for_model(&model))
        .collect();

    // Warm-up: sizes every per-executor buffer.
    lq_jacobians_batched(&mut batch, dt, &traj, &us, &mut jacs, &mut scratch);
    assert_eq!(
        batch.last_workers(),
        4,
        "work gate must engage all four executors for this batch"
    );

    let count = alloc_count(|| {
        lq_jacobians_batched(&mut batch, dt, &traj, &us, &mut jacs, &mut scratch);
    });
    assert_eq!(
        count, 0,
        "multi-worker batched LQ phase allocated {count} time(s)"
    );
    assert_eq!(batch.last_workers(), 4);
}

#[test]
fn warm_ilqr_solve_allocates_only_its_result() {
    let _serial = serial();
    // A warm solve's count must not depend on how many iterations it
    // runs: every LQ pass, Riccati pass and line-search rollout beyond
    // the first iteration is then allocation-free, and what is left is
    // the returned IlqrResult (cost history, controls, trajectory).
    use rbd_trajopt::{Ilqr, IlqrOptions};
    let model = robots::iiwa();
    let nv = model.nv();
    let goal: Vec<f64> = (0..nv).map(|i| 0.4 - 0.1 * i as f64).collect();
    let s = random_state(&model, 6);
    let horizon = 20;
    let mut counts = Vec::new();
    for max_iters in [1, 4] {
        let options = IlqrOptions {
            horizon,
            max_iters,
            tol: 0.0,
            ..IlqrOptions::default()
        };
        let mut ilqr = Ilqr::new(&model, goal.clone(), options);
        // Warm-up: spawns the pool workers and sizes every buffer.
        ilqr.solve(&s.q, &s.qd);
        let mut r = None;
        let count = alloc_count(|| r = Some(ilqr.solve(&s.q, &s.qd)));
        let r = r.unwrap();
        assert_eq!(
            r.cost_history.len(),
            max_iters + 1,
            "every iteration must accept a step: {:?}",
            r.cost_history
        );
        counts.push(count);
    }
    assert_eq!(
        counts[0], counts[1],
        "a warm solve allocated {} times at max_iters = 1 but {} at max_iters = 4",
        counts[0], counts[1]
    );
    // The result alone: the cost history, the control vector of vectors
    // and the trajectory of (q, q̇) pairs.
    let result_allocs = 1 + (1 + horizon) + (1 + 2 * (horizon + 1));
    assert_eq!(counts[0], result_allocs as u64);
}
