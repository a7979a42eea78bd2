//! ΔID backend equivalence and floating-base oracle coverage, run in
//! the default (non-proptest) CI job.
//!
//! * The IDSVA kernel behind `rnea_derivatives_into` (and so behind
//!   every production derivative path) must agree with the reference
//!   expansion `rnea_derivatives_expansion_into` to ≤1e-9 (relative) on
//!   every test model at randomized states, directly and through ΔFD.
//! * The floating-base Atlas gets a dedicated central-finite-difference
//!   cross-check at randomized states *and randomized `q̈`* (the
//!   in-module property suites lean on fixed-base arms and
//!   deterministic `q̈` ramps).

use rbd_dynamics::{
    fd_derivatives_into, forward_dynamics, mminv_gen, rnea_derivatives_expansion_into,
    rnea_derivatives_into, rnea_derivatives_numeric, DynamicsWorkspace, FdDerivatives,
    RneaDerivatives,
};
use rbd_model::{random_state, robots, RobotModel};

/// Deterministic xorshift64* — keeps the randomized states reproducible
/// without external dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    /// Uniform in (-1, 1).
    fn f(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn random_qdd(rng: &mut Rng, nv: usize, scale: f64) -> Vec<f64> {
    (0..nv).map(|_| scale * rng.f()).collect()
}

/// Relative max-abs disagreement of the two backends at one state.
fn backend_disagreement(model: &RobotModel, seed: u64, qdd: &[f64]) -> f64 {
    let mut ws = DynamicsWorkspace::new(model);
    let s = random_state(model, seed);
    let mut idsva = RneaDerivatives::zeros(model.nv());
    let mut exp = RneaDerivatives::zeros(model.nv());
    rnea_derivatives_into(model, &mut ws, &s.q, &s.qd, qdd, None, &mut idsva);
    rnea_derivatives_expansion_into(model, &mut ws, &s.q, &s.qd, qdd, None, &mut exp);
    let scale = 1.0 + exp.dtau_dq.max_abs().max(exp.dtau_dqd.max_abs());
    let dq = (&idsva.dtau_dq - &exp.dtau_dq).max_abs();
    let dqd = (&idsva.dtau_dqd - &exp.dtau_dqd).max_abs();
    dq.max(dqd) / scale
}

/// Acceptance criterion: backends agree to ≤1e-9 on all test models
/// (fixed and floating base) at randomized states.
#[test]
fn backends_agree_to_1e9_on_all_test_models() {
    let mut rng = Rng::new(0xD1D);
    let models = [
        robots::iiwa(),
        robots::hyq(),
        robots::atlas(),
        robots::tiago(),
        robots::quadruped_arm(),
        robots::random_tree(10, 4),
    ];
    for model in &models {
        for round in 0..5 {
            let qdd = random_qdd(&mut rng, model.nv(), 3.0);
            let err = backend_disagreement(model, 100 + round, &qdd);
            assert!(
                err <= 1e-9,
                "{} round {round}: backends disagree by {err:e} (> 1e-9)",
                model.name()
            );
        }
    }
}

/// ΔFD must agree with an expansion reference assembled from its
/// definition, `∂q̈/∂u = −M⁻¹·∂τ/∂u` at `q̈ = FD(q, q̇, τ)`: the `M⁻¹`
/// gather and the sparse tail are backend-independent, so any
/// disagreement comes from ΔID alone.
#[test]
fn dfd_backends_agree_to_1e9() {
    let mut rng = Rng::new(0xFD);
    for model in [robots::hyq(), robots::atlas()] {
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 77);
        let tau = random_qdd(&mut rng, model.nv(), 2.0);
        let mut a = FdDerivatives::zeros(model.nv());
        fd_derivatives_into(&model, &mut ws, &s.q, &s.qd, &tau, None, &mut a).unwrap();

        // Reference: MMinvGen's M⁻¹, the expansion ΔID at ΔFD's own q̈,
        // then the dense −M⁻¹·∂τ products.
        let minv = mminv_gen(&model, &mut ws, &s.q, false, true)
            .unwrap()
            .minv
            .unwrap();
        let mut exp = RneaDerivatives::zeros(model.nv());
        rnea_derivatives_expansion_into(&model, &mut ws, &s.q, &s.qd, &a.qdd, None, &mut exp);
        let mut b_dq = minv.mul_mat(&exp.dtau_dq);
        let mut b_dqd = minv.mul_mat(&exp.dtau_dqd);
        b_dq.scale(-1.0);
        b_dqd.scale(-1.0);

        let scale = 1.0 + b_dq.max_abs().max(b_dqd.max_abs());
        assert!(
            (&a.dqdd_dq - &b_dq).max_abs() / scale <= 1e-9,
            "{}",
            model.name()
        );
        assert!((&a.dqdd_dqd - &b_dqd).max_abs() / scale <= 1e-9);
        // q̈ and M⁻¹ are computed identically — bit-equal.
        let qdd = forward_dynamics(&model, &mut ws, &s.q, &s.qd, &tau, None).unwrap();
        assert_eq!(a.qdd, qdd);
        assert_eq!((&a.dqdd_dtau - &minv).max_abs(), 0.0);
    }
}

/// Floating-base Atlas against the central-difference oracle at
/// randomized states and randomized `q̈`, for the IDSVA kernel and the
/// reference expansion.
#[test]
fn atlas_floating_base_matches_finite_differences_at_random_states() {
    let model = robots::atlas();
    assert!(
        model.nq() > model.nv(),
        "Atlas must be floating base for this test to cover quaternions"
    );
    let mut rng = Rng::new(0xA71A5);
    let mut ws = DynamicsWorkspace::new(&model);
    for round in 0..3 {
        let s = random_state(&model, 500 + round);
        let qdd = random_qdd(&mut rng, model.nv(), 4.0);
        let (ndq, ndqd) = rnea_derivatives_numeric(&model, &s.q, &s.qd, &qdd, None, 1e-6);
        let scale = 1.0 + ndq.max_abs().max(ndqd.max_abs());
        let mut idsva = RneaDerivatives::zeros(model.nv());
        let mut exp = RneaDerivatives::zeros(model.nv());
        rnea_derivatives_into(&model, &mut ws, &s.q, &s.qd, &qdd, None, &mut idsva);
        rnea_derivatives_expansion_into(&model, &mut ws, &s.q, &s.qd, &qdd, None, &mut exp);
        for (algo, out) in [("idsva", &idsva), ("expansion", &exp)] {
            let eq = (&out.dtau_dq - &ndq).max_abs() / scale;
            let eqd = (&out.dtau_dqd - &ndqd).max_abs() / scale;
            assert!(eq < 1e-5, "round {round} {algo}: ∂τ/∂q error {eq}");
            assert!(eqd < 1e-5, "round {round} {algo}: ∂τ/∂q̇ error {eqd}");
        }
    }
}
