//! Instruction set of the workspace's hand-vectorized kernels: the K-lane
//! sweeps of [`crate::lanes`] (`rnea_lanes_in_ws`,
//! `forward_dynamics_aba_lanes_in_ws`, `rk4_rollout_lanes_into`) and, in
//! `rbd-trajopt`, the register-blocked RK4 sensitivity chain and the
//! iLQR Riccati products.
//!
//! Each kernel has one portable (baseline SSE2 on x86-64) body and an
//! AVX2 clone of the same code, and `match`es on an [`Isa`] to pick one.
//! The clone performs the same IEEE operations in the same order with no
//! FMA contraction, so both give the same bits. [`Isa::detect`] is the
//! only place that asks the CPU, and the kernels dispatch `unsafe` on
//! [`Isa::Avx2`]: other crates cannot construct that variant, so every
//! `Avx2` value comes from a runtime check.

/// Instruction set a kernel is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The target's baseline instruction set.
    Portable,
    /// AVX2; only produced by [`Isa::detect`] after a runtime check
    /// (`non_exhaustive` makes the variant private to construct outside
    /// this crate; other crates match it as `Isa::Avx2 { .. }`).
    #[cfg(target_arch = "x86_64")]
    #[non_exhaustive]
    Avx2,
}

impl Isa {
    /// The widest instruction set this host supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Portable
    }

    /// Every instruction set this host can run: `Portable`, then the
    /// detected one if it differs. Tests run each kernel on all of them.
    pub fn host_all() -> Vec<Self> {
        let mut isas = vec![Self::Portable];
        if Self::detect() != Self::Portable {
            isas.push(Self::detect());
        }
        isas
    }
}
