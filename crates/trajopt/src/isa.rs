//! Instruction set of the crate's register-blocked dense kernels: the RK4
//! sensitivity chain (`integrator.rs`) and the iLQR Riccati products
//! (`ilqr.rs`).
//!
//! Each kernel has one portable body and an AVX2 clone of the same code,
//! chosen by the caller with [`Isa::detect`]. The clone performs the same
//! IEEE operations in the same order with no FMA contraction, so both
//! give the same bits.

/// Instruction set a kernel is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    Portable,
    /// Only produced by [`Isa::detect`] after a runtime check.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The widest instruction set this host supports.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Portable
    }

    /// Every instruction set this host can run: `Portable`, then the
    /// detected one if it differs.
    #[cfg(test)]
    pub(crate) fn host_all() -> Vec<Self> {
        let mut isas = vec![Self::Portable];
        if Self::detect() != Self::Portable {
            isas.push(Self::detect());
        }
        isas
    }
}
