//! The policy enums of the shifted solves: whether `P(z)` is
//! preconditioned ([`PrecondPolicy`]), and the vestigial job-shape enum
//! ([`BlockPolicy`]).

use serde::{Deserialize, Serialize};

/// Shape of the shifted-solve jobs.  **Vestigial:** there is one shape — a
/// job is a whole quadrature node, all `N_rh` right-hand sides advancing in
/// lockstep through `cbs_solver::bicg_dual_block_precond` — and nothing
/// selects on this enum.  It survives, with [`name`](Self::name), only
/// because the repo benchmark (`benchmark/src/layers.rs`, out of bounds for
/// library PRs) prints `AutoDecision::block.name()`; the next `benchmark`
/// issue deletes that line and this type with it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockPolicy {
    /// One block job per quadrature node.
    #[default]
    PerNode,
}

impl BlockPolicy {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        "per-node"
    }
}

/// Whether the shifted solves are preconditioned — the only input that
/// selects it.
///
/// The policies are **not** bitwise-interchangeable: the split system
/// changes the Krylov trajectory entirely.  What every policy preserves is
/// the solution contract (relative residual ≤ tolerance) and serial ≡ rayon
/// bit-identity *within* the policy; no policy depends on whether a pattern
/// or projector is attached.
///
/// There is no `Default`: `SsConfig::paper()` is the one place a default
/// policy is written ([`MatrixFree`](Self::MatrixFree), the paper's).  The
/// discriminants are codes of the checkpoint fingerprint
/// only (nothing else reads them); 1 (the unpreconditioned assembled CSR)
/// and 3 (ILU(0) completed by a Sherman-Morrison-Woodbury projector
/// correction, 2–7× slower than plain ILU(0) at the same iteration count)
/// are retired and never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecondPolicy {
    /// Apply `P(z)` matrix-free, unpreconditioned: one fused row pass over
    /// `f64` coefficients when the blocks are the views of a real stencil
    /// (`cbs_sparse::RealStencil`, one storage traversal), else the
    /// generic composition of `H₀₀`, `H₀₁`, `H₀₁†` (three).
    MatrixFree = 0,
    /// The complex **diagonal ILU** of the sparse part of `P(z)` —
    /// `M = (D̃+L)D̃⁻¹(D̃+U)` with `L`, `U` the strict triangles of `P(z)` and
    /// only the pivots eliminated — built once per quadrature node and
    /// applied on both the primal (`M⁻¹`) and dual (`M⁻†`, i.e. the
    /// `P(1/z̄)` side) recurrences: the iteration-count lever.  It is `n`
    /// pivots swept over the real stencil's rows, and BiCG runs on the
    /// system they split, one row pass per apply.  Blocks that are not a
    /// stencil's views (complex, dense or plain-CSR pencils) run
    /// this policy as [`MatrixFree`](Self::MatrixFree): a documented
    /// degradation.  (The name is the fingerprint's: the policy refilled
    /// and factored an assembled CSR before checkpoint format v18, and
    /// applied full ILU(0) factors before v13.)
    AssembledIlu0 = 2,
}

impl PrecondPolicy {
    /// Strictly parse a policy name: `"matrix-free"` / `"mf"`,
    /// `"assembled-ilu0"` / `"ilu0"` / `"ilu"`; `None` for unrecognized
    /// names (the retired `"assembled"` and `"smw"` spellings included).
    /// **Vestige**, like [`name`](Self::name) and
    /// [`is_assembled`](Self::is_assembled): nothing in the library or the
    /// examples selects a policy by name, and the three survive only because
    /// the repo benchmark (`benchmark/src/layers.rs`, out of bounds for
    /// library PRs) calls them; ROADMAP 1(a) releases them.
    pub fn try_from_name(name: &str) -> Option<Self> {
        if name.eq_ignore_ascii_case("assembled-ilu0")
            || name.eq_ignore_ascii_case("assembled_ilu0")
            || name.eq_ignore_ascii_case("ilu0")
            || name.eq_ignore_ascii_case("ilu")
        {
            Some(Self::AssembledIlu0)
        } else if name.eq_ignore_ascii_case("matrix-free")
            || name.eq_ignore_ascii_case("matrixfree")
            || name.eq_ignore_ascii_case("mf")
        {
            Some(Self::MatrixFree)
        } else {
            None
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::MatrixFree => "matrix-free",
            Self::AssembledIlu0 => "assembled-ilu0",
        }
    }

    /// `true` for the preconditioned policy.
    pub fn is_assembled(self) -> bool {
        !matches!(self, Self::MatrixFree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precond_policy_names_parse_strictly() {
        // Retired spellings do not parse.
        for retired in
            ["assembled", "ASM", "smw", "assembled-ilu0-smw", "ilu0-smw", "anything-else"]
        {
            assert_eq!(PrecondPolicy::try_from_name(retired), None);
        }
        for (name, policy) in [
            ("matrix-free", PrecondPolicy::MatrixFree),
            ("MF", PrecondPolicy::MatrixFree),
            ("assembled-ilu0", PrecondPolicy::AssembledIlu0),
            ("assembled_ilu0", PrecondPolicy::AssembledIlu0),
            ("ilu", PrecondPolicy::AssembledIlu0),
            ("ILU0", PrecondPolicy::AssembledIlu0),
        ] {
            assert_eq!(PrecondPolicy::try_from_name(name), Some(policy), "{name}");
        }
        assert_eq!(PrecondPolicy::MatrixFree.name(), "matrix-free");
        assert_eq!(PrecondPolicy::AssembledIlu0.name(), "assembled-ilu0");
        assert!(!PrecondPolicy::MatrixFree.is_assembled());
        assert!(PrecondPolicy::AssembledIlu0.is_assembled());
        // The fingerprint codes; 1 and 3 stay retired.
        assert_eq!(PrecondPolicy::MatrixFree as u64, 0);
        assert_eq!(PrecondPolicy::AssembledIlu0 as u64, 2);
    }
}
