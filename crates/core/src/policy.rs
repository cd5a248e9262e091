//! The policy enums of the shifted solves: how `P(z)` is represented and
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

/// How the shifted operator `P(z)` is represented — and whether its solves
/// are preconditioned.
///
/// The policies are **not** bitwise-interchangeable:
/// the assembled operator sums the three Hamiltonian contributions per entry
/// (instead of per application) and ILU(0) changes the Krylov trajectory
/// entirely.  What every policy preserves is the solution contract (relative
/// residual ≤ tolerance) and serial ≡ rayon bit-identity *within* the
/// policy; the [`MatrixFree`](Self::MatrixFree) path does not depend on
/// whether a pattern or projector is attached.
///
/// `PrecondPolicy::default()` (and the `CBS_PRECOND` fallback) stays
/// [`MatrixFree`](Self::MatrixFree) — the historical baseline that old
/// checkpoints and unset env knobs resolve to.  `SsConfig::default()`
/// however selects [`Assembled`](Self::Assembled), and problems without an
/// attached pattern fall back to matrix-free, bitwise.  That default dates
/// from when every assembled row beat the three-pass matrix-free apply; the
/// real stencil has since taken the reason away (per block apply about half
/// the assembled CSR + factored tail, and no per-node refill — 12k-point Al
/// cell, 4 columns: 890–900 µs against 2 100 µs plus 860–930 µs of
/// assembly), which is why the two ILU policies apply `P(z)` through it
/// themselves.  [`Assembled`](Self::Assembled) is the one policy that still
/// applies the CSR on a stencil-eligible Hamiltonian; ROADMAP's
/// policy-collapse item deletes it, default included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecondPolicy {
    /// Apply `P(z)` matrix-free, unpreconditioned: one fused row pass over
    /// `f64` coefficients when the blocks are real `sparse + low-rank`
    /// storage (`cbs_sparse::RealStencil`, one storage traversal), else the
    /// generic composition of `H₀₀`, `H₀₁`, `H₀₁†` (three).  The historical
    /// default.
    #[default]
    MatrixFree,
    /// Materialize `P(z)` once per quadrature node as a single CSR by
    /// numeric refill of the shared `cbs_sparse::AssembledPattern` — one
    /// storage traversal per application — still unpreconditioned.
    Assembled,
    /// A complex ILU(0) factorization of the assembled CSR per node, applied
    /// as a preconditioner on both the primal (`M⁻¹`) and dual (`M⁻†`, i.e.
    /// the `P(1/z̄)` side) recurrences — the iteration-count lever.  The
    /// operator itself is the real stencil where the blocks convert (the
    /// refill is then factored in place as ILU input only) and the assembled
    /// CSR otherwise; one storage traversal per apply either way.
    AssembledIlu0,
    /// [`AssembledIlu0`](Self::AssembledIlu0) completed by a
    /// Sherman-Morrison-Woodbury correction for the factored low-rank
    /// projector tail (`cbs_sparse::SmwPrecond`): the preconditioner
    /// approximates the *full* `P(z)` instead of only its assembled CSR
    /// part.  Falls back to plain [`AssembledIlu0`](Self::AssembledIlu0)
    /// bitwise when no projector is attached (rank 0) or the capacitance
    /// matrix is singular.  Appended last so existing checkpoint
    /// fingerprints (which fold in the discriminant) are unchanged.
    AssembledIlu0Smw,
}

impl PrecondPolicy {
    /// Read the policy from an environment variable: `"assembled"` / `"asm"` select
    /// [`Assembled`](Self::Assembled), `"assembled-ilu0"` / `"ilu0"` /
    /// `"ilu"` select [`AssembledIlu0`](Self::AssembledIlu0); unset keeps
    /// the [`MatrixFree`](Self::MatrixFree) env fallback and a malformed
    /// value warns once and does the same (via [`cbs_trace::knob()`]).
    pub fn from_env(var: &str) -> Self {
        cbs_trace::knob(var).unwrap_or(Self::MatrixFree)
    }

    /// Strictly parse a policy name (the `from_env` value syntax); `None`
    /// for unrecognized names.
    pub fn try_from_name(name: &str) -> Option<Self> {
        if name.eq_ignore_ascii_case("assembled-ilu0-smw")
            || name.eq_ignore_ascii_case("assembled_ilu0_smw")
            || name.eq_ignore_ascii_case("ilu0-smw")
            || name.eq_ignore_ascii_case("ilu0_smw")
            || name.eq_ignore_ascii_case("smw")
        {
            Some(Self::AssembledIlu0Smw)
        } else if name.eq_ignore_ascii_case("assembled-ilu0")
            || name.eq_ignore_ascii_case("assembled_ilu0")
            || name.eq_ignore_ascii_case("ilu0")
            || name.eq_ignore_ascii_case("ilu")
        {
            Some(Self::AssembledIlu0)
        } else if name.eq_ignore_ascii_case("assembled") || name.eq_ignore_ascii_case("asm") {
            Some(Self::Assembled)
        } else if name.eq_ignore_ascii_case("matrix-free")
            || name.eq_ignore_ascii_case("matrixfree")
            || name.eq_ignore_ascii_case("mf")
        {
            Some(Self::MatrixFree)
        } else {
            None
        }
    }

    /// Parse a policy name (the `from_env` value syntax); unrecognized
    /// names fall back to the default [`MatrixFree`](Self::MatrixFree).
    pub fn from_name(name: &str) -> Self {
        Self::try_from_name(name).unwrap_or(Self::MatrixFree)
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::MatrixFree => "matrix-free",
            Self::Assembled => "assembled",
            Self::AssembledIlu0 => "assembled-ilu0",
            Self::AssembledIlu0Smw => "assembled-ilu0-smw",
        }
    }

    /// `true` for the policies that refill the assembled pattern per node
    /// (as the operator, as ILU input, or both).
    pub fn is_assembled(self) -> bool {
        !matches!(self, Self::MatrixFree)
    }

    /// The policy's code in trace span contexts — the
    /// [`cbs_trace::policy_name`] contract: 0 = matrix-free, 1 = assembled,
    /// 2 = assembled-ilu0, 3 = assembled-ilu0-smw.
    pub fn trace_code(self) -> u8 {
        match self {
            Self::MatrixFree => 0,
            Self::Assembled => 1,
            Self::AssembledIlu0 => 2,
            Self::AssembledIlu0Smw => 3,
        }
    }

    /// Decode the serialized discriminant (checkpoint format; same codes
    /// as [`trace_code`](Self::trace_code)); `None` for unknown values.
    pub fn from_index(index: u64) -> Option<Self> {
        match index {
            0 => Some(Self::MatrixFree),
            1 => Some(Self::Assembled),
            2 => Some(Self::AssembledIlu0),
            3 => Some(Self::AssembledIlu0Smw),
            _ => None,
        }
    }
}

impl cbs_trace::Knob for PrecondPolicy {
    fn parse_knob(value: &str) -> Option<Self> {
        Self::try_from_name(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precond_policy_env_knob_parses_like_the_other_knobs() {
        assert_eq!(
            PrecondPolicy::from_env("CBS_PRECOND_TEST_UNSET_VAR"),
            PrecondPolicy::MatrixFree
        );
        assert_eq!(PrecondPolicy::from_name("assembled"), PrecondPolicy::Assembled);
        assert_eq!(PrecondPolicy::from_name("ASM"), PrecondPolicy::Assembled);
        assert_eq!(PrecondPolicy::from_name("assembled-ilu0"), PrecondPolicy::AssembledIlu0);
        assert_eq!(PrecondPolicy::from_name("assembled_ilu0"), PrecondPolicy::AssembledIlu0);
        assert_eq!(PrecondPolicy::from_name("ilu"), PrecondPolicy::AssembledIlu0);
        assert_eq!(PrecondPolicy::from_name("ILU0"), PrecondPolicy::AssembledIlu0);
        assert_eq!(PrecondPolicy::from_name("assembled-ilu0-smw"), PrecondPolicy::AssembledIlu0Smw);
        assert_eq!(PrecondPolicy::from_name("assembled_ilu0_smw"), PrecondPolicy::AssembledIlu0Smw);
        assert_eq!(PrecondPolicy::from_name("ilu0-smw"), PrecondPolicy::AssembledIlu0Smw);
        assert_eq!(PrecondPolicy::from_name("SMW"), PrecondPolicy::AssembledIlu0Smw);
        assert_eq!(PrecondPolicy::from_name("anything-else"), PrecondPolicy::MatrixFree);
        assert_eq!(PrecondPolicy::MatrixFree.name(), "matrix-free");
        assert_eq!(PrecondPolicy::Assembled.name(), "assembled");
        assert_eq!(PrecondPolicy::AssembledIlu0.name(), "assembled-ilu0");
        assert_eq!(PrecondPolicy::AssembledIlu0Smw.name(), "assembled-ilu0-smw");
        assert!(!PrecondPolicy::MatrixFree.is_assembled());
        assert!(PrecondPolicy::Assembled.is_assembled());
        assert!(PrecondPolicy::AssembledIlu0.is_assembled());
        assert!(PrecondPolicy::AssembledIlu0Smw.is_assembled());
        assert_eq!(PrecondPolicy::AssembledIlu0Smw.trace_code(), 3);
        assert_eq!(PrecondPolicy::default(), PrecondPolicy::MatrixFree);
    }
}
