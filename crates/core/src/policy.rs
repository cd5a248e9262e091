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
/// (instead of per application) and the preconditioner changes the Krylov
/// trajectory entirely.  What every policy preserves is the solution contract (relative
/// residual ≤ tolerance) and serial ≡ rayon bit-identity *within* the
/// policy; the [`MatrixFree`](Self::MatrixFree) path does not depend on
/// whether a pattern or projector is attached.
///
/// There is no `Default`: `SsConfig::paper()` is the one place a default
/// policy is written ([`AssembledIlu0`](Self::AssembledIlu0), which a
/// problem without an attached pattern runs as
/// [`MatrixFree`](Self::MatrixFree), bitwise).  An unset or malformed
/// `CBS_PRECOND` leaves whatever the reading binary configured.  The
/// discriminants are the fingerprint and trace codes; 1 (the
/// unpreconditioned assembled CSR) and 3 (ILU(0) completed by a
/// Sherman-Morrison-Woodbury projector correction, 2–7× slower than plain
/// ILU(0) at the same iteration count) are retired and never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecondPolicy {
    /// Apply `P(z)` matrix-free, unpreconditioned: one fused row pass over
    /// `f64` coefficients when the blocks are real `sparse + low-rank`
    /// storage (`cbs_sparse::RealStencil`, one storage traversal), else the
    /// generic composition of `H₀₀`, `H₀₁`, `H₀₁†` (three).
    MatrixFree = 0,
    /// The complex **diagonal ILU** of the sparse part of `P(z)` —
    /// `M = (D̃+L)D̃⁻¹(D̃+U)` with `L`, `U` the strict triangles of `P(z)` and
    /// only the pivots eliminated — built once per quadrature node and
    /// applied on both the primal (`M⁻¹`) and dual (`M⁻†`, i.e. the
    /// `P(1/z̄)` side) recurrences: the iteration-count lever.  Where the
    /// blocks convert to the real stencil it is `n` pivots swept over the
    /// stencil's rows, and the stencil is the operator; otherwise the
    /// attached `cbs_sparse::AssembledPattern` is refilled into one CSR
    /// that is the operator and is factored.  One storage traversal per
    /// apply either way.  (The name is the fingerprint's: the policy
    /// applied full ILU(0) factors before checkpoint format v13.)
    AssembledIlu0 = 2,
}

impl PrecondPolicy {
    /// Strictly parse a policy name — the `CBS_PRECOND` value syntax:
    /// `"matrix-free"` / `"mf"`, `"assembled-ilu0"` / `"ilu0"` / `"ilu"`;
    /// `None` for unrecognized names (the retired `"assembled"` and `"smw"`
    /// spellings included, which [`cbs_trace::knob()`] then reports once as
    /// malformed).
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

    /// `true` for the preconditioned policy, the one that reads an attached
    /// pattern (it refills it per node where no stencil applies).
    pub fn is_assembled(self) -> bool {
        !matches!(self, Self::MatrixFree)
    }

    /// The policy's code in trace span contexts — the
    /// [`cbs_trace::policy_name`] contract: 0 = matrix-free,
    /// 2 = assembled-ilu0.
    pub fn trace_code(self) -> u8 {
        self as u8
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
        // Retired values take the malformed-value road: no parse, so the
        // knob warns once and the caller's configured policy stands.
        for retired in
            ["assembled", "ASM", "smw", "assembled-ilu0-smw", "ilu0-smw", "anything-else"]
        {
            assert_eq!(PrecondPolicy::try_from_name(retired), None);
            assert_eq!(<PrecondPolicy as cbs_trace::Knob>::parse_knob(retired), None);
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
            assert_eq!(<PrecondPolicy as cbs_trace::Knob>::parse_knob(name), Some(policy));
        }
        assert_eq!(PrecondPolicy::MatrixFree.name(), "matrix-free");
        assert_eq!(PrecondPolicy::AssembledIlu0.name(), "assembled-ilu0");
        assert!(!PrecondPolicy::MatrixFree.is_assembled());
        assert!(PrecondPolicy::AssembledIlu0.is_assembled());
        assert_eq!(PrecondPolicy::MatrixFree.trace_code(), 0);
        assert_eq!(PrecondPolicy::AssembledIlu0.trace_code(), 2);
    }
}
