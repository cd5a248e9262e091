//! Contour partitioning: the annulus sliced into independently extractable
//! sub-contours (the scalability layer of the sliced Sakurai-Sugiura
//! method).
//!
//! The monolithic [`RingContour`] projects the whole annulus
//! `λ_min < |λ| < 1/λ_min` through one `N_mm x N_rh` subspace; past a few
//! dozen eigenvalues per energy the projected dense solves (SVD + reduced
//! eigenproblem on `N_mm N_rh` unknowns) — not the shifted linear solves —
//! become the scaling wall.  Following the hierarchical decomposition of
//! the source paper (and the sliced self-energy contours of Iwase et al.),
//! a [`ContourPartition`] splits the annulus into `S` **sector** slices
//! (and optionally radial sub-annuli), each a first-class closed contour
//! with its own quadrature nodes and a much smaller per-slice subspace;
//! `cbs::ss::solve_qep_sliced` runs all `(slice x node)` solves through one
//! flattened task pool and merges the per-slice extractions.
//!
//! # Geometry and claim regions
//!
//! Every slice owns two regions:
//!
//! * its **claim cell** — a half-open sector-of-annulus
//!   `θ_lo ≤ arg λ < θ_hi`, `r_lo ≤ |λ| < r_hi` (angles canonicalized to
//!   `[0, 2π)`).  The claim cells **tile the annulus exactly**: every
//!   in-annulus `λ` is claimed by exactly one slice, which is what makes
//!   the merged eigenvalue union well defined (`tests/properties.rs` locks
//!   this).
//! * its **integration contour** — the claim cell grown by the angular
//!   [`guard`](SlicePolicy::guard) band and the
//!   [`radial_guard`](SlicePolicy::radial_guard).  The guards keep every
//!   claimed eigenvalue strictly inside the slice's own contour, away from
//!   the cut lines and circles where the (non-separable) slice quadrature
//!   loses accuracy; eigenvalues inside the guard overlap of a
//!   *neighbouring* slice are extracted there too and discarded by the
//!   claim test during the merge.  Cut placement avoids the loci where
//!   physical spectra concentrate: angular cuts carry a quarter-step
//!   rotation off the real axis, radial cuts a quarter-band shift off the
//!   unit circle.
//!
//! # Quadrature and the dual trick
//!
//! Angle convention: identical to [`contour.rs`](crate::contour) — the
//! **0-based** trapezoid nodes sit at `θ_j = 2π (j + 1/2)/N` so no node
//! lands on the real axis, and the whole-annulus slice of a trivial
//! partition (`S = 1`) reproduces [`RingContour::outer_points`] /
//! [`RingContour::paired_inner`] **bit for bit**.
//!
//! A sector slice's boundary is two arcs (outer counter-clockwise, inner
//! clockwise) joined by two radial cut segments; arcs use Gauss-Legendre
//! nodes in `θ`, cuts use Gauss-Legendre nodes in `t = ln r`, mirrored
//! about `t = 0`.  Every node is stored as a [`SliceNode`]: a **primal**
//! shift `z` (the system actually solved) plus the paired **dual** node
//! `1/z̄` with its own weight.  When the slice spans the full radial range
//! the dual nodes land exactly on the opposite arc / the mirrored half of
//! the cut, so — exactly as on the two-circle ring — the dual BiCG
//! solutions of the primal systems serve the second half of the contour
//! for free (`P(z)† = P(1/z̄)`).  Radially split cells lose that pairing
//! (their boundary is not inversion-symmetric); their nodes carry a zero
//! dual weight and the dual solutions are simply unused.
//!
//! # The conjugate-symmetric single ring
//!
//! The trapezoid nodes of the whole-annulus slice come in conjugate pairs
//! (`z_{N−1−j} = z̄_j`, `ω_{N−1−j} = ω̄_j`).  For a real Hamiltonian
//! (`QepProblem::is_conjugate_symmetric`: `P(z̄) = conj P(z)`) and a real
//! source block the solutions at `z̄_j` are the conjugates of those at
//! `z_j`, so [`ContourPartition::try_new`] builds the single
//! slice from the `Im z > 0` half only and flags it
//! [`mirrored`](ContourSlice::is_mirrored): everything downstream (the
//! pool, seed tables) iterates a node list half as long, and the
//! extraction adds the missing half back as `Ŝ_k ← Ŝ_k + conj Ŝ_k`.  An
//! odd `N` has one self-conjugate node at `θ = π`; it stays in the list
//! with half its weights, so the closing sum counts it once.  Sector and
//! radial slices (`S > 1`) are not individually symmetric about the real
//! axis (the cuts carry a quarter-step rotation) and always keep their full
//! node lists, as does every slice of a complex problem.

use serde::{Deserialize, Serialize};

use cbs_linalg::Complex64;

use crate::contour::{ContourError, RingContour};

const TAU: f64 = 2.0 * std::f64::consts::PI;

/// How (and whether) the annulus is partitioned into slices — the
/// `CBS_SLICES` knob on [`SsConfig`](crate::SsConfig).
///
/// `SlicePolicy::single()` (the default) leaves the pipeline on the
/// monolithic two-circle contour, bitwise unchanged.  `sectors(S)` splits
/// the annulus into `S` equal angular sectors; `radial` additionally splits
/// every sector into log-spaced sub-annuli.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlicePolicy {
    /// Number of angular sector slices (`≥ 1`; `1` = no angular cut).
    pub angular: usize,
    /// Number of radial sub-annuli per sector (`≥ 1`; `1` = full radial
    /// span, which is what keeps the dual-solution pairing alive).
    pub radial: usize,
    /// Angular guard band (radians) by which a sector's integration contour
    /// overlaps its neighbours.  Claimed eigenvalues stay at least this far
    /// from the slice's own radial cuts.
    pub guard: f64,
    /// Relative (log-radius, as a fraction of the sub-annulus height)
    /// radial guard: every non-trivial slice pushes its circles/arcs this
    /// far beyond its claim radii — internal band boundaries overlap by
    /// it, and the extreme arcs stand off the annulus boundary so
    /// near-boundary eigenvalues stay strictly interior to the
    /// non-separable slice quadrature.  (The trivial single slice keeps
    /// the exact ring radii.)
    pub radial_guard: f64,
    /// Gauss-Legendre node count per arc (`None` defaults to the base
    /// configuration's `N_int`: every slice resolves its arcs as finely as
    /// the monolithic circles — slicing buys a smaller per-slice
    /// *extraction subspace* and a wider independent-solve pool, not fewer
    /// nodes per arc; shrink this explicitly to trade accuracy for
    /// solves).
    pub arc_nodes: Option<usize>,
    /// Gauss-Legendre node count per radial cut *half* (each primal node
    /// `t > 0` pairs with its mirrored dual at `-t`).
    pub radial_nodes: usize,
    /// Per-slice moment count override (`None` keeps the base `N_mm`).
    pub slice_n_mm: Option<usize>,
    /// Per-slice right-hand-side count override (`None` derives
    /// `max(2, ceil(2 N_rh / S))`, capped one below the monolithic `N_rh`
    /// so the per-slice subspace is strictly smaller).
    pub slice_n_rh: Option<usize>,
    /// Relative tolerance under which two eigenvalues from different slices
    /// are considered the same state during the merge dedup.
    pub merge_tol: f64,
}

impl Default for SlicePolicy {
    fn default() -> Self {
        Self::single()
    }
}

impl SlicePolicy {
    /// The trivial partition: one slice covering the whole annulus — the
    /// monolithic pipeline, bitwise unchanged.
    pub fn single() -> Self {
        Self {
            angular: 1,
            radial: 1,
            guard: 0.20,
            radial_guard: 0.08,
            arc_nodes: None,
            radial_nodes: 16,
            slice_n_mm: None,
            slice_n_rh: None,
            merge_tol: 1e-8,
        }
    }

    /// `s` equal angular sector slices over the full radial span.
    pub fn sectors(s: usize) -> Self {
        Self { angular: s.max(1), ..Self::single() }
    }

    /// Total number of slices.
    pub fn slice_count(&self) -> usize {
        self.angular.max(1) * self.radial.max(1)
    }

    /// `true` for the trivial (monolithic) partition.
    pub fn is_single(&self) -> bool {
        self.slice_count() == 1
    }

    /// Read the policy from an environment variable (through
    /// [`cbs_trace::knob()`], like every `CBS_*` knob): `"S"`
    /// selects `sectors(S)`, `"AxR"` selects `A` angular times `R` radial
    /// slices; anything else — including unset — is the default single
    /// contour.
    pub fn from_env(var: &str) -> Self {
        cbs_trace::knob(var).unwrap_or_else(Self::single)
    }

    /// Strictly parse a policy name (the `from_env` value syntax: `"S"`,
    /// `"AxR"`, or `"single"`); `None` for unrecognized names.
    pub fn try_from_name(name: &str) -> Option<Self> {
        let name = name.trim().to_ascii_lowercase();
        if name == "single" {
            return Some(Self::single());
        }
        if let Some((a, r)) = name.split_once('x') {
            return match (a.parse::<usize>(), r.parse::<usize>()) {
                (Ok(a), Ok(r)) if a >= 1 && r >= 1 => {
                    Some(Self { angular: a, radial: r, ..Self::single() })
                }
                _ => None,
            };
        }
        match name.parse::<usize>() {
            Ok(s) if s >= 1 => Some(Self::sectors(s)),
            _ => None,
        }
    }

    /// Parse a policy name (the `from_env` value syntax); unrecognized
    /// names fall back to the single contour.
    pub fn from_name(name: &str) -> Self {
        Self::try_from_name(name).unwrap_or_else(Self::single)
    }

    /// Short name for reports (`"single"`, `"4"`, `"4x2"`).
    pub fn name(&self) -> String {
        match (self.is_single(), self.radial.max(1)) {
            (true, _) => "single".to_string(),
            (false, 1) => format!("{}", self.angular),
            (false, r) => format!("{}x{}", self.angular.max(1), r),
        }
    }

    /// Validate the field combination.
    pub fn validate(&self) -> Result<(), ContourError> {
        let bad =
            |reason: &str| Err(ContourError::InvalidSlicePolicy { reason: reason.to_string() });
        if self.angular == 0 || self.radial == 0 {
            return bad("angular and radial slice counts must be at least 1");
        }
        if !self.guard.is_finite() || self.guard < 0.0 {
            return bad("the angular guard must be finite and non-negative");
        }
        if self.angular > 1 && self.guard >= 0.5 * (TAU - TAU / self.angular as f64) {
            return bad("the angular guard may not reach around to the slice's far cut");
        }
        if !self.radial_guard.is_finite() || self.radial_guard < 0.0 || self.radial_guard >= 0.5 {
            return bad("the radial guard must lie in [0, 0.5)");
        }
        if self.angular > 1 && self.radial_nodes < 2 {
            return bad("sector slices need at least 2 Gauss-Legendre nodes per cut half");
        }
        if let Some(a) = self.arc_nodes {
            if a < 2 {
                return bad("arc_nodes must be at least 2");
            }
        }
        if self.slice_n_mm == Some(0) || self.slice_n_rh == Some(0) {
            return bad("per-slice N_mm / N_rh overrides must be at least 1");
        }
        if !(self.merge_tol.is_finite() && self.merge_tol > 0.0) {
            return bad("merge_tol must be finite and positive");
        }
        Ok(())
    }
}

impl cbs_trace::Knob for SlicePolicy {
    fn parse_knob(value: &str) -> Option<Self> {
        Self::try_from_name(value)
    }
}

/// One quadrature node of a slice: the primal shift `z` that is actually
/// solved, its weight, and the paired dual node `1/z̄` (served by the dual
/// BiCG solution) with its own weight — [`Complex64::ZERO`] when the dual
/// solution does not lie on this slice's contour.
#[derive(Clone, Copy, Debug)]
pub struct SliceNode {
    /// The primal shift (the linear system solved).
    pub z: Complex64,
    /// Quadrature weight of the primal node.
    pub weight: Complex64,
    /// The paired dual node `1/z̄` — where the dual solution solves.
    pub dual_z: Complex64,
    /// Quadrature weight of the dual node (zero when unused).
    pub dual_weight: Complex64,
}

/// The claim cell + integration region of one slice, as plain copyable
/// data (what the extraction membership tests and the merge dedup need,
/// without dragging the node vector along).
#[derive(Clone, Copy, Debug)]
pub struct SliceRegion {
    /// Lower claim angle (inclusive).  Sector boundaries carry a
    /// quarter-step rotation `θ = 2π (a + 1/4)/A`, so the last sector wraps
    /// past `2π`; membership tests are modular.
    pub theta_lo: f64,
    /// Upper claim angle (exclusive; may exceed `2π` on the wrapping
    /// sector).
    pub theta_hi: f64,
    /// This slice's angular index and the partition's sector count —
    /// ownership is decided by computing `λ`'s sector index directly
    /// (one floor), so every angle maps to exactly one sector even at the
    /// floating-point boundary.
    pub a_index: usize,
    /// Total number of angular sectors.
    pub a_count: usize,
    /// Claim radii `[r_lo, r_hi)`.
    pub r_lo: f64,
    /// Upper claim radius (exclusive).
    pub r_hi: f64,
    /// Angular guard actually applied to the integration contour.
    pub guard: f64,
    /// Inner radius of the integration contour.
    pub int_r_lo: f64,
    /// Outer radius of the integration contour.
    pub int_r_hi: f64,
    /// `true` when the integration contour closes over the full circle
    /// (no radial cuts — the angular membership test is vacuous).
    pub full_circle: bool,
}

/// Canonicalize an angle to `[0, 2π)`.
fn canonical_angle(theta: f64) -> f64 {
    let mut t = theta % TAU;
    if t < 0.0 {
        t += TAU;
    }
    t
}

impl SliceRegion {
    /// The index of the sector whose claim cell contains the angle of
    /// `λ`, under the quarter-step-rotated grid — a single floor, so the
    /// map angle → sector is total and single-valued by construction
    /// (exactly-one-claimant even for angles that land on a boundary
    /// float after `atan2` rounding).
    pub fn sector_index_of(a_count: usize, lambda: Complex64) -> usize {
        let t = canonical_angle(lambda.arg());
        let x = (a_count as f64) * t / TAU - 0.25;
        let idx = x.floor() as isize;
        idx.rem_euclid(a_count as isize) as usize
    }

    /// `true` if this slice *claims* `λ`: the half-open cell membership
    /// test that makes slice ownership a partition of the annulus.
    pub fn claims(&self, lambda: Complex64) -> bool {
        let r = lambda.abs();
        if !(r >= self.r_lo && r < self.r_hi) {
            return false;
        }
        if self.full_circle {
            return true;
        }
        Self::sector_index_of(self.a_count, lambda) == self.a_index
    }

    /// `true` if `λ` lies strictly inside the slice's integration contour
    /// (with an optional relative radial margin, mirroring
    /// [`RingContour::contains`] — for the whole-annulus slice this is the
    /// same floating-point computation).
    pub fn contains_integration(&self, lambda: Complex64, margin: f64) -> bool {
        let r = lambda.abs();
        if !(r > self.int_r_lo * (1.0 + margin) && r < self.int_r_hi * (1.0 - margin)) {
            return false;
        }
        if self.full_circle {
            return true;
        }
        // Angular membership in [θ_lo - guard, θ_hi + guard]: measure the
        // offset from the lower integration edge, canonically.
        let span = (self.theta_hi + self.guard) - (self.theta_lo - self.guard);
        let offset = canonical_angle(lambda.arg() - (self.theta_lo - self.guard));
        offset <= span
    }
}

/// One slice of a [`ContourPartition`]: a first-class closed contour with
/// its claim cell and quadrature node set.
#[derive(Clone, Debug)]
pub struct ContourSlice {
    /// Position of this slice in the partition (`angular-major`:
    /// `index = a * radial + r`).
    pub index: usize,
    region: SliceRegion,
    nodes: Vec<SliceNode>,
    mirrored: bool,
}

impl ContourSlice {
    /// The claim cell / integration region descriptor.
    pub fn region(&self) -> SliceRegion {
        self.region
    }

    /// The quadrature nodes (primal + paired dual).
    pub fn nodes(&self) -> &[SliceNode] {
        &self.nodes
    }

    /// Number of primal nodes — the number of shifted systems solved for
    /// this slice (per right-hand side).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when [`nodes`](Self::nodes) holds only the `Im z > 0` half of
    /// a conjugate-symmetric ring: each node also stands for its mirror
    /// image `(z̄, ω̄)`, whose solutions are the conjugates of the node's
    /// own and are folded in by the extraction, never solved (see the
    /// module docs).
    pub fn is_mirrored(&self) -> bool {
        self.mirrored
    }

    /// How many leading nodes form the first, uncapped stage of the
    /// majority-stop rule: strictly more than half of the slice's contour
    /// nodes, `n/2 + 1` of a full list.  The full ring's first stage is its
    /// upper half plus one node, and every node after it is the mirror of
    /// one already solved — so on a mirrored ring the first stage is the
    /// whole list and there is nothing left to cap.
    pub fn majority_stage_nodes(&self) -> usize {
        let n = self.nodes.len();
        if self.mirrored {
            n
        } else {
            (n / 2 + 1).min(n)
        }
    }

    /// `true` if this slice claims `λ` (see [`SliceRegion::claims`]).
    pub fn claims(&self, lambda: Complex64) -> bool {
        self.region.claims(lambda)
    }

    /// Numerically evaluate the slice filter
    /// `f_k(λ) = (1/2πi) ∮ z^k/(z - λ) dz` over this slice's quadrature —
    /// ≈ `λ^k` inside the integration region, ≈ 0 outside (the slice twin
    /// of [`RingContour::filter_value`]).
    pub fn filter_value(&self, k: usize, lambda: Complex64) -> Complex64 {
        let term = |w: Complex64, z: Complex64| w * z.powi(k as i32) / (z - lambda);
        let mut acc = Complex64::ZERO;
        for n in &self.nodes {
            acc += term(n.weight, n.z);
            if n.dual_weight != Complex64::ZERO {
                acc += term(n.dual_weight, n.dual_z);
            }
            if self.mirrored {
                acc += term(n.weight.conj(), n.z.conj());
                acc += term(n.dual_weight.conj(), n.dual_z.conj());
            }
        }
        acc
    }
}

/// The annulus split into slices (see the module docs).
#[derive(Clone, Debug)]
pub struct ContourPartition {
    contour: RingContour,
    policy: SlicePolicy,
    slices: Vec<ContourSlice>,
}

impl ContourPartition {
    /// Build the partition of `contour` described by `policy` with every
    /// slice's full node list, panicking on invalid parameters
    /// ([`try_new`](Self::try_new) is the non-panicking form).
    pub fn new(contour: RingContour, policy: SlicePolicy) -> Self {
        match Self::try_new(contour, policy, false) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build the partition, validating the policy, for a problem that is
    /// (or is not) conjugate-symmetric
    /// (`QepProblem::is_conjugate_symmetric`).  When it is **and** the
    /// policy is the single ring, the one slice holds only its `Im z > 0`
    /// nodes and is flagged [`mirrored`](ContourSlice::is_mirrored); in
    /// every other case every slice carries its full node list.
    pub fn try_new(
        contour: RingContour,
        policy: SlicePolicy,
        conjugate_symmetric: bool,
    ) -> Result<Self, ContourError> {
        // Re-validate the contour itself so a partition can never exist
        // around NaN radii.
        let contour = RingContour::try_new(contour.lambda_min, contour.n_int)?;
        policy.validate()?;
        let a_cnt = policy.angular.max(1);
        let r_cnt = policy.radial.max(1);

        // Radial claim boundaries, log-spaced, with the extreme radii
        // pinned exactly to the annulus radii so claim tiling is exact.
        // Internal boundaries carry a quarter-band shift (`ln r =
        // 2T (r - 1/4)/R - T`, never 0 for integer `r`): the unit circle —
        // where *every* propagating state sits exactly — must never be a
        // claim boundary, for the same reason the angular cuts avoid the
        // real axis.
        let t_max = -contour.lambda_min.ln(); // ln(1/λ_min)
        let mut radii = Vec::with_capacity(r_cnt + 1);
        radii.push(contour.inner_radius());
        for r in 1..r_cnt {
            radii.push((-t_max + 2.0 * t_max * (r as f64 - 0.25) / r_cnt as f64).exp());
        }
        radii.push(contour.outer_radius());
        // Internal radial guard in log units (fraction of a band height).
        let band_height = 2.0 * t_max / r_cnt as f64;
        let rg = policy.radial_guard * band_height;

        // Default arc resolution.  Sector arcs (full radial span) match the
        // monolithic circles' `N_int`.  Radially split bands need more: a
        // band's circles sit `R`x closer (in log radius) to the band
        // interior than the annulus circles do, and the trapezoid/GL filter
        // decays like exp(-n * distance) — so the per-circle node count
        // scales with the band count to keep the filter quality of the
        // monolithic contour.
        let arc_nodes = policy.arc_nodes.unwrap_or(contour.n_int);
        let band_arc_nodes = policy.arc_nodes.unwrap_or(contour.n_int * r_cnt);

        let mut slices = Vec::with_capacity(a_cnt * r_cnt);
        for a in 0..a_cnt {
            // Quarter-step rotation: sector boundaries sit at
            // `θ = 2π (a + 1/4)/A`, which never coincides with the real
            // axis (`θ = 0` needs `a = -1/4`, `θ = π` needs `a = A/2 - 1/4`
            // — neither is an integer for any `A`).  Conjugation-symmetric
            // spectra (real Hamiltonian blocks) put eigenvalues exactly on
            // the real axis, and a radial cut through an eigenvalue is the
            // one place the claim test could flip under extraction noise —
            // the same reason the trapezoid nodes carry the half-step
            // offset `θ_j = 2π (j + 1/2)/N` (see `contour.rs`).
            let theta_lo = TAU * (a as f64 + 0.25) / a_cnt as f64;
            let theta_hi = TAU * (a as f64 + 1.25) / a_cnt as f64;
            for r in 0..r_cnt {
                let index = a * r_cnt + r;
                let r_lo = radii[r];
                let r_hi = radii[r + 1];
                // Radial guard on every non-trivial slice boundary — the
                // internal band cuts *and* the extreme circles.  Sector
                // arcs are Gauss-Legendre (not the separable full-circle
                // trapezoid), so eigenvalues hugging a circle would lose
                // accuracy without the stand-off; pushing the arcs to
                // `λ_min e^{-g_r}` / `λ_min^{-1} e^{+g_r}` keeps every
                // claimed λ strictly interior, and the claim ∧ annulus
                // test still confines the merged set to the physical
                // annulus.  (The trivial single slice keeps the exact ring
                // radii — bitwise compatibility.)
                let trivial = a_cnt == 1 && r_cnt == 1;
                let int_r_lo = if trivial { r_lo } else { (r_lo.ln() - rg).exp() };
                let int_r_hi = if trivial { r_hi } else { (r_hi.ln() + rg).exp() };
                let full_circle = a_cnt == 1;
                let guard = if full_circle { 0.0 } else { policy.guard };
                let region = SliceRegion {
                    theta_lo,
                    theta_hi,
                    a_index: a,
                    a_count: a_cnt,
                    r_lo,
                    r_hi,
                    guard,
                    int_r_lo,
                    int_r_hi,
                    full_circle,
                };
                let mirrored = conjugate_symmetric && trivial;
                let nodes = build_nodes(
                    &contour,
                    &region,
                    a_cnt,
                    r_cnt,
                    if r_cnt == 1 { arc_nodes } else { band_arc_nodes },
                    policy.radial_nodes,
                    mirrored,
                );
                slices.push(ContourSlice { index, region, nodes, mirrored });
            }
        }
        Ok(Self { contour, policy, slices })
    }

    /// The underlying annulus contour.
    pub fn contour(&self) -> RingContour {
        self.contour
    }

    /// The policy this partition was built from.
    pub fn policy(&self) -> SlicePolicy {
        self.policy
    }

    /// The slices, in `angular-major` order.
    pub fn slices(&self) -> &[ContourSlice] {
        &self.slices
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// A partition is never empty (clippy convention companion to
    /// [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// `true` for the trivial single-slice partition.
    pub fn is_single(&self) -> bool {
        self.slices.len() == 1
    }

    /// The slice claiming `λ`, if any (`None` outside every claim cell).
    pub fn claimant(&self, lambda: Complex64) -> Option<usize> {
        self.slices.iter().position(|s| s.claims(lambda))
    }

    /// Total number of primal shifted solves per right-hand side, summed
    /// over the slices.
    pub fn total_nodes(&self) -> usize {
        self.slices.iter().map(ContourSlice::n_nodes).sum()
    }
}

/// Build the node set of one slice.  Four shapes:
///
/// 1. whole annulus (`A = R = 1`): the classic two-circle trapezoid,
///    bit-identical to `RingContour::outer_points` + `paired_inner` —
///    truncated to its upper half-plane nodes when `mirrored` (the only
///    shape that flag applies to);
/// 2. full-circle sub-annulus (`A = 1, R > 1`): trapezoid on both circles,
///    all nodes primal (the band is not inversion-symmetric);
/// 3. sector over the full radial span (`A > 1, R = 1`): Gauss-Legendre
///    arcs + mirrored Gauss-Legendre cut halves, dual-paired;
/// 4. sector-of-band (`A > 1, R > 1`): Gauss-Legendre on all four pieces,
///    all nodes primal.
fn build_nodes(
    contour: &RingContour,
    region: &SliceRegion,
    a_cnt: usize,
    r_cnt: usize,
    arc_nodes: usize,
    radial_nodes: usize,
    mirrored: bool,
) -> Vec<SliceNode> {
    let mut nodes = Vec::new();
    if a_cnt == 1 && r_cnt == 1 {
        // Case 1 — keep the exact floating-point formulas of contour.rs so
        // the single-slice path is bitwise the monolithic ring.  The
        // mirrored ring stops after the upper half-plane (`θ_j < π`, plus
        // the self-conjugate `θ = π` node of an odd `N`, which enters with
        // half weights because the extraction's `Ŝ + conj Ŝ` counts every
        // listed node twice).
        let n_int = contour.n_int;
        let n_listed = if mirrored { n_int.div_ceil(2) } else { n_int };
        for j in 0..n_listed {
            let theta = TAU * (j as f64 + 0.5) / n_int as f64;
            let z = Complex64::polar(contour.outer_radius(), theta);
            let dual_z = Complex64::ONE / z.conj();
            let share = if mirrored && 2 * j + 1 == n_int { 0.5 } else { 1.0 };
            nodes.push(SliceNode {
                z,
                weight: (z / n_int as f64).scale(share),
                dual_z,
                dual_weight: -(dual_z / n_int as f64).scale(share),
            });
        }
        return nodes;
    }

    if a_cnt == 1 {
        // Case 2 — two full trapezoid circles per band; the dual solutions
        // land on other bands' circles, so every node is primal-only.
        for (radius, sign) in [(region.int_r_hi, 1.0), (region.int_r_lo, -1.0)] {
            for j in 0..arc_nodes {
                let theta = TAU * (j as f64 + 0.5) / arc_nodes as f64;
                let z = Complex64::polar(radius, theta);
                nodes.push(SliceNode {
                    z,
                    weight: (z / arc_nodes as f64).scale(sign),
                    dual_z: Complex64::ONE / z.conj(),
                    dual_weight: Complex64::ZERO,
                });
            }
        }
        return nodes;
    }

    // Sector cases: Gauss-Legendre arcs over [θ_lo - g, θ_hi + g].
    let th_a = region.theta_lo - region.guard;
    let th_b = region.theta_hi + region.guard;
    let (gl_x, gl_w) = gauss_legendre(arc_nodes);
    let th_mid = 0.5 * (th_a + th_b);
    let th_half = 0.5 * (th_b - th_a);
    // (1/2πi) ∮_arc g dz = (1/2π) ∫ g(z) z dθ  (dz = i z dθ).
    let paired = r_cnt == 1;
    for (x, w) in gl_x.iter().zip(&gl_w) {
        let theta = th_mid + th_half * x;
        let scale = w * th_half / TAU;
        // Outer arc, counter-clockwise (+).
        let z = Complex64::polar(region.int_r_hi, theta);
        let dual_z = Complex64::ONE / z.conj();
        if paired {
            // The dual node sits exactly on the inner arc at the same θ
            // (|1/z̄| = λ_min when |z| = 1/λ_min), traversed clockwise (-).
            nodes.push(SliceNode {
                z,
                weight: z.scale(scale),
                dual_z,
                dual_weight: dual_z.scale(-scale),
            });
        } else {
            nodes.push(SliceNode {
                z,
                weight: z.scale(scale),
                dual_z,
                dual_weight: Complex64::ZERO,
            });
            // Inner arc as its own primal node set, clockwise (-).
            let zi = Complex64::polar(region.int_r_lo, theta);
            nodes.push(SliceNode {
                z: zi,
                weight: zi.scale(-scale),
                dual_z: Complex64::ONE / zi.conj(),
                dual_weight: Complex64::ZERO,
            });
        }
    }

    // Radial cut segments at the two guard-extended angles, parametrized by
    // t = ln r:  (1/2πi) ∫_seg g dz = (1/2πi) ∫ g(z) z dt  (dz = z dt).
    // Orientation around the sector: ascending (inner → outer) at θ_a,
    // descending at θ_b.
    let inv_two_pi_i = Complex64::new(0.0, -1.0 / TAU); // 1/(2πi)
    let t_lo = region.int_r_lo.ln();
    let t_hi = region.int_r_hi.ln();
    if paired {
        // Mirrored Gauss-Legendre halves over [0, t_hi] (t_lo = -t_hi):
        // each primal node t > 0 pairs with the dual at -t = ln(1/r).
        let (hx, hw) = gauss_legendre(radial_nodes);
        let h_mid = 0.5 * t_hi;
        let h_half = 0.5 * t_hi;
        for (theta, sign) in [(th_a, 1.0), (th_b, -1.0)] {
            for (x, w) in hx.iter().zip(&hw) {
                let t = h_mid + h_half * x;
                let z = Complex64::polar(t.exp(), theta);
                let dual_z = Complex64::ONE / z.conj();
                let coeff = inv_two_pi_i.scale(sign * w * h_half);
                nodes.push(SliceNode { z, weight: coeff * z, dual_z, dual_weight: coeff * dual_z });
            }
        }
    } else {
        let n_seg = 2 * radial_nodes;
        let (sx, sw) = gauss_legendre(n_seg);
        let s_mid = 0.5 * (t_lo + t_hi);
        let s_half = 0.5 * (t_hi - t_lo);
        for (theta, sign) in [(th_a, 1.0), (th_b, -1.0)] {
            for (x, w) in sx.iter().zip(&sw) {
                let t = s_mid + s_half * x;
                let z = Complex64::polar(t.exp(), theta);
                let coeff = inv_two_pi_i.scale(sign * w * s_half);
                nodes.push(SliceNode {
                    z,
                    weight: coeff * z,
                    dual_z: Complex64::ONE / z.conj(),
                    dual_weight: Complex64::ZERO,
                });
            }
        }
    }
    nodes
}

/// Gauss-Legendre nodes (ascending, in `(-1, 1)`) and weights on `[-1, 1]`,
/// by Newton iteration on the Legendre recurrence — deterministic, accurate
/// to machine precision for the node counts used here.
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1, "need at least one Gauss-Legendre node");
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Initial guess (Abramowitz & Stegun 25.4.30 asymptotics).
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut pp = 0.0;
        for _ in 0..100 {
            // Legendre P_n(x) and derivative by the three-term recurrence.
            let mut p0 = 1.0;
            let mut p1 = x;
            for k in 2..=n {
                let kf = k as f64;
                let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
                p0 = p1;
                p1 = p2;
            }
            // P'_n(x) = n (x P_n - P_{n-1}) / (x² - 1).
            pp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
            let dx = p1 / pp;
            x -= dx;
            if dx.abs() <= 1e-15 * (1.0 + x.abs()) {
                break;
            }
        }
        let w = 2.0 / ((1.0 - x * x) * pp * pp);
        // Roots come out descending from the cos guess; store ascending.
        nodes[i] = -x;
        nodes[n - 1 - i] = x;
        weights[i] = w;
        weights[n - 1 - i] = w;
    }
    if n == 1 {
        nodes[0] = 0.0;
        weights[0] = 2.0;
    } else if n % 2 == 1 {
        nodes[n / 2] = 0.0;
    }
    (nodes, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauss_legendre_integrates_polynomials_exactly() {
        for n in [1usize, 2, 3, 5, 8, 16, 32] {
            let (x, w) = gauss_legendre(n);
            assert_eq!(x.len(), n);
            // Weights sum to the interval length.
            let sum: f64 = w.iter().sum();
            assert!((sum - 2.0).abs() < 1e-13, "n = {n}: Σw = {sum}");
            // Nodes ascending, interior.
            for p in x.windows(2) {
                assert!(p[0] < p[1]);
            }
            assert!(x[0] > -1.0 && x[n - 1] < 1.0);
            // Exact for degree 2n-1: check ∫ x^2 = 2/3 (n ≥ 2) and
            // ∫ x^(2n-2) = 2/(2n-1).
            if n >= 2 {
                let i2: f64 = x.iter().zip(&w).map(|(x, w)| w * x * x).sum();
                assert!((i2 - 2.0 / 3.0).abs() < 1e-13, "n = {n}: ∫x² = {i2}");
                let d = 2 * n - 2;
                let id: f64 = x.iter().zip(&w).map(|(x, w)| w * x.powi(d as i32)).sum();
                let want = 2.0 / (d as f64 + 1.0);
                assert!((id - want).abs() < 1e-12, "n = {n}: ∫x^{d} = {id} want {want}");
            }
        }
    }

    #[test]
    fn single_slice_reproduces_the_ring_nodes_bitwise() {
        let contour = RingContour::new(0.5, 16);
        let p = ContourPartition::new(contour, SlicePolicy::single());
        assert!(p.is_single());
        let slice = &p.slices()[0];
        let outer = contour.outer_points();
        assert_eq!(slice.n_nodes(), outer.len());
        for (n, o) in slice.nodes().iter().zip(&outer) {
            let paired = contour.paired_inner(o);
            assert_eq!(n.z.re.to_bits(), o.z.re.to_bits());
            assert_eq!(n.z.im.to_bits(), o.z.im.to_bits());
            assert_eq!(n.weight.re.to_bits(), o.weight.re.to_bits());
            assert_eq!(n.weight.im.to_bits(), o.weight.im.to_bits());
            assert_eq!(n.dual_z.re.to_bits(), paired.z.re.to_bits());
            assert_eq!(n.dual_z.im.to_bits(), paired.z.im.to_bits());
            assert_eq!(n.dual_weight.re.to_bits(), paired.weight.re.to_bits());
            assert_eq!(n.dual_weight.im.to_bits(), paired.weight.im.to_bits());
        }
    }

    #[test]
    fn mirrored_ring_is_the_upper_half_of_the_full_ring_bitwise() {
        for n_int in [2usize, 7, 8, 12, 13] {
            let contour = RingContour::new(0.5, n_int);
            let full = ContourPartition::new(contour, SlicePolicy::single());
            let half = ContourPartition::try_new(contour, SlicePolicy::single(), true)
                .expect("valid contour");
            let (full, half) = (&full.slices()[0], &half.slices()[0]);
            assert!(half.is_mirrored() && !full.is_mirrored());
            assert_eq!(half.n_nodes(), n_int.div_ceil(2));
            for (j, (h, f)) in half.nodes().iter().zip(full.nodes()).enumerate() {
                // Same shifts, bit for bit: the solved systems are exactly
                // the full ring's upper half-plane ones.
                assert_eq!(h.z.re.to_bits(), f.z.re.to_bits());
                assert_eq!(h.z.im.to_bits(), f.z.im.to_bits());
                assert_eq!(h.dual_z.re.to_bits(), f.dual_z.re.to_bits());
                assert_eq!(h.dual_z.im.to_bits(), f.dual_z.im.to_bits());
                // Same weights, except the self-conjugate θ = π node of an
                // odd ring (real up to the rounding of `sin π`), which the
                // closing sum would otherwise count twice.
                let self_conjugate = 2 * j + 1 == n_int;
                if self_conjugate {
                    assert!(h.z.im.abs() < 1e-15 * h.z.abs());
                } else {
                    assert!(h.z.im > 0.0, "n_int = {n_int}: node {j} is below the real axis");
                }
                let share = if self_conjugate { 0.5 } else { 1.0 };
                assert_eq!(h.weight, f.weight.scale(share));
                assert_eq!(h.dual_weight, f.dual_weight.scale(share));
                // The node it stands for is the full ring's mirror node.
                let mirror = &full.nodes()[n_int - 1 - j];
                assert!((mirror.z - f.z.conj()).abs() < 1e-13);
                assert!((mirror.weight - f.weight.conj()).abs() < 1e-13);
            }
            // The two quadratures are the same filter.
            for lambda in [Complex64::polar(1.1, 0.7), Complex64::new(-0.8, 0.0)] {
                for k in 0..4 {
                    let (a, b) = (half.filter_value(k, lambda), full.filter_value(k, lambda));
                    assert!((a - b).abs() < 1e-13 * (1.0 + b.abs()), "n_int {n_int} k {k}");
                }
            }
        }
    }

    #[test]
    fn only_the_single_ring_of_a_symmetric_problem_is_mirrored() {
        let contour = RingContour::new(0.5, 16);
        for policy in [
            SlicePolicy::sectors(2),
            SlicePolicy::sectors(4),
            SlicePolicy { angular: 1, radial: 2, ..SlicePolicy::single() },
        ] {
            let plain = ContourPartition::new(contour, policy);
            let symmetric = ContourPartition::try_new(contour, policy, true).expect("valid policy");
            assert_eq!(plain.total_nodes(), symmetric.total_nodes());
            assert!(symmetric.slices().iter().all(|s| !s.is_mirrored()));
        }
        let single = ContourPartition::new(contour, SlicePolicy::single());
        assert!(!single.slices()[0].is_mirrored());
        assert_eq!(single.total_nodes(), 16);
    }

    #[test]
    fn sector_slices_tile_the_annulus() {
        let contour = RingContour::new(0.5, 32);
        for policy in [
            SlicePolicy::sectors(2),
            SlicePolicy::sectors(4),
            SlicePolicy { angular: 3, radial: 2, ..SlicePolicy::single() },
            SlicePolicy { angular: 1, radial: 3, ..SlicePolicy::single() },
        ] {
            let p = ContourPartition::new(contour, policy);
            assert_eq!(p.len(), policy.slice_count());
            // A grid of in-annulus samples: claimed by exactly one slice,
            // and that slice's integration region contains the point.
            for ir in 0..12 {
                let r = 0.52 + (1.95 - 0.52) * ir as f64 / 11.0;
                for ia in 0..24 {
                    let th = TAU * (ia as f64 + 0.37) / 24.0;
                    let lambda = Complex64::polar(r, th);
                    let claimants: Vec<usize> =
                        (0..p.len()).filter(|&s| p.slices()[s].claims(lambda)).collect();
                    assert_eq!(
                        claimants.len(),
                        1,
                        "λ = {lambda:?} claimed by {claimants:?} under {policy:?}"
                    );
                    let s = &p.slices()[claimants[0]];
                    assert!(
                        s.region().contains_integration(lambda, 0.0),
                        "claimed λ = {lambda:?} outside its slice's contour"
                    );
                }
            }
        }
    }

    #[test]
    fn sector_filter_passes_claimed_lambdas_and_blocks_far_ones() {
        let contour = RingContour::new(0.5, 32);
        let p = ContourPartition::new(
            contour,
            SlicePolicy { arc_nodes: Some(24), radial_nodes: 12, ..SlicePolicy::sectors(4) },
        );
        // λ well inside slice 0's claim sector (θ ∈ [0, π/2)).
        let inside = Complex64::polar(1.1, 0.7);
        let s0 = &p.slices()[0];
        for k in 0..4usize {
            let got = s0.filter_value(k, inside);
            let want = inside.powi(k as i32);
            assert!(
                (got - want).abs() < 1e-8 * (1.0 + want.abs()),
                "k = {k}: got {got:?}, want {want:?}"
            );
        }
        // λ in the opposite sector: filtered out.
        let far = Complex64::polar(1.1, 0.7 + std::f64::consts::PI);
        for k in 0..4usize {
            assert!(s0.filter_value(k, far).abs() < 1e-8, "far λ leaked through the filter");
        }
        // Dual pairing: every sector node's dual is exactly 1/z̄.
        for n in s0.nodes() {
            let want = Complex64::ONE / n.z.conj();
            assert!((n.dual_z - want).abs() == 0.0);
            assert!(n.dual_weight != Complex64::ZERO, "full-span sector nodes must pair");
        }
    }

    #[test]
    fn radial_band_filter_is_accurate_on_full_circles() {
        let contour = RingContour::new(0.5, 32);
        // Band circles sit much closer to the band interior than the full
        // annulus circles do (the trapezoid filter decays like ratio^N); the
        // default per-circle node count therefore scales with the band
        // count (N_int * R = 64 here), which this test exercises.
        let p = ContourPartition::new(
            contour,
            SlicePolicy { angular: 1, radial: 2, ..SlicePolicy::single() },
        );
        assert_eq!(p.slices()[0].n_nodes(), 2 * 64, "band default = N_int * R per circle");
        assert_eq!(p.len(), 2);
        // Band 0 claims λ_min ≤ |λ| < 1, band 1 claims 1 ≤ |λ| < 1/λ_min.
        let low = Complex64::polar(0.7, 1.0);
        let high = Complex64::polar(1.4, 1.0);
        assert!(p.slices()[0].claims(low) && !p.slices()[0].claims(high));
        assert!(p.slices()[1].claims(high) && !p.slices()[1].claims(low));
        for k in 0..4usize {
            let got = p.slices()[0].filter_value(k, low);
            let want = low.powi(k as i32);
            assert!((got - want).abs() < 1e-6 * (1.0 + want.abs()), "k={k} got {got:?}");
            assert!(p.slices()[0].filter_value(k, high).abs() < 1e-4);
        }
    }

    #[test]
    fn policy_env_parsing_and_validation() {
        assert!(SlicePolicy::from_env("CBS_SLICES_TEST_UNSET_VAR").is_single());
        assert_eq!(SlicePolicy::from_name("4").angular, 4);
        assert_eq!(SlicePolicy::from_name(" 8 ").angular, 8);
        let ar = SlicePolicy::from_name("4x2");
        assert_eq!((ar.angular, ar.radial), (4, 2));
        assert!(SlicePolicy::from_name("0").is_single());
        assert!(SlicePolicy::from_name("nonsense").is_single());
        assert!(SlicePolicy::from_name("4x0").is_single());
        assert_eq!(SlicePolicy::single().name(), "single");
        assert_eq!(SlicePolicy::sectors(4).name(), "4");
        assert_eq!(SlicePolicy { angular: 4, radial: 2, ..SlicePolicy::single() }.name(), "4x2");

        // Validation rejects degenerate fields with the typed error.
        for bad in [
            SlicePolicy { angular: 0, ..SlicePolicy::single() },
            SlicePolicy { radial: 0, ..SlicePolicy::single() },
            SlicePolicy { guard: -0.1, ..SlicePolicy::sectors(4) },
            SlicePolicy { guard: f64::NAN, ..SlicePolicy::sectors(4) },
            SlicePolicy { radial_guard: 0.7, ..SlicePolicy::single() },
            SlicePolicy { radial_nodes: 1, ..SlicePolicy::sectors(2) },
            SlicePolicy { arc_nodes: Some(1), ..SlicePolicy::sectors(2) },
            SlicePolicy { slice_n_rh: Some(0), ..SlicePolicy::sectors(2) },
            SlicePolicy { merge_tol: 0.0, ..SlicePolicy::sectors(2) },
        ] {
            match ContourPartition::try_new(RingContour::new(0.5, 8), bad, false) {
                Err(ContourError::InvalidSlicePolicy { .. }) => {}
                other => panic!("policy {bad:?} accepted or misclassified: {other:?}"),
            }
        }
        // And an invalid contour surfaces as its own error class.
        let c = RingContour { lambda_min: 0.0, n_int: 8 };
        assert!(matches!(
            ContourPartition::try_new(c, SlicePolicy::single(), false),
            Err(ContourError::InvalidLambdaMin { .. })
        ));
    }

    #[test]
    fn claim_tiling_is_exact_at_the_cut_angles() {
        // Half-open claim sectors: a λ exactly on a cut angle belongs to
        // the sector whose lower edge it sits on — never to both.
        let p = ContourPartition::new(RingContour::new(0.5, 16), SlicePolicy::sectors(4));
        for a in 0..4 {
            let theta = TAU * (a as f64 + 0.25) / 4.0;
            let lambda = Complex64::polar(1.2, theta);
            let claimed: Vec<usize> = (0..4).filter(|&s| p.slices()[s].claims(lambda)).collect();
            assert_eq!(claimed.len(), 1, "cut angle {theta} claimed by {claimed:?}");
            assert_eq!(claimed[0], p.claimant(lambda).unwrap());
        }
    }

    #[test]
    fn sector_cuts_avoid_the_real_axis_for_every_slice_count() {
        // Conjugation-symmetric spectra put eigenvalues exactly on the real
        // axis; the quarter-step rotation must keep every cut away from
        // both θ = 0 and θ = π, for any slice count.
        for a_cnt in 1..=9usize {
            let p = ContourPartition::new(RingContour::new(0.5, 16), SlicePolicy::sectors(a_cnt));
            for s in p.slices() {
                let r = s.region();
                if r.full_circle {
                    continue;
                }
                for cut in [r.theta_lo, r.theta_hi] {
                    for axis in [0.0, std::f64::consts::PI, TAU] {
                        assert!(
                            (canonical_angle(cut) - axis).abs() > 0.05 / a_cnt as f64
                                || (canonical_angle(cut) - axis).abs() > TAU - 0.05,
                            "A = {a_cnt}: cut at {cut} touches the real axis"
                        );
                    }
                }
            }
            // And the real-axis points are each claimed exactly once.
            for lambda in [Complex64::real(1.3), Complex64::real(-1.3)] {
                let claimed = (0..p.len()).filter(|&s| p.slices()[s].claims(lambda)).count();
                assert_eq!(claimed, 1, "A = {a_cnt}: real λ claimed {claimed} times");
            }
        }
    }
}
