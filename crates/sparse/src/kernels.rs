//! Split-layout (planar) complex CSR kernels — the `KernelLayout`
//! experiment.
//!
//! A complex CSR matrix can store its entries two ways:
//!
//! * **Interleaved** — one `Vec<Complex64>` with `re, im` adjacent in
//!   memory.  This is the historical layout; every kernel that reads it
//!   reproduces the exact accumulation order of the original scalar loops,
//!   so results are **bitwise identical** to every previously shipped
//!   release.  It stays the default.
//! * **Split** — two parallel `f64` planes (`re[]`, `im[]`).  The complex
//!   multiply-accumulate then decomposes into four independent real FMA
//!   chains per entry (`f64::mul_add`), which the compiler can keep in
//!   vector registers without the shuffle traffic interleaved complex
//!   arithmetic needs.  Fused rounding makes the results differ from the
//!   interleaved kernels in the last bits — agreement is guaranteed to
//!   `≤ 1e-14` columnwise (relative to the column norm), **not** bitwise,
//!   which is why the layout is opt-in (`CBS_KERNEL_LAYOUT=split`).
//!
//! Both layouts share one traversal schedule (row-blocked outer loops around
//! 4/2/1-wide column-group SpMM tiles); the interleaved kernels live in
//! [`crate::csr`], the planar store and its kernels here.  The layout governs
//! *applies* only: under the ILU policies on a Hamiltonian the `RealStencil`
//! covers, the refill is factored, never applied, and the knob is inert.

use std::sync::OnceLock;

use cbs_linalg::{c64, Complex64};

/// Rows per cache block of the blocked SpMV/SpMM traversals.  One block's
/// index + value stream (≈ `ROW_BLOCK · nnz/row · 24 B` interleaved) fits
/// comfortably in L2 for the stencil-dominated operators of this crate, so
/// re-streaming it once per column group is served from cache.
pub(crate) const ROW_BLOCK: usize = 512;

/// Value layout of assembled-CSR *applies*; inert where the CSR is only refilled and factored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelLayout {
    /// Interleaved `Complex64` values — bitwise-compatible default.
    #[default]
    Interleaved,
    /// Planar `re[]` / `im[]` planes, built by an operator's first apply; FMA-chain kernels
    /// (`≤ 1e-14` columnwise agreement, not bitwise).  ILU(0) factors stay interleaved.
    Split,
}

impl KernelLayout {
    /// Parse a layout name: `interleaved` | `split`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "interleaved" | "default" => Some(Self::Interleaved),
            "split" | "planar" => Some(Self::Split),
            _ => None,
        }
    }

    /// Read the layout from the `CBS_KERNEL_LAYOUT` environment variable,
    /// falling back to the bitwise-compatible [`Interleaved`](Self::Interleaved)
    /// default when unset (an unrecognized value warns once and does the
    /// same, via [`cbs_trace::knob()`]).
    pub fn from_env() -> Self {
        cbs_trace::knob("CBS_KERNEL_LAYOUT").unwrap_or_default()
    }

    /// Canonical knob value of this layout.
    pub fn name(self) -> &'static str {
        match self {
            Self::Interleaved => "interleaved",
            Self::Split => "split",
        }
    }
}

impl cbs_trace::Knob for KernelLayout {
    fn parse_knob(value: &str) -> Option<Self> {
        Self::from_name(value)
    }
}

/// Planar storage of a CSR value array: two `f64` planes parallel to the
/// pattern's `col_idx`.
#[derive(Clone, Debug, Default)]
pub struct SplitValues {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitValues {
    /// Empty planes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Split an interleaved value array into planes.
    pub fn from_values(values: &[Complex64]) -> Self {
        let mut s = Self::new();
        s.refill(values);
        s
    }

    /// Refill the planes from an interleaved value array, reusing the
    /// existing allocations.
    pub fn refill(&mut self, values: &[Complex64]) {
        self.re.clear();
        self.im.clear();
        self.re.extend(values.iter().map(|v| v.re));
        self.im.extend(values.iter().map(|v| v.im));
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// The two planes `(re, im)`.
    pub fn planes(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Empty planes backed by recycled allocations from the thread-local
    /// scratch pool (refill before use).
    pub(crate) fn take() -> Self {
        Self { re: crate::scratch::take_f64_scratch(), im: crate::scratch::take_f64_scratch() }
    }

    /// Return the plane allocations to the thread-local scratch pool.
    pub(crate) fn recycle(self) {
        crate::scratch::recycle_f64_scratch(self.re);
        crate::scratch::recycle_f64_scratch(self.im);
    }
}

/// SIMD dispatch mode of the split-layout tile kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdMode {
    /// Explicit AVX2+FMA vector tiles (x86-64 with runtime support): the
    /// 4-wide and 2-wide column-group SpMM tiles run their FMA chains
    /// 4/2 lanes at a time.  Each lane executes the *same* fused chain as
    /// the scalar tile (`fmadd`/`fnmadd` per entry, one rounding each), so
    /// `Wide` is **bit-identical** to `Scalar` — the dispatch is a speed
    /// knob, never a results knob.
    Wide,
    /// Portable scalar `f64::mul_add` chains — the only mode on non-x86-64
    /// targets, on CPUs without AVX2/FMA, or when forced via
    /// `CBS_SIMD=scalar`.
    Scalar,
}

impl SimdMode {
    /// Canonical knob value.
    pub fn name(self) -> &'static str {
        match self {
            Self::Wide => "wide",
            Self::Scalar => "scalar",
        }
    }
}

impl cbs_trace::Knob for SimdMode {
    fn parse_knob(value: &str) -> Option<Self> {
        match value.trim().to_ascii_lowercase().as_str() {
            "scalar" | "portable" => Some(Self::Scalar),
            "wide" | "auto" | "avx2" => Some(Self::Wide),
            _ => None,
        }
    }
}

/// Runtime-detected SIMD mode, cached once per process.  `CBS_SIMD=scalar`
/// forces the portable chains (for debugging or perf A/B runs); `wide`,
/// unset, or a malformed value (warned once) auto-detects `avx2`+`fma` via
/// `is_x86_feature_detected!` with the scalar chains as the portable
/// fallback — `wide` is a detection *request*, never an unchecked override.
pub fn simd_mode() -> SimdMode {
    static MODE: OnceLock<SimdMode> = OnceLock::new();
    *MODE.get_or_init(|| {
        if cbs_trace::knob("CBS_SIMD") == Some(SimdMode::Scalar) {
            return SimdMode::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdMode::Wide;
            }
        }
        SimdMode::Scalar
    })
}

// Four real FMA chains accumulating `acc += v * x` with `v = (vr, vi)`:
//   re += vr·x.re − vi·x.im,   im += vr·x.im + vi·x.re
#[inline(always)]
fn fma_mul(vr: f64, vi: f64, x: Complex64, ar: &mut f64, ai: &mut f64) {
    *ar = vr.mul_add(x.re, *ar);
    *ar = (-vi).mul_add(x.im, *ar);
    *ai = vr.mul_add(x.im, *ai);
    *ai = vi.mul_add(x.re, *ai);
}

// `acc += conj(v) * x` with `conj(v) = (vr, −vi)`:
//   re += vr·x.re + vi·x.im,   im += vr·x.im − vi·x.re
#[inline(always)]
fn fma_mul_conj(vr: f64, vi: f64, x: Complex64, ar: &mut f64, ai: &mut f64) {
    *ar = vr.mul_add(x.re, *ar);
    *ar = vi.mul_add(x.im, *ar);
    *ai = vr.mul_add(x.im, *ai);
    *ai = (-vi).mul_add(x.re, *ai);
}

/// `y = A x` over a raw CSR pattern with planar values (serial kernel).
pub(crate) fn spmv_split_into(
    row_ptr: &[usize],
    col_idx: &[usize],
    vals: &SplitValues,
    x: &[Complex64],
    y: &mut [Complex64],
) {
    let (re, im) = vals.planes();
    for (i, yi) in y.iter_mut().enumerate() {
        let (mut ar, mut ai) = (0.0f64, 0.0f64);
        for k in row_ptr[i]..row_ptr[i + 1] {
            fma_mul(re[k], im[k], x[col_idx[k]], &mut ar, &mut ai);
        }
        *yi = c64(ar, ai);
    }
}

/// `y = A† x` over a raw CSR pattern with planar values (serial scatter
/// kernel).
pub(crate) fn spmv_split_adjoint_into(
    row_ptr: &[usize],
    col_idx: &[usize],
    vals: &SplitValues,
    x: &[Complex64],
    y: &mut [Complex64],
) {
    let (re, im) = vals.planes();
    for v in y.iter_mut() {
        *v = Complex64::ZERO;
    }
    for (i, &xi) in x.iter().enumerate() {
        if xi == Complex64::ZERO {
            continue;
        }
        for k in row_ptr[i]..row_ptr[i + 1] {
            let c = col_idx[k];
            let (mut ar, mut ai) = (y[c].re, y[c].im);
            fma_mul_conj(re[k], im[k], xi, &mut ar, &mut ai);
            y[c] = c64(ar, ai);
        }
    }
}

/// The scalar 4-wide column-group tile over rows `r0..r1` (reference
/// implementation; the AVX2 twin in [`avx2`] is bit-identical per lane).
#[allow(clippy::too_many_arguments)]
fn tile4_scalar(
    row_ptr: &[usize],
    col_idx: &[usize],
    re: &[f64],
    im: &[f64],
    r0: usize,
    r1: usize,
    x: (&[Complex64], &[Complex64], &[Complex64], &[Complex64]),
    y: (&mut [Complex64], &mut [Complex64], &mut [Complex64], &mut [Complex64]),
) {
    let (x0, x1, x2, x3) = x;
    let (y0, y1, y2, y3) = y;
    for i in r0..r1 {
        let (mut a0r, mut a0i, mut a1r, mut a1i) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let (mut a2r, mut a2i, mut a3r, mut a3i) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for k in row_ptr[i]..row_ptr[i + 1] {
            let (vr, vi) = (re[k], im[k]);
            let c = col_idx[k];
            fma_mul(vr, vi, x0[c], &mut a0r, &mut a0i);
            fma_mul(vr, vi, x1[c], &mut a1r, &mut a1i);
            fma_mul(vr, vi, x2[c], &mut a2r, &mut a2i);
            fma_mul(vr, vi, x3[c], &mut a3r, &mut a3i);
        }
        y0[i] = c64(a0r, a0i);
        y1[i] = c64(a1r, a1i);
        y2[i] = c64(a2r, a2i);
        y3[i] = c64(a3r, a3i);
    }
}

/// The scalar 2-wide column-group tile over rows `r0..r1`.
#[allow(clippy::too_many_arguments)]
fn tile2_scalar(
    row_ptr: &[usize],
    col_idx: &[usize],
    re: &[f64],
    im: &[f64],
    r0: usize,
    r1: usize,
    x: (&[Complex64], &[Complex64]),
    y: (&mut [Complex64], &mut [Complex64]),
) {
    let (x0, x1) = x;
    let (y0, y1) = y;
    for i in r0..r1 {
        let (mut a0r, mut a0i, mut a1r, mut a1i) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for k in row_ptr[i]..row_ptr[i + 1] {
            let (vr, vi) = (re[k], im[k]);
            let c = col_idx[k];
            fma_mul(vr, vi, x0[c], &mut a0r, &mut a0i);
            fma_mul(vr, vi, x1[c], &mut a1r, &mut a1i);
        }
        y0[i] = c64(a0r, a0i);
        y1[i] = c64(a1r, a1i);
    }
}

/// Explicit AVX2+FMA twins of the scalar column-group tiles.
///
/// Per CSR entry the scalar tile runs, for each column lane, the chain
/// `ar = fma(vr, xr, ar); ar = fma(-vi, xi, ar); ai = fma(vr, xi, ai);
/// ai = fma(vi, xr, ai)` — four fused operations with one rounding each.
/// The vector tiles broadcast `(vr, vi)`, transpose the lanes' interleaved
/// `x` values into planar registers (`unpacklo`/`unpackhi`), and run the
/// *same* chain with `vfmadd`/`vfnmadd` across all lanes at once.  Because
/// FMA negation is exact and each lane's operation order is unchanged, the
/// results are **bit-identical** to the scalar tiles — locked by a test.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{c64, Complex64};
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure `avx2` and `fma` are supported at runtime.
    // SAFETY: the only unsafe operations in the body are the AVX2/FMA
    // intrinsics enabled by `target_feature`; they are sound exactly when
    // the caller upholds the documented runtime-support contract, and all
    // loads/stores go through `&`/`&mut` slice elements (no raw-pointer
    // arithmetic beyond the element address itself).
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tile4(
        row_ptr: &[usize],
        col_idx: &[usize],
        re: &[f64],
        im: &[f64],
        r0: usize,
        r1: usize,
        x: (&[Complex64], &[Complex64], &[Complex64], &[Complex64]),
        y: (&mut [Complex64], &mut [Complex64], &mut [Complex64], &mut [Complex64]),
    ) {
        // SAFETY: the body only calls the AVX2/FMA intrinsics the
        // `target_feature` attribute enables (the caller upholds the
        // runtime-detection contract documented on the fn), and every
        // load/store goes through bounds-checked slice indexing.
        unsafe {
            let (x0, x1, x2, x3) = x;
            let (y0, y1, y2, y3) = y;
            for i in r0..r1 {
                let mut ar = _mm256_setzero_pd();
                let mut ai = _mm256_setzero_pd();
                for k in row_ptr[i]..row_ptr[i + 1] {
                    let vr = _mm256_set1_pd(re[k]);
                    let vi = _mm256_set1_pd(im[k]);
                    let c = col_idx[k];
                    let p0 = _mm_loadu_pd((&x0[c] as *const Complex64).cast::<f64>());
                    let p1 = _mm_loadu_pd((&x1[c] as *const Complex64).cast::<f64>());
                    let p2 = _mm_loadu_pd((&x2[c] as *const Complex64).cast::<f64>());
                    let p3 = _mm_loadu_pd((&x3[c] as *const Complex64).cast::<f64>());
                    let xr = _mm256_set_m128d(_mm_unpacklo_pd(p2, p3), _mm_unpacklo_pd(p0, p1));
                    let xi = _mm256_set_m128d(_mm_unpackhi_pd(p2, p3), _mm_unpackhi_pd(p0, p1));
                    ar = _mm256_fmadd_pd(vr, xr, ar);
                    ar = _mm256_fnmadd_pd(vi, xi, ar);
                    ai = _mm256_fmadd_pd(vr, xi, ai);
                    ai = _mm256_fmadd_pd(vi, xr, ai);
                }
                let mut rs = [0.0f64; 4];
                let mut is = [0.0f64; 4];
                _mm256_storeu_pd(rs.as_mut_ptr(), ar);
                _mm256_storeu_pd(is.as_mut_ptr(), ai);
                y0[i] = c64(rs[0], is[0]);
                y1[i] = c64(rs[1], is[1]);
                y2[i] = c64(rs[2], is[2]);
                y3[i] = c64(rs[3], is[3]);
            }
        }
    }

    /// # Safety
    /// Caller must ensure `avx2` and `fma` are supported at runtime.
    // SAFETY: same contract as `tile4` — the body's unsafety is the
    // feature-gated intrinsics plus 128-bit unaligned loads of `Complex64`
    // slice elements (`repr(C)` pair of `f64`, so the cast is layout-sound);
    // runtime `avx2`+`fma` support is the caller's obligation.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tile2(
        row_ptr: &[usize],
        col_idx: &[usize],
        re: &[f64],
        im: &[f64],
        r0: usize,
        r1: usize,
        x: (&[Complex64], &[Complex64]),
        y: (&mut [Complex64], &mut [Complex64]),
    ) {
        // SAFETY: same contract as `tile4` — the body only calls the SSE2/FMA
        // intrinsics the `target_feature` attribute enables (the caller upholds
        // the runtime-detection contract documented on the fn), and every
        // load/store goes through bounds-checked slice indexing.
        unsafe {
            let (x0, x1) = x;
            let (y0, y1) = y;
            for i in r0..r1 {
                let mut ar = _mm_setzero_pd();
                let mut ai = _mm_setzero_pd();
                for k in row_ptr[i]..row_ptr[i + 1] {
                    let vr = _mm_set1_pd(re[k]);
                    let vi = _mm_set1_pd(im[k]);
                    let c = col_idx[k];
                    let p0 = _mm_loadu_pd((&x0[c] as *const Complex64).cast::<f64>());
                    let p1 = _mm_loadu_pd((&x1[c] as *const Complex64).cast::<f64>());
                    let xr = _mm_unpacklo_pd(p0, p1);
                    let xi = _mm_unpackhi_pd(p0, p1);
                    ar = _mm_fmadd_pd(vr, xr, ar);
                    ar = _mm_fnmadd_pd(vi, xi, ar);
                    ai = _mm_fmadd_pd(vr, xi, ai);
                    ai = _mm_fmadd_pd(vi, xr, ai);
                }
                let mut rs = [0.0f64; 2];
                let mut is = [0.0f64; 2];
                _mm_storeu_pd(rs.as_mut_ptr(), ar);
                _mm_storeu_pd(is.as_mut_ptr(), ai);
                y0[i] = c64(rs[0], is[0]);
                y1[i] = c64(rs[1], is[1]);
            }
        }
    }
}

/// Row-blocked fused block kernel `Y = A X` with planar values: 4/2/1-wide
/// column-group tiles inside [`ROW_BLOCK`]-row cache blocks, FMA-chain
/// accumulators per (row, column).  The 4- and 2-wide tiles dispatch on
/// [`simd_mode`] between the explicit AVX2+FMA vector tiles and the
/// portable scalar chains (bit-identical — see [`SimdMode`]); the 1-wide
/// remainder is always scalar.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spmv_split_block_into(
    row_ptr: &[usize],
    col_idx: &[usize],
    vals: &SplitValues,
    nc: usize,
    nr: usize,
    x: &[Complex64],
    y: &mut [Complex64],
    nvecs: usize,
) {
    let (re, im) = vals.planes();
    let wide = simd_mode() == SimdMode::Wide;
    let mut r0 = 0;
    while r0 < nr {
        let r1 = (r0 + ROW_BLOCK).min(nr);
        let mut j = 0;
        while j + 4 <= nvecs {
            let (x0, rest) = x[j * nc..].split_at(nc);
            let (x1, rest) = rest.split_at(nc);
            let (x2, rest) = rest.split_at(nc);
            let x3 = &rest[..nc];
            let (y0, rest) = y[j * nr..].split_at_mut(nr);
            let (y1, rest) = rest.split_at_mut(nr);
            let (y2, rest) = rest.split_at_mut(nr);
            let y3 = &mut rest[..nr];
            #[cfg(target_arch = "x86_64")]
            if wide {
                // SAFETY: `wide` implies runtime avx2+fma support.
                unsafe {
                    avx2::tile4(
                        row_ptr,
                        col_idx,
                        re,
                        im,
                        r0,
                        r1,
                        (x0, x1, x2, x3),
                        (y0, y1, y2, y3),
                    );
                }
                j += 4;
                continue;
            }
            tile4_scalar(row_ptr, col_idx, re, im, r0, r1, (x0, x1, x2, x3), (y0, y1, y2, y3));
            j += 4;
        }
        if j + 2 <= nvecs {
            let (x0, rest) = x[j * nc..].split_at(nc);
            let x1 = &rest[..nc];
            let (y0, rest) = y[j * nr..].split_at_mut(nr);
            let y1 = &mut rest[..nr];
            let mut done = false;
            #[cfg(target_arch = "x86_64")]
            if wide {
                // SAFETY: `wide` implies runtime avx2+fma support.
                unsafe {
                    avx2::tile2(row_ptr, col_idx, re, im, r0, r1, (x0, x1), (y0, y1));
                }
                done = true;
            }
            if !done {
                tile2_scalar(row_ptr, col_idx, re, im, r0, r1, (x0, x1), (y0, y1));
            }
            j += 2;
        }
        if j < nvecs {
            let xj = &x[j * nc..(j + 1) * nc];
            let yj = &mut y[j * nr..(j + 1) * nr];
            for i in r0..r1 {
                let (mut ar, mut ai) = (0.0f64, 0.0f64);
                for k in row_ptr[i]..row_ptr[i + 1] {
                    fma_mul(re[k], im[k], xj[col_idx[k]], &mut ar, &mut ai);
                }
                yj[i] = c64(ar, ai);
            }
        }
        r0 = r1;
    }
}

/// Row-blocked fused block kernel `Y = A† X` with planar values; the
/// adjoint twin of [`spmv_split_block_into`], with the same per-column
/// zero-skip guards as the interleaved scatter kernels.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spmv_split_adjoint_block_into(
    row_ptr: &[usize],
    col_idx: &[usize],
    vals: &SplitValues,
    nc: usize,
    nr: usize,
    x: &[Complex64],
    y: &mut [Complex64],
    nvecs: usize,
) {
    let (re, im) = vals.planes();
    for v in y.iter_mut() {
        *v = Complex64::ZERO;
    }
    let mut r0 = 0;
    while r0 < nr {
        let r1 = (r0 + ROW_BLOCK).min(nr);
        let mut j = 0;
        while j + 4 <= nvecs {
            let (x0, rest) = x[j * nr..].split_at(nr);
            let (x1, rest) = rest.split_at(nr);
            let (x2, rest) = rest.split_at(nr);
            let x3 = &rest[..nr];
            let (y0, rest) = y[j * nc..].split_at_mut(nc);
            let (y1, rest) = rest.split_at_mut(nc);
            let (y2, rest) = rest.split_at_mut(nc);
            let y3 = &mut rest[..nc];
            for i in r0..r1 {
                let (x0i, x1i, x2i, x3i) = (x0[i], x1[i], x2[i], x3[i]);
                let any = x0i != Complex64::ZERO
                    || x1i != Complex64::ZERO
                    || x2i != Complex64::ZERO
                    || x3i != Complex64::ZERO;
                if !any {
                    continue;
                }
                for k in row_ptr[i]..row_ptr[i + 1] {
                    let (vr, vi) = (re[k], im[k]);
                    let c = col_idx[k];
                    if x0i != Complex64::ZERO {
                        let (mut ar, mut ai) = (y0[c].re, y0[c].im);
                        fma_mul_conj(vr, vi, x0i, &mut ar, &mut ai);
                        y0[c] = c64(ar, ai);
                    }
                    if x1i != Complex64::ZERO {
                        let (mut ar, mut ai) = (y1[c].re, y1[c].im);
                        fma_mul_conj(vr, vi, x1i, &mut ar, &mut ai);
                        y1[c] = c64(ar, ai);
                    }
                    if x2i != Complex64::ZERO {
                        let (mut ar, mut ai) = (y2[c].re, y2[c].im);
                        fma_mul_conj(vr, vi, x2i, &mut ar, &mut ai);
                        y2[c] = c64(ar, ai);
                    }
                    if x3i != Complex64::ZERO {
                        let (mut ar, mut ai) = (y3[c].re, y3[c].im);
                        fma_mul_conj(vr, vi, x3i, &mut ar, &mut ai);
                        y3[c] = c64(ar, ai);
                    }
                }
            }
            j += 4;
        }
        while j < nvecs {
            let xj = &x[j * nr..(j + 1) * nr];
            let yj = &mut y[j * nc..(j + 1) * nc];
            for i in r0..r1 {
                let xi = xj[i];
                if xi == Complex64::ZERO {
                    continue;
                }
                for k in row_ptr[i]..row_ptr[i + 1] {
                    let c = col_idx[k];
                    let (mut ar, mut ai) = (yj[c].re, yj[c].im);
                    fma_mul_conj(re[k], im[k], xi, &mut ar, &mut ai);
                    yj[c] = c64(ar, ai);
                }
            }
            j += 1;
        }
        r0 = r1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_knob_parses() {
        assert_eq!(KernelLayout::from_name("interleaved"), Some(KernelLayout::Interleaved));
        assert_eq!(KernelLayout::from_name("SPLIT"), Some(KernelLayout::Split));
        assert_eq!(KernelLayout::from_name("planar"), Some(KernelLayout::Split));
        assert_eq!(KernelLayout::from_name("bogus"), None);
        assert_eq!(KernelLayout::default(), KernelLayout::Interleaved);
        assert_eq!(KernelLayout::Split.name(), "split");
    }

    #[test]
    fn simd_mode_reports_a_name() {
        // The resolved mode is environment/CPU dependent; only the knob
        // surface is asserted here.  Bit-identity of Wide vs Scalar is
        // locked below on x86-64.
        assert!(matches!(simd_mode().name(), "wide" | "scalar"));
        assert_eq!(SimdMode::Wide.name(), "wide");
        assert_eq!(SimdMode::Scalar.name(), "scalar");
    }

    /// A little random CSR + slab fixture (deterministic, no RNG dep).
    fn fixture(n: usize, nvecs: usize) -> (Vec<usize>, Vec<usize>, SplitValues, Vec<Complex64>) {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if (i + 3 * j) % 4 == 0 || i == j {
                    col_idx.push(j);
                    vals.push(c64(next(), next()));
                }
            }
            row_ptr.push(col_idx.len());
        }
        let x: Vec<Complex64> = (0..n * nvecs).map(|_| c64(next(), next())).collect();
        (row_ptr, col_idx, SplitValues::from_values(&vals), x)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_tiles_are_bitwise_identical_to_scalar_tiles() {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            eprintln!("avx2/fma not available; skipping SIMD bit-identity check");
            return;
        }
        let n = 37;
        let (row_ptr, col_idx, vals, x) = fixture(n, 4);
        let (re, im) = vals.planes();
        let (x0, rest) = x.split_at(n);
        let (x1, rest) = rest.split_at(n);
        let (x2, x3) = rest.split_at(n);

        let mut ys = vec![Complex64::ZERO; 4 * n];
        {
            let (y0, rest) = ys.split_at_mut(n);
            let (y1, rest) = rest.split_at_mut(n);
            let (y2, y3) = rest.split_at_mut(n);
            tile4_scalar(&row_ptr, &col_idx, re, im, 0, n, (x0, x1, x2, x3), (y0, y1, y2, y3));
        }
        let mut yw = vec![Complex64::ZERO; 4 * n];
        {
            let (y0, rest) = yw.split_at_mut(n);
            let (y1, rest) = rest.split_at_mut(n);
            let (y2, y3) = rest.split_at_mut(n);
            // SAFETY: feature support checked above.
            unsafe {
                avx2::tile4(&row_ptr, &col_idx, re, im, 0, n, (x0, x1, x2, x3), (y0, y1, y2, y3));
            }
        }
        assert_eq!(ys, yw, "avx2 tile4 must be bitwise identical to the scalar tile");

        let mut ys2 = vec![Complex64::ZERO; 2 * n];
        {
            let (y0, y1) = ys2.split_at_mut(n);
            tile2_scalar(&row_ptr, &col_idx, re, im, 0, n, (x0, x1), (y0, y1));
        }
        let mut yw2 = vec![Complex64::ZERO; 2 * n];
        {
            let (y0, y1) = yw2.split_at_mut(n);
            // SAFETY: feature support checked above.
            unsafe {
                avx2::tile2(&row_ptr, &col_idx, re, im, 0, n, (x0, x1), (y0, y1));
            }
        }
        assert_eq!(ys2, yw2, "avx2 tile2 must be bitwise identical to the scalar tile");
    }

    #[test]
    fn split_values_refill_reuses_planes() {
        let vals = [c64(1.0, 2.0), c64(-3.0, 0.5)];
        let mut s = SplitValues::from_values(&vals);
        assert_eq!(s.len(), 2);
        let (re, im) = s.planes();
        assert_eq!(re, &[1.0, -3.0]);
        assert_eq!(im, &[2.0, 0.5]);
        s.refill(&vals[..1]);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }
}
