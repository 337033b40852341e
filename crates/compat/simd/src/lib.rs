//! Offline stand-in for a portable-SIMD crate (`wide`/`std::simd`
//! shaped), vendored so the workspace stays dependency-free.
//!
//! Two public layers:
//!
//! * **Value types** — [`F32x8`] / [`I32x8`] with
//!   `load/store/splat/mul_add/to_array` plus lanewise `+`/`-`/`*`
//!   operators. Every operation
//!   dispatches to the active [`Backend`]; the scalar and vector paths
//!   are **bitwise identical per lane** (pinned by this crate's test
//!   suite), so callers never observe which backend ran.
//! * **Slice kernels** — [`axpy`], [`scale`], [`gemm_panel`]: the hot
//!   loops the workspace actually runs. Backend dispatch happens
//!   **once per call** and the whole loop lives inside a
//!   `#[target_feature]` function, so there is no per-element dispatch
//!   overhead.
//!
//! # The bitwise-equivalence contract
//!
//! Scalar IEEE-754 f32 arithmetic is the reference semantics. The
//! vector backends reproduce it exactly:
//!
//! * element order is never changed — kernels vectorize *across*
//!   independent elements (lanes), never by re-associating a reduction;
//! * [`F32x8::mul_add`] and every kernel accumulation are **non-fused**
//!   (an explicit multiply then an explicit add, two roundings). FMA
//!   instructions (`vfmadd*`, NEON `fmla`) round once and are therefore
//!   deliberately **not** used, even where the CPU has them.
//!
//! Under those two rules each lane performs exactly the scalar
//! operation sequence, so results are bit-identical — including signed
//! zeros, infinities, NaN propagation patterns and denormals.
//!
//! # Backends and the test hook
//!
//! [`backend()`] picks AVX2 on x86_64 (runtime `is_x86_feature_detected!`),
//! NEON on aarch64 (baseline feature, compile-time), scalar everywhere
//! else. [`force_scalar`] is a process-global test hook that pins the
//! scalar fallback so conformance suites can sweep both paths; because
//! the paths are bit-identical, flipping it concurrently with other
//! threads is benign (it only changes *how* the same numbers are
//! computed).
//!
//! All `unsafe` in the workspace's SIMD story is confined to this
//! crate, inside `#[target_feature]` functions that are only reachable
//! after the matching runtime/compile-time detection.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Number of f32 lanes in [`F32x8`].
pub const LANES: usize = 8;

/// The instruction set a kernel call will run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Plain Rust loops — always available, the reference semantics.
    Scalar,
    /// x86_64 AVX2 (256-bit), runtime-detected.
    Avx2,
    /// aarch64 NEON (128-bit × 2), baseline on that architecture.
    Neon,
}

impl Backend {
    /// Stable lowercase name (for logs and results JSON).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// Test hook: when set, [`backend()`] reports [`Backend::Scalar`]
/// regardless of what the CPU supports.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Cached detection result: 0 = not yet probed, else `Backend as u8 + 1`.
static DETECTED: AtomicU8 = AtomicU8::new(0);

fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return Backend::Neon;
    }
    #[allow(unreachable_code)]
    Backend::Scalar
}

/// The backend the next kernel call will use.
pub fn backend() -> Backend {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        return Backend::Scalar;
    }
    detected()
}

/// The backend the CPU supports, ignoring [`force_scalar`].
pub fn detected() -> Backend {
    match DETECTED.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Avx2,
        3 => Backend::Neon,
        _ => {
            let b = detect();
            let tag = match b {
                Backend::Scalar => 1,
                Backend::Avx2 => 2,
                Backend::Neon => 3,
            };
            DETECTED.store(tag, Ordering::Relaxed);
            b
        }
    }
}

/// Pins (or releases) the scalar fallback process-wide.
///
/// Intended for tests and A/B benches; the vector paths are bitwise
/// identical to scalar, so this never changes results, only speed.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Whether the scalar fallback is currently pinned.
pub fn scalar_forced() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Value types
// ---------------------------------------------------------------------

/// Eight `f32` lanes. 32-byte aligned so the AVX2 path can use aligned
/// loads on the type's own storage.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
pub struct F32x8(pub(crate) [f32; LANES]);

/// Eight `i32` lanes, companion to [`F32x8`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
pub struct I32x8(pub(crate) [i32; LANES]);

impl F32x8 {
    /// All lanes `v`.
    pub fn splat(v: f32) -> Self {
        F32x8([v; LANES])
    }

    /// Loads the first eight elements of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice.len() < 8`.
    pub fn load(slice: &[f32]) -> Self {
        let mut lanes = [0.0f32; LANES];
        lanes.copy_from_slice(&slice[..LANES]);
        F32x8(lanes)
    }

    /// Stores the lanes into the first eight elements of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice.len() < 8`.
    pub fn store(self, slice: &mut [f32]) {
        slice[..LANES].copy_from_slice(&self.0);
    }

    /// The lanes as a plain array.
    pub fn to_array(self) -> [f32; LANES] {
        self.0
    }

    /// Lanewise `self * a + b`, **non-fused**: an explicit multiply then
    /// an explicit add (two roundings), matching the scalar idiom
    /// `acc + alpha * x` bit for bit. Never compiled to FMA.
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        match backend() {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2::f32x8_mul_add(self, a, b),
            _ => scalar::f32x8_mul_add(self, a, b),
        }
    }
}

/// Lanewise `self + rhs` on the active backend.
impl std::ops::Add for F32x8 {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        match backend() {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2::f32x8_add(self, rhs),
            _ => scalar::f32x8_add(self, rhs),
        }
    }
}

/// Lanewise `self - rhs` on the active backend.
impl std::ops::Sub for F32x8 {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        match backend() {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2::f32x8_sub(self, rhs),
            _ => scalar::f32x8_sub(self, rhs),
        }
    }
}

/// Lanewise `self * rhs` on the active backend.
impl std::ops::Mul for F32x8 {
    type Output = Self;

    fn mul(self, rhs: Self) -> Self {
        match backend() {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2::f32x8_mul(self, rhs),
            _ => scalar::f32x8_mul(self, rhs),
        }
    }
}

impl From<[f32; LANES]> for F32x8 {
    fn from(lanes: [f32; LANES]) -> Self {
        F32x8(lanes)
    }
}

impl I32x8 {
    /// All lanes `v`.
    pub fn splat(v: i32) -> Self {
        I32x8([v; LANES])
    }

    /// Loads the first eight elements of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice.len() < 8`.
    pub fn load(slice: &[i32]) -> Self {
        let mut lanes = [0i32; LANES];
        lanes.copy_from_slice(&slice[..LANES]);
        I32x8(lanes)
    }

    /// Stores the lanes into the first eight elements of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice.len() < 8`.
    pub fn store(self, slice: &mut [i32]) {
        slice[..LANES].copy_from_slice(&self.0);
    }

    /// The lanes as a plain array.
    pub fn to_array(self) -> [i32; LANES] {
        self.0
    }
}

/// Lanewise wrapping `self + rhs` on the active backend (integer
/// vector adds wrap; the scalar path matches with `wrapping_add`).
impl std::ops::Add for I32x8 {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        match backend() {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2::i32x8_add(self, rhs),
            _ => scalar::i32x8_add(self, rhs),
        }
    }
}

impl From<[i32; LANES]> for I32x8 {
    fn from(lanes: [i32; LANES]) -> Self {
        I32x8(lanes)
    }
}

// ---------------------------------------------------------------------
// Slice kernels (dispatch once per call)
// ---------------------------------------------------------------------

/// `acc[i] += alpha * x[i]` over `min(acc.len(), x.len())` elements.
///
/// Non-fused multiply + add per element, in ascending index order —
/// bit-identical to the plain scalar loop at every length.
pub fn axpy(acc: &mut [f32], x: &[f32], alpha: f32) {
    match backend() {
        // SAFETY: AVX2 was runtime-detected by `backend()`.
        Backend::Avx2 => unsafe { avx2::axpy(acc, x, alpha) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline aarch64 feature.
        Backend::Neon => unsafe { neon::axpy(acc, x, alpha) },
        _ => scalar::axpy(acc, x, alpha),
    }
}

/// `xs[i] *= s` over every element (elementwise, order-free —
/// bit-identical on every backend).
pub fn scale(xs: &mut [f32], s: f32) {
    match backend() {
        // SAFETY: AVX2 was runtime-detected by `backend()`.
        Backend::Avx2 => unsafe { avx2::scale(xs, s) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline aarch64 feature.
        Backend::Neon => unsafe { neon::scale(xs, s) },
        _ => scalar::scale(xs, s),
    }
}

/// Maximum row count of one [`gemm_panel`] call (the register tile
/// height: one broadcast per row per k shares each B vector load).
pub const GEMM_MR: usize = 4;

/// Register-tiled GEMM micro-kernel:
///
/// ```text
/// out[r*n + j] += Σ_{k < kc} a[r*lda + k] * b[k*n + j]
///     for r < mr, j < n
/// ```
///
/// For every output element the products are accumulated in ascending
/// `k` order with non-fused multiply + add, starting from the element's
/// current value — bit-identical to the textbook triple loop. The
/// vector backends tile `mr ≤ 4` rows so one B row-vector load feeds
/// all rows, and vectorize across `j` (independent output elements, so
/// no re-association).
///
/// # Panics
///
/// Panics if `mr == 0` or `mr > GEMM_MR`, or if `a`, `b` or `out` are
/// too short for the described access pattern.
pub fn gemm_panel(
    a: &[f32],
    lda: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    mr: usize,
    kc: usize,
) {
    assert!((1..=GEMM_MR).contains(&mr), "gemm_panel row tile {mr} out of range");
    if kc == 0 || n == 0 {
        return;
    }
    assert!(lda >= kc, "gemm_panel lda {lda} < kc {kc}");
    assert!(a.len() >= (mr - 1) * lda + kc, "gemm_panel A slice too short");
    assert!(b.len() >= kc * n, "gemm_panel B slice too short");
    assert!(out.len() >= mr * n, "gemm_panel out slice too short");
    match backend() {
        // SAFETY: AVX2 was runtime-detected by `backend()`; the bounds
        // were asserted above.
        Backend::Avx2 => unsafe { avx2::gemm_panel(a, lda, b, n, out, mr, kc) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline aarch64 feature; bounds asserted.
        Backend::Neon => unsafe { neon::gemm_panel(a, lda, b, n, out, mr, kc) },
        _ => scalar::gemm_panel(a, lda, b, n, out, mr, kc),
    }
}

// ---------------------------------------------------------------------
// Scalar backend: the reference semantics.
// ---------------------------------------------------------------------

mod scalar {
    use super::{F32x8, I32x8, LANES};

    pub(crate) fn f32x8_add(a: F32x8, b: F32x8) -> F32x8 {
        let mut out = [0.0f32; LANES];
        for (o, (&x, &y)) in out.iter_mut().zip(a.0.iter().zip(&b.0)) {
            *o = x + y;
        }
        F32x8(out)
    }

    pub(crate) fn f32x8_sub(a: F32x8, b: F32x8) -> F32x8 {
        let mut out = [0.0f32; LANES];
        for (o, (&x, &y)) in out.iter_mut().zip(a.0.iter().zip(&b.0)) {
            *o = x - y;
        }
        F32x8(out)
    }

    pub(crate) fn f32x8_mul(a: F32x8, b: F32x8) -> F32x8 {
        let mut out = [0.0f32; LANES];
        for (o, (&x, &y)) in out.iter_mut().zip(a.0.iter().zip(&b.0)) {
            *o = x * y;
        }
        F32x8(out)
    }

    pub(crate) fn f32x8_mul_add(x: F32x8, a: F32x8, b: F32x8) -> F32x8 {
        let mut out = [0.0f32; LANES];
        for (i, o) in out.iter_mut().enumerate() {
            // Two roundings, deliberately: multiply, then add.
            *o = b.0[i] + x.0[i] * a.0[i];
        }
        F32x8(out)
    }

    pub(crate) fn i32x8_add(a: I32x8, b: I32x8) -> I32x8 {
        let mut out = [0i32; LANES];
        for (o, (&x, &y)) in out.iter_mut().zip(a.0.iter().zip(&b.0)) {
            *o = x.wrapping_add(y);
        }
        I32x8(out)
    }

    pub(crate) fn axpy(acc: &mut [f32], x: &[f32], alpha: f32) {
        for (a, &v) in acc.iter_mut().zip(x) {
            *a += alpha * v;
        }
    }

    pub(crate) fn scale(xs: &mut [f32], s: f32) {
        for v in xs {
            *v *= s;
        }
    }

    pub(crate) fn gemm_panel(
        a: &[f32],
        lda: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        mr: usize,
        kc: usize,
    ) {
        for r in 0..mr {
            let a_row = &a[r * lda..r * lda + kc];
            let out_row = &mut out[r * n..(r + 1) * n];
            for (k, &av) in a_row.iter().enumerate() {
                let b_row = &b[k * n..(k + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// AVX2 backend (x86_64, runtime-detected).
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{F32x8, I32x8, LANES};
    use std::arch::x86_64::*;

    // The value-type ops re-check nothing: `backend()` only routes here
    // after `is_x86_feature_detected!("avx2")` succeeded. Each wraps a
    // `#[target_feature]` inner function so the intrinsics are emitted
    // with the right ISA.

    pub(crate) fn f32x8_add(a: F32x8, b: F32x8) -> F32x8 {
        // SAFETY: AVX2 availability was runtime-detected before dispatch.
        unsafe { add_impl(a, b) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn add_impl(a: F32x8, b: F32x8) -> F32x8 {
        let mut out = F32x8([0.0; LANES]);
        let v = _mm256_add_ps(_mm256_load_ps(a.0.as_ptr()), _mm256_load_ps(b.0.as_ptr()));
        _mm256_store_ps(out.0.as_mut_ptr(), v);
        out
    }

    pub(crate) fn f32x8_sub(a: F32x8, b: F32x8) -> F32x8 {
        // SAFETY: AVX2 availability was runtime-detected before dispatch.
        unsafe { sub_impl(a, b) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn sub_impl(a: F32x8, b: F32x8) -> F32x8 {
        let mut out = F32x8([0.0; LANES]);
        let v = _mm256_sub_ps(_mm256_load_ps(a.0.as_ptr()), _mm256_load_ps(b.0.as_ptr()));
        _mm256_store_ps(out.0.as_mut_ptr(), v);
        out
    }

    pub(crate) fn f32x8_mul(a: F32x8, b: F32x8) -> F32x8 {
        // SAFETY: AVX2 availability was runtime-detected before dispatch.
        unsafe { mul_impl(a, b) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn mul_impl(a: F32x8, b: F32x8) -> F32x8 {
        let mut out = F32x8([0.0; LANES]);
        let v = _mm256_mul_ps(_mm256_load_ps(a.0.as_ptr()), _mm256_load_ps(b.0.as_ptr()));
        _mm256_store_ps(out.0.as_mut_ptr(), v);
        out
    }

    pub(crate) fn f32x8_mul_add(x: F32x8, a: F32x8, b: F32x8) -> F32x8 {
        // SAFETY: AVX2 availability was runtime-detected before dispatch.
        unsafe { mul_add_impl(x, a, b) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn mul_add_impl(x: F32x8, a: F32x8, b: F32x8) -> F32x8 {
        let mut out = F32x8([0.0; LANES]);
        // Non-fused on purpose: `_mm256_fmadd_ps` rounds once and would
        // break the bitwise scalar-equivalence contract.
        let prod = _mm256_mul_ps(_mm256_load_ps(x.0.as_ptr()), _mm256_load_ps(a.0.as_ptr()));
        let v = _mm256_add_ps(_mm256_load_ps(b.0.as_ptr()), prod);
        _mm256_store_ps(out.0.as_mut_ptr(), v);
        out
    }

    pub(crate) fn i32x8_add(a: I32x8, b: I32x8) -> I32x8 {
        // SAFETY: AVX2 availability was runtime-detected before dispatch.
        unsafe { i32_add_impl(a, b) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn i32_add_impl(a: I32x8, b: I32x8) -> I32x8 {
        let mut out = I32x8([0; LANES]);
        let v = _mm256_add_epi32(
            _mm256_load_si256(a.0.as_ptr().cast()),
            _mm256_load_si256(b.0.as_ptr().cast()),
        );
        _mm256_store_si256(out.0.as_mut_ptr().cast(), v);
        out
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn axpy(acc: &mut [f32], x: &[f32], alpha: f32) {
        let n = acc.len().min(x.len());
        let av = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let cur = _mm256_loadu_ps(acc.as_ptr().add(i));
            // mul then add: two roundings, matching `*a += alpha * v`.
            let sum = _mm256_add_ps(cur, _mm256_mul_ps(av, xv));
            _mm256_storeu_ps(acc.as_mut_ptr().add(i), sum);
            i += LANES;
        }
        while i < n {
            *acc.get_unchecked_mut(i) += alpha * *x.get_unchecked(i);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn scale(xs: &mut [f32], s: f32) {
        let n = xs.len();
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + LANES <= n {
            let v = _mm256_mul_ps(_mm256_loadu_ps(xs.as_ptr().add(i)), sv);
            _mm256_storeu_ps(xs.as_mut_ptr().add(i), v);
            i += LANES;
        }
        while i < n {
            *xs.get_unchecked_mut(i) *= s;
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support and the bounds asserted
    /// by [`super::gemm_panel`].
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gemm_panel(
        a: &[f32],
        lda: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        mr: usize,
        kc: usize,
    ) {
        let mut j = 0;
        // Vector main loop: 8 output columns × up to 4 rows per tile.
        // One B vector load per k feeds every row of the tile.
        while j + LANES <= n {
            let mut acc = [_mm256_setzero_ps(); super::GEMM_MR];
            for (r, slot) in acc.iter_mut().enumerate().take(mr) {
                *slot = _mm256_loadu_ps(out.as_ptr().add(r * n + j));
            }
            for k in 0..kc {
                let bv = _mm256_loadu_ps(b.as_ptr().add(k * n + j));
                for (r, slot) in acc.iter_mut().enumerate().take(mr) {
                    let av = _mm256_set1_ps(*a.get_unchecked(r * lda + k));
                    // Non-fused: multiply, then add (two roundings).
                    *slot = _mm256_add_ps(*slot, _mm256_mul_ps(av, bv));
                }
            }
            for (r, slot) in acc.iter().enumerate().take(mr) {
                _mm256_storeu_ps(out.as_mut_ptr().add(r * n + j), *slot);
            }
            j += LANES;
        }
        // Scalar tail columns: same per-element order.
        while j < n {
            for r in 0..mr {
                let mut accv = *out.get_unchecked(r * n + j);
                for k in 0..kc {
                    accv += *a.get_unchecked(r * lda + k) * *b.get_unchecked(k * n + j);
                }
                *out.get_unchecked_mut(r * n + j) = accv;
            }
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------
// NEON backend (aarch64 baseline).
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    const STEP: usize = 4;

    /// # Safety
    ///
    /// NEON is a baseline aarch64 feature; callers reach this only on
    /// aarch64.
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn axpy(acc: &mut [f32], x: &[f32], alpha: f32) {
        let n = acc.len().min(x.len());
        let av = vdupq_n_f32(alpha);
        let mut i = 0;
        while i + STEP <= n {
            let xv = vld1q_f32(x.as_ptr().add(i));
            let cur = vld1q_f32(acc.as_ptr().add(i));
            // vmul + vadd, NOT vfma/vmla: fused ops round once and
            // would break bitwise scalar equivalence.
            let sum = vaddq_f32(cur, vmulq_f32(av, xv));
            vst1q_f32(acc.as_mut_ptr().add(i), sum);
            i += STEP;
        }
        while i < n {
            *acc.get_unchecked_mut(i) += alpha * *x.get_unchecked(i);
            i += 1;
        }
    }

    /// # Safety
    ///
    /// NEON is a baseline aarch64 feature.
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn scale(xs: &mut [f32], s: f32) {
        let n = xs.len();
        let sv = vdupq_n_f32(s);
        let mut i = 0;
        while i + STEP <= n {
            let v = vmulq_f32(vld1q_f32(xs.as_ptr().add(i)), sv);
            vst1q_f32(xs.as_mut_ptr().add(i), v);
            i += STEP;
        }
        while i < n {
            *xs.get_unchecked_mut(i) *= s;
            i += 1;
        }
    }

    /// # Safety
    ///
    /// NEON is a baseline aarch64 feature; bounds asserted by the
    /// dispatching wrapper.
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn gemm_panel(
        a: &[f32],
        lda: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        mr: usize,
        kc: usize,
    ) {
        let mut j = 0;
        while j + STEP <= n {
            let mut acc = [vdupq_n_f32(0.0); super::GEMM_MR];
            for (r, slot) in acc.iter_mut().enumerate().take(mr) {
                *slot = vld1q_f32(out.as_ptr().add(r * n + j));
            }
            for k in 0..kc {
                let bv = vld1q_f32(b.as_ptr().add(k * n + j));
                for (r, slot) in acc.iter_mut().enumerate().take(mr) {
                    let av = vdupq_n_f32(*a.get_unchecked(r * lda + k));
                    // Non-fused multiply + add (no vfmaq).
                    *slot = vaddq_f32(*slot, vmulq_f32(av, bv));
                }
            }
            for (r, slot) in acc.iter().enumerate().take(mr) {
                vst1q_f32(out.as_mut_ptr().add(r * n + j), *slot);
            }
            j += STEP;
        }
        while j < n {
            for r in 0..mr {
                let mut accv = *out.get_unchecked(r * n + j);
                for k in 0..kc {
                    accv += *a.get_unchecked(r * lda + k) * *b.get_unchecked(k * n + j);
                }
                *out.get_unchecked_mut(r * n + j) = accv;
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// `FORCE_SCALAR` is process-global and tests run on parallel
    /// threads: every test that pins the scalar path or runs the native
    /// one holds this lock throughout, so a "vector" side never runs
    /// while another test has scalar pinned. A failed test leaves the
    /// lock poisoned but the flag restored (`ScalarGuard` drops on
    /// unwind), so the next test takes the lock as it is.
    static FLAG: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        FLAG.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// RAII guard: pins the scalar fallback, restoring on drop.
    struct ScalarGuard;

    impl ScalarGuard {
        fn pin() -> Self {
            force_scalar(true);
            ScalarGuard
        }
    }

    impl Drop for ScalarGuard {
        fn drop(&mut self) {
            force_scalar(false);
        }
    }

    /// Awkward lane values: signed zeros, denormals, infinities, NaN,
    /// and magnitudes that expose double-rounding if FMA sneaks in.
    fn awkward() -> Vec<f32> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0e-40, // denormal
            -1.0e-40,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.000_000_1,
            0.333_333_34,
            16_777_216.0, // 2^24: f32 integer precision edge
            -16_777_215.0,
            std::f32::consts::PI,
        ]
    }

    fn chunks8(vs: &[f32]) -> Vec<[f32; 8]> {
        vs.chunks(8).filter(|c| c.len() == 8).map(|c| c.try_into().unwrap()).collect()
    }

    fn assert_lanes_bitwise(a: [f32; 8], b: [f32; 8], what: &str) {
        for lane in 0..8 {
            assert_eq!(
                a[lane].to_bits(),
                b[lane].to_bits(),
                "{what}: lane {lane} differs ({} vs {})",
                a[lane],
                b[lane]
            );
        }
    }

    #[test]
    fn value_ops_scalar_vs_vector_bitwise() {
        let _serial = serial();
        if detected() == Backend::Scalar {
            return; // only the scalar path exists on this machine
        }
        let vals = awkward();
        for xa in chunks8(&vals) {
            for ya in chunks8(&vals) {
                let (x, y) = (F32x8::from(xa), F32x8::from(ya));
                let za = {
                    let mut z = xa;
                    z.rotate_left(3);
                    z
                };
                let z = F32x8::from(za);
                // Vector path (detection active)...
                let add_v = (x + y).to_array();
                let sub_v = (x - y).to_array();
                let mul_v = (x * y).to_array();
                let fma_v = x.mul_add(y, z).to_array();
                // ...vs the pinned scalar path.
                let _guard = ScalarGuard::pin();
                assert_lanes_bitwise(add_v, (x + y).to_array(), "add");
                assert_lanes_bitwise(sub_v, (x - y).to_array(), "sub");
                assert_lanes_bitwise(mul_v, (x * y).to_array(), "mul");
                assert_lanes_bitwise(fma_v, x.mul_add(y, z).to_array(), "mul_add");
            }
        }
    }

    #[test]
    fn mul_add_is_not_fused() {
        let _serial = serial();
        // Pick x, a, b where fused and double-rounded results differ:
        // x*a needs more than 24 bits; the explicit product rounds first.
        let x = 1.0 + f32::EPSILON; // 1 + 2^-23
        let a = 1.0 - f32::EPSILON / 2.0; // 1 - 2^-24
        let b = -1.0;
        let two_rounded = b + x * a;
        let fused = f32::mul_add(x, a, b);
        assert_ne!(
            two_rounded.to_bits(),
            fused.to_bits(),
            "test vector no longer distinguishes fused from non-fused"
        );
        let got = F32x8::splat(x).mul_add(F32x8::splat(a), F32x8::splat(b)).to_array();
        for lane in got {
            assert_eq!(lane.to_bits(), two_rounded.to_bits(), "mul_add must use two roundings");
        }
    }

    #[test]
    fn load_store_roundtrip() {
        let src: Vec<f32> = (0..12).map(|i| i as f32 * 1.5).collect();
        let v = F32x8::load(&src);
        assert_eq!(v.to_array(), src[..8]);
        let mut dst = vec![0.0f32; 10];
        v.store(&mut dst);
        assert_eq!(&dst[..8], &src[..8]);
        assert_eq!(&dst[8..], &[0.0, 0.0]);
        assert_eq!(F32x8::splat(2.5).to_array(), [2.5; 8]);
    }

    #[test]
    fn i32x8_add_wraps_bitwise() {
        let _serial = serial();
        let a = I32x8::from([i32::MAX, -1, 0, 5, i32::MIN, 100, -100, 7]);
        let b = I32x8::from([1, -1, 0, -5, -1, 23, 100, 7]);
        let vec_sum = (a + b).to_array();
        let _guard = ScalarGuard::pin();
        assert_eq!(vec_sum, (a + b).to_array());
        assert_eq!(vec_sum[0], i32::MIN, "wrapping add");
        assert_eq!(I32x8::splat(3).to_array(), [3; 8]);
        let mut out = [0i32; 8];
        I32x8::load(&[1, 2, 3, 4, 5, 6, 7, 8]).store(&mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    fn pseudo(seed: u64, len: usize) -> Vec<f32> {
        // Deterministic xorshift-style values in roughly [-2, 2], with a
        // few awkward values mixed in.
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let awk = awkward();
        (0..len)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if i % 17 == 11 {
                    awk[(s as usize) % awk.len()]
                } else {
                    ((s >> 11) as f32 / (1u64 << 53) as f32).mul_add(4.0, -2.0)
                }
            })
            .collect()
    }

    #[test]
    fn axpy_kernel_matches_scalar_bitwise() {
        let _serial = serial();
        for len in [0, 1, 7, 8, 9, 31, 64, 100] {
            for (seed, alpha) in [(1, 0.5f32), (2, -1.0), (3, 1.0), (4, 1.0e-3), (5, 0.0)] {
                let x = pseudo(seed, len);
                let base = pseudo(seed + 100, len);
                let mut vec_acc = base.clone();
                axpy(&mut vec_acc, &x, alpha);
                let mut ref_acc = base.clone();
                {
                    let _guard = ScalarGuard::pin();
                    axpy(&mut ref_acc, &x, alpha);
                }
                for i in 0..len {
                    assert_eq!(
                        vec_acc[i].to_bits(),
                        ref_acc[i].to_bits(),
                        "axpy len {len} alpha {alpha} index {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn scale_kernel_matches_scalar_bitwise() {
        let _serial = serial();
        for len in [0, 1, 8, 13, 40] {
            for s in [0.5f32, -0.0, 2.0, 1.0e20] {
                let base = pseudo(len as u64 + 7, len);
                let mut vec_xs = base.clone();
                scale(&mut vec_xs, s);
                let mut ref_xs = base;
                {
                    let _guard = ScalarGuard::pin();
                    scale(&mut ref_xs, s);
                }
                for i in 0..len {
                    assert_eq!(vec_xs[i].to_bits(), ref_xs[i].to_bits(), "scale len {len} s {s}");
                }
            }
        }
    }

    #[test]
    fn gemm_panel_matches_scalar_bitwise() {
        let _serial = serial();
        for &(mr, kc, n, lda_pad) in
            &[(1, 1, 1, 0), (4, 3, 8, 0), (2, 5, 7, 3), (4, 16, 19, 1), (3, 2, 32, 0), (4, 9, 5, 2)]
        {
            let lda = kc + lda_pad;
            let a = pseudo(11, mr * lda);
            let b = pseudo(13, kc * n);
            let base = pseudo(17, mr * n);
            let mut vec_out = base.clone();
            gemm_panel(&a, lda, &b, n, &mut vec_out, mr, kc);
            let mut ref_out = base;
            {
                let _guard = ScalarGuard::pin();
                gemm_panel(&a, lda, &b, n, &mut ref_out, mr, kc);
            }
            for i in 0..mr * n {
                assert_eq!(
                    vec_out[i].to_bits(),
                    ref_out[i].to_bits(),
                    "gemm_panel mr={mr} kc={kc} n={n} lda={lda} element {i}"
                );
            }
        }
    }

    #[test]
    fn gemm_panel_accumulates_in_k_order() {
        let _serial = serial();
        // The panel must equal the textbook loop, starting from the
        // existing out values (accumulation, not overwrite).
        let (mr, kc, n) = (3, 4, 10);
        let a = pseudo(21, mr * kc);
        let b = pseudo(22, kc * n);
        let mut out = pseudo(23, mr * n);
        let mut expect = out.clone();
        for r in 0..mr {
            for j in 0..n {
                for k in 0..kc {
                    expect[r * n + j] += a[r * kc + k] * b[k * n + j];
                }
            }
        }
        gemm_panel(&a, kc, &b, n, &mut out, mr, kc);
        for i in 0..mr * n {
            assert_eq!(out[i].to_bits(), expect[i].to_bits(), "element {i}");
        }
    }

    #[test]
    fn force_scalar_hook_flips_backend() {
        let _serial = serial();
        let native = detected();
        assert_eq!(backend(), native);
        force_scalar(true);
        assert!(scalar_forced());
        assert_eq!(backend(), Backend::Scalar);
        force_scalar(false);
        assert!(!scalar_forced());
        assert_eq!(backend(), native);
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Neon.name(), "neon");
    }

    #[test]
    fn empty_and_mismatched_slices() {
        let _serial = serial();
        // axpy zips: extra elements on either side are untouched.
        let mut acc = vec![1.0f32, 2.0, 3.0];
        axpy(&mut acc, &[10.0, 10.0], 1.0);
        assert_eq!(acc, vec![11.0, 12.0, 3.0]);
        let mut empty: Vec<f32> = Vec::new();
        axpy(&mut empty, &[], 2.0);
        scale(&mut empty, 2.0);
        gemm_panel(&[1.0], 1, &[], 0, &mut [], 1, 0);
    }
}
