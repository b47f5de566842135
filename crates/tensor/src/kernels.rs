//! Cache-blocked, panel-packed GEMM kernels.
//!
//! The naive triple loops in [`crate::matrix`] stream the full `B` operand
//! through cache once per row of `A`; above a few dozen rows that turns
//! matmul memory-bound. The kernels here use the classic BLIS-style
//! decomposition instead: the iteration space is tiled into `MC x KC`
//! blocks of `A` and `KC x NC` blocks of `B`, both repacked into
//! contiguous panels, and the innermost work is an `MR x NR`
//! register-tiled microkernel whose fixed-size loops LLVM unrolls and
//! autovectorizes. Packing costs `O(mk + kn)` against `O(mkn)` multiplies,
//! so it amortizes for every shape past the [`use_blocked`] cutoff.
//!
//! Determinism contract: for every output element `C[i][j]` the k-terms
//! are accumulated in strictly increasing `k` order — the blocking loops
//! only partition the output space and split `k` into panels that are
//! visited in order, and the microkernel walks each panel front to back.
//! Every partial sum is rounded to `f32` exactly as the naive loops round
//! theirs, so the blocked kernels produce bit-identical results to the
//! naive reference paths (and training trajectories do not depend on
//! which path a shape dispatches to). It follows that rows are
//! independent: row `i` of `A * B` is the same bits whichever other rows
//! share the product, so stacking several inputs into one GEMM (as batched
//! inference does) changes no output — for finite operands only, since the
//! sparse naive path skips zero terms of `A` and so never computes
//! `0 * inf = NaN`.

/// Microkernel tile rows (register-blocked rows of `A`).
const MR: usize = 4;
/// Microkernel tile columns (register-blocked columns of `B`): two AVX2
/// vectors wide, so the 4x16 accumulator tile is eight `ymm` registers.
const NR: usize = 16;
/// k-panel depth: one `MC x KC` block of packed `A` stays L2-resident.
const KC: usize = 256;
/// Row-block height; must be a multiple of `MR`.
const MC: usize = 64;
/// Column-block width; must be a multiple of `NR`.
const NC: usize = 256;

/// Whether a `m x k * k x n` product is worth the blocked path.
///
/// Tiny shapes (scalar heads, single-row LSTM steps) stay on the naive
/// loops: packing would cost more than it saves and the microkernel's
/// edge handling would dominate.
#[inline]
pub(crate) fn use_blocked(m: usize, k: usize, n: usize) -> bool {
    m >= 4 && k >= 8 && n >= 8 && m * k * n >= 16_384
}

/// Cheap sparsity probe: samples up to 64 evenly-spaced elements and
/// reports whether at least a quarter of them are exact zeros. The naive
/// paths use this to decide whether their skip-zero branch (a win only
/// for genuinely sparse operands, e.g. one-hot selections) is worth a
/// per-multiply branch.
#[inline]
pub(crate) fn probe_sparse(data: &[f32]) -> bool {
    if data.is_empty() {
        return false;
    }
    let stride = (data.len() / 64).max(1);
    let sampled = data.iter().step_by(stride);
    let total = sampled.clone().count();
    let zeros = sampled.filter(|&&x| x == 0.0).count();
    zeros * 4 >= total
}

/// `out += A * B` where `A` is `m x k` row-major and `B` is `k x n`
/// row-major. `out` must hold `m * n` elements (normally zeroed).
pub(crate) fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm_with(m, k, n, |i, p| a[i * k + p], |p, j| b[p * n + j], out);
}

/// `out += A * B^T` where `A` is `m x k` row-major and `bt` is the
/// transposed operand stored `n x k` row-major.
pub(crate) fn gemm_bt(m: usize, k: usize, n: usize, a: &[f32], bt: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    gemm_with(m, k, n, |i, p| a[i * k + p], |p, j| bt[j * k + p], out);
}

/// `out += A^T * B` where `at` is the transposed operand stored `k x m`
/// row-major and `B` is `k x n` row-major.
pub(crate) fn gemm_at(m: usize, k: usize, n: usize, at: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(at.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    gemm_with(m, k, n, |i, p| at[p * m + i], |p, j| b[p * n + j], out);
}

/// Blocked driver, generic over element accessors so all three transpose
/// variants share one core: packing adapts to the operand layout, the
/// macro/micro kernels only ever see packed panels.
fn gemm_with(
    m: usize,
    k: usize,
    n: usize,
    a_at: impl Fn(usize, usize) -> f32,
    b_at: impl Fn(usize, usize) -> f32,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    // Sized to the largest block this shape packs, not the full MC x KC /
    // KC x NC maxima: serving-size products (a few rows by ~100) would
    // otherwise zero 320 KiB per call to use a few KiB of it.
    let mut a_pack = vec![0.0f32; MC.min(m.next_multiple_of(MR)) * KC.min(k)];
    let mut b_pack = vec![0.0f32; KC.min(k) * NC.min(n.next_multiple_of(NR))];
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(&mut b_pack, &b_at, pc, kc, jc, nc);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a(&mut a_pack, &a_at, ic, mc, pc, kc);
                macro_kernel(&a_pack, &b_pack, mc, nc, kc, &mut out[ic * n + jc..], n);
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Packs the `mc x kc` block of `A` at `(ic, pc)` into `MR`-row panels,
/// k-major within each panel, zero-padding the ragged last panel.
fn pack_a(
    pack: &mut [f32],
    a_at: &impl Fn(usize, usize) -> f32,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let panels = mc.div_ceil(MR);
    for ip in 0..panels {
        let mr = MR.min(mc - ip * MR);
        let panel = &mut pack[ip * kc * MR..(ip + 1) * kc * MR];
        for (p, chunk) in panel.chunks_exact_mut(MR).enumerate() {
            for (ii, slot) in chunk.iter_mut().enumerate() {
                *slot = if ii < mr { a_at(ic + ip * MR + ii, pc + p) } else { 0.0 };
            }
        }
    }
}

/// Packs the `kc x nc` block of `B` at `(pc, jc)` into `NR`-column
/// panels, k-major within each panel, zero-padding the ragged last panel.
fn pack_b(
    pack: &mut [f32],
    b_at: &impl Fn(usize, usize) -> f32,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    let panels = nc.div_ceil(NR);
    for jp in 0..panels {
        let nr = NR.min(nc - jp * NR);
        let panel = &mut pack[jp * kc * NR..(jp + 1) * kc * NR];
        for (p, chunk) in panel.chunks_exact_mut(NR).enumerate() {
            for (jj, slot) in chunk.iter_mut().enumerate() {
                *slot = if jj < nr { b_at(pc + p, jc + jp * NR + jj) } else { 0.0 };
            }
        }
    }
}

/// Walks the packed block pair tile by tile. `c` starts at the block's
/// top-left output element; `ldc` is the full output row stride.
fn macro_kernel(
    a_pack: &[f32],
    b_pack: &[f32],
    mc: usize,
    nc: usize,
    kc: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let mut jr = 0;
    while jr < nc {
        let nr = NR.min(nc - jr);
        let b_panel = &b_pack[(jr / NR) * kc * NR..][..kc * NR];
        let mut ir = 0;
        while ir < mc {
            let mr = MR.min(mc - ir);
            let a_panel = &a_pack[(ir / MR) * kc * MR..][..kc * MR];
            let tile = &mut c[ir * ldc + jr..];
            if mr == MR && nr == NR {
                micro_kernel_full(kc, a_panel, b_panel, tile, ldc);
            } else {
                micro_kernel_edge(kc, mr, nr, a_panel, b_panel, tile, ldc);
            }
            ir += MR;
        }
        jr += NR;
    }
}

/// Full-tile microkernel dispatch: the AVX2 build of the kernel when the
/// CPU has it (the feature probe is cached by `std`), the portable
/// autovectorized build otherwise. Both accumulate with one rounding per
/// multiply and one per add in identical order, so the choice never
/// changes an output bit.
#[inline]
fn micro_kernel_full(kc: usize, a_panel: &[f32], b_panel: &[f32], c: &mut [f32], ldc: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        debug_assert!(a_panel.len() >= kc * MR && b_panel.len() >= kc * NR);
        debug_assert!(c.len() >= (MR - 1) * ldc + NR);
        // SAFETY: AVX2 was just detected, and the panel/tile bounds the
        // intrinsics read and write are asserted above.
        unsafe { micro_kernel_full_avx2(kc, a_panel, b_panel, c, ldc) };
        return;
    }
    micro_kernel_full_portable(kc, a_panel, b_panel, c, ldc);
}

/// AVX2 build of the full-tile microkernel: the 4x16 accumulator tile is
/// eight `ymm` registers; each k step broadcasts one `A` lane per row and
/// does vector multiply *then* vector add. FMA is deliberately not used —
/// fusing would drop the intermediate rounding and break bit-parity with
/// the naive loops.
///
/// # Safety
/// Requires AVX2. `a_panel`/`b_panel` must hold at least `kc` packed
/// steps and `c` must span the full `MR x NR` tile at row stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn micro_kernel_full_avx2(
    kc: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    unsafe {
        let mut acc = [[_mm256_set1_ps(0.0); 2]; MR];
        for (i, row) in acc.iter_mut().enumerate() {
            row[0] = _mm256_loadu_ps(c.as_ptr().add(i * ldc));
            row[1] = _mm256_loadu_ps(c.as_ptr().add(i * ldc + 8));
        }
        for p in 0..kc {
            let ap = a_panel.as_ptr().add(p * MR);
            let bp = b_panel.as_ptr().add(p * NR);
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for (i, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ap.add(i));
                row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(av, b0));
                row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(av, b1));
            }
        }
        for (i, row) in acc.iter().enumerate() {
            _mm256_storeu_ps(c.as_mut_ptr().add(i * ldc), row[0]);
            _mm256_storeu_ps(c.as_mut_ptr().add(i * ldc + 8), row[1]);
        }
    }
}

/// Portable build of the full-tile microkernel: loads the current C
/// tile, accumulates one k-panel front to back, stores the tile once.
/// The fixed-size accumulator array keeps the tile in whatever vector
/// registers the target offers.
#[inline(always)]
fn micro_kernel_full_portable(
    kc: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[i * ldc..i * ldc + NR]);
    }
    for (ap, bp) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)).take(kc) {
        for (i, row) in acc.iter_mut().enumerate() {
            let av = ap[i];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot += av * bp[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        c[i * ldc..i * ldc + NR].copy_from_slice(row);
    }
}

/// Ragged-edge microkernel for tiles narrower than `MR x NR`; same
/// strictly-increasing-k accumulation order as the full tile.
fn micro_kernel_edge(
    kc: usize,
    mr: usize,
    nr: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
) {
    for (ap, bp) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)).take(kc) {
        for i in 0..mr {
            let av = ap[i];
            let row = &mut c[i * ldc..i * ldc + nr];
            for (slot, &bv) in row.iter_mut().zip(&bp[..nr]) {
                *slot += av * bv;
            }
        }
    }
}
