//! GEMM kernels: cache-blocked and panel-packed for large products, one
//! register-accumulating row kernel for small ones.
//!
//! Plain triple loops stream the full `B` operand through cache once per
//! row of `A`; above a few dozen rows that turns matmul memory-bound. The
//! blocked kernels use the classic BLIS-style decomposition instead: the
//! iteration space is tiled into `MC x KC` blocks of `A` and `KC x NC`
//! blocks of `B`, both repacked into contiguous panels, and the innermost
//! work is an `MR x NR` register-tiled microkernel whose fixed-size loops
//! LLVM unrolls and autovectorizes. Packing costs `O(mk + kn)` against
//! `O(mkn)` multiplies, so it amortizes for every shape past the
//! [`use_blocked`] cutoff; below it, [`gemm_rows`] needs no packing.
//!
//! Determinism contract: for every output element `C[i][j]` the k-terms
//! are accumulated in strictly increasing `k` order — the blocking loops
//! only partition the output space and split `k` into panels that are
//! visited in order, the microkernel walks each panel front to back, and
//! the row kernel walks `k` front to back per row. Every partial sum is
//! rounded to `f32` exactly as a naive i-k-j loop rounds its own, so every
//! kernel and every build of it (AVX2 or portable) produces bit-identical
//! results, and training trajectories do not depend on which path a shape
//! dispatches to. It follows that rows are independent: row `i` of
//! `A * B` is the same bits whichever other rows share the product, so
//! stacking several inputs into one GEMM (as batched inference and the
//! row-stacked training executor do) changes no output.

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
/// Everything else runs [`gemm_rows`], which holds output rows in
/// registers and needs no packing: scalar heads, single-row LSTM steps,
/// batch-of-one forwards, the per-example weight gradients `X_e^T * G_e`
/// of row-stacked training (`k` is a sequence length), and any product
/// narrower than one `NR`-column microkernel tile, which the blocked path
/// could only run on its edge kernel. Measured with AVX2 (best of 7, µs,
/// blocked vs rows): `8x96x48` 4.4 vs 2.1, `24x96x48` 6.7 vs 6.1,
/// `64x96x48` 14.8 vs 15.4, `128x96x48` 27.3 vs 30.6; `160x48x8` 24 vs 5.
#[inline]
pub(crate) fn use_blocked(m: usize, k: usize, n: usize) -> bool {
    m >= 32 && k >= 8 && n >= NR && m * k * n >= 16_384
}

/// `out += A * B` for the shapes below the blocked cutoff: one i-k-j body
/// whose inner loop is contiguous in `B` and `out`. `A` is read through
/// strides, `A[i][p] = a[i * row_stride + p * col_stride]`, so `A * B`
/// (`(k, 1)`) and `A^T * B` with `A` stored `k x m` (`(1, m)`) share it;
/// `B` is `k x n` row-major. Zero elements of `A` are multiplied like any
/// other: with rows held in registers, skipping them costs a branch
/// mispredict and saves one vector multiply-add (at 160 x 48 x 8, skipping
/// 90%-zero operands took 9.0 µs against 4.9 µs dense).
///
/// Every output element accumulates its k-terms in increasing `k` order
/// with one rounding per multiply and one per add, as the blocked kernels
/// do. The AVX2 build runs when the CPU has it and is bit-identical to the
/// portable one: vector multiply *then* vector add, never FMA.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_rows(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    (row_stride, col_stride): (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert!(m == 0 || k == 0 || a.len() > (m - 1) * row_stride + (k - 1) * col_stride);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was just detected; every access is bounds-checked
        // slice indexing or stays inside the row slices (see the body).
        unsafe { gemm_rows_avx2(m, k, n, a, (row_stride, col_stride), b, out) };
        return;
    }
    gemm_rows_portable(m, k, n, a, (row_stride, col_stride), b, out);
}

/// Portable build of [`gemm_rows`]: eight output columns at a time in a
/// local accumulator, so the target's vector registers can hold them.
#[allow(clippy::too_many_arguments)]
fn gemm_rows_portable(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    (row_stride, col_stride): (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    for i in 0..m {
        for (c, out_chunk) in out[i * n..(i + 1) * n].chunks_mut(8).enumerate() {
            let (j, width) = (8 * c, out_chunk.len());
            let mut acc = [0.0f32; 8];
            acc[..width].copy_from_slice(out_chunk);
            for p in 0..k {
                let av = a[i * row_stride + p * col_stride];
                for (slot, &bv) in acc.iter_mut().zip(&b[p * n + j..p * n + j + width]) {
                    *slot += av * bv;
                }
            }
            out_chunk.copy_from_slice(&acc[..width]);
        }
    }
}

/// AVX2 build of [`gemm_rows`]. Each output row is held in registers
/// across the whole k loop — 32 columns (four vectors) at a time, then 8,
/// then a masked tail — so the accumulation chains never round-trip
/// through memory. Per element the operations are the portable loop's:
/// vector multiply *then* vector add (no FMA), in increasing `k` order, so
/// every element rounds identically.
///
/// # Safety
/// Requires AVX2, `a` covering every `(i, p)` it strides to, `b` holding
/// `k * n` and `out` `m * n` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_rows_avx2(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    (row_stride, col_stride): (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_loadu_ps, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
        _mm256_storeu_ps,
    };
    assert!(b.len() >= k * n && out.len() >= m * n);
    // Lanes `0..n % 8` of the masked tail.
    let tail = n % 8;
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(tail as i32), lanes);
    // SAFETY (all blocks below): every vector access reads or writes
    // columns `j..j + 8 * V` (or the masked tail's `j..n`) of row `p` of
    // `b` or row `i` of `out`, inside the lengths asserted above.
    for i in 0..m {
        let a_row = |p: usize| a[i * row_stride + p * col_stride];
        let o = unsafe { out.as_mut_ptr().add(i * n) };
        let accumulate = |acc: &mut [__m256], j: usize| {
            for p in 0..k {
                let av = _mm256_set1_ps(a_row(p));
                let bp = unsafe { b.as_ptr().add(p * n + j) };
                for (v, slot) in acc.iter_mut().enumerate() {
                    let bv = unsafe { _mm256_loadu_ps(bp.add(8 * v)) };
                    *slot = _mm256_add_ps(*slot, _mm256_mul_ps(av, bv));
                }
            }
        };
        let mut j = 0;
        while j + 32 <= n {
            let mut acc: [__m256; 4] =
                std::array::from_fn(|v| unsafe { _mm256_loadu_ps(o.add(j + 8 * v)) });
            accumulate(&mut acc, j);
            for (v, slot) in acc.iter().enumerate() {
                unsafe { _mm256_storeu_ps(o.add(j + 8 * v), *slot) };
            }
            j += 32;
        }
        while j + 8 <= n {
            let mut acc = [unsafe { _mm256_loadu_ps(o.add(j)) }];
            accumulate(&mut acc, j);
            unsafe { _mm256_storeu_ps(o.add(j), acc[0]) };
            j += 8;
        }
        if tail > 0 {
            let mut acc = unsafe { _mm256_maskload_ps(o.add(j), mask) };
            for p in 0..k {
                let bv = unsafe { _mm256_maskload_ps(b.as_ptr().add(p * n + j), mask) };
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(a_row(p)), bv));
            }
            unsafe { _mm256_maskstore_ps(o.add(j), mask, acc) };
        }
    }
}

/// `out += A * B` where `A` is `m x k` row-major and `B` is `k x n`
/// row-major. `out` must hold `m * n` elements (normally zeroed).
pub(crate) fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm_with(m, k, n, |i, p| a[i * k + p], |p, j| b[p * n + j], out);
}

/// `out += A^T * B` where `at` is the transposed operand stored `k x m`
/// row-major and `B` is `k x n` row-major.
pub(crate) fn gemm_at(m: usize, k: usize, n: usize, at: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(at.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    gemm_with(m, k, n, |i, p| at[p * m + i], |p, j| b[p * n + j], out);
}

/// Blocked driver, generic over element accessors so both operand
/// layouts share one core: packing adapts to the operand layout, the
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `len` values in [-1, 1), a quarter of them exact zeros, half of
    /// those negative.
    fn operand(rng: &mut SmallRng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Both builds of `gemm_rows`, for both operand layouts, must agree to
    /// the bit on every shape in m 1-12 x k 1-10 x n 1-40, accumulating
    /// onto a nonzero `out`.
    #[test]
    fn gemm_rows_builds_are_bit_identical() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let mut rng = SmallRng::seed_from_u64(41);
        for m in 1..=12 {
            for k in 1..=10 {
                for n in 1..=40 {
                    let a = operand(&mut rng, m * k);
                    let b = operand(&mut rng, k * n);
                    let start = operand(&mut rng, m * n);
                    for strides in [(k, 1), (1, m)] {
                        let mut portable = start.clone();
                        gemm_rows_portable(m, k, n, &a, strides, &b, &mut portable);
                        let mut dispatched = start.clone();
                        gemm_rows(m, k, n, &a, strides, &b, &mut dispatched);
                        assert_eq!(bits(&portable), bits(&dispatched), "{m}x{k}x{n}");
                        #[cfg(target_arch = "x86_64")]
                        if avx2 {
                            let mut wide = start.clone();
                            // SAFETY: AVX2 was detected above.
                            unsafe { gemm_rows_avx2(m, k, n, &a, strides, &b, &mut wide) };
                            assert_eq!(bits(&portable), bits(&wide), "{m}x{k}x{n} avx2");
                        }
                    }
                }
            }
        }
    }

    /// Both builds of the full-tile microkernel agree to the bit, for
    /// k-panels of 1-10 steps and output row strides of 16-40.
    #[test]
    fn micro_kernel_builds_are_bit_identical() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let mut rng = SmallRng::seed_from_u64(43);
        for kc in 1..=10 {
            for ldc in NR..=40 {
                let a_panel = operand(&mut rng, kc * MR);
                let b_panel = operand(&mut rng, kc * NR);
                let start = operand(&mut rng, (MR - 1) * ldc + NR);
                let mut portable = start.clone();
                micro_kernel_full_portable(kc, &a_panel, &b_panel, &mut portable, ldc);
                let mut dispatched = start.clone();
                micro_kernel_full(kc, &a_panel, &b_panel, &mut dispatched, ldc);
                assert_eq!(bits(&portable), bits(&dispatched), "kc {kc} ldc {ldc}");
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    let mut wide = start.clone();
                    // SAFETY: AVX2 was detected above; the tile spans
                    // `(MR - 1) * ldc + NR` elements.
                    unsafe { micro_kernel_full_avx2(kc, &a_panel, &b_panel, &mut wide, ldc) };
                    assert_eq!(bits(&portable), bits(&wide), "kc {kc} ldc {ldc} avx2");
                }
            }
        }
    }
}
