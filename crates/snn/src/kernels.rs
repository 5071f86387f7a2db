//! Runtime-dispatched SIMD kernels for the hot inner loops of inference
//! and of STDP training:
//!
//! * the one drive kernel of both: per-sample row sums
//!   ([`Kernel::sum_rows`], each drive lane summed over the active rows
//!   in registers and stored once). The batched engine's tile sweep sums
//!   the effective plane's rows with it, and clean-store training sums
//!   the depressed store rows with it (the sparse depression itself,
//!   which rewrites only the live post lanes of each active row, is a
//!   scalar loop in [`StdpState`](crate::stdp::StdpState));
//! * inference: the reference path's row-at-a-time drive accumulation
//!   (both the `clamp_reads` effective-weight transform and the
//!   finite-filter path), the branch-free LIF lane update, and the
//!   lateral-inhibition sweep;
//! * training (`DiehlCookNetwork::train_epoch`): the dirty-store fused
//!   depression + drive row pass ([`Kernel::depress_accumulate`]), the
//!   potentiation column walk ([`Kernel::potentiate_column`]) and the two
//!   sweeps of column normalisation ([`Kernel::accumulate_effective`] for
//!   the column sums, [`Kernel::rescale_effective`] for the scale pass),
//!   the last three with clean-store variants (see below).
//!
//! # Clean-store training kernels
//!
//! Every generic training pass reads each stored word through the synapse
//! read rule [`StoredWeights::effective`] (non-finite → 0, else clamped
//! into `[0, w_max]`), because fault-aware training starts from a
//! corrupted image. A store is *clean* when every word satisfies
//! `w >= 0.0 && w <= w_max`: such a word is finite, and the read rule
//! returns it bit for bit (`-0.0` included, since `-0.0 < 0.0` is false).
//! So on a clean store the read rule can be dropped without changing a
//! bit: [`Kernel::accumulate_clean`], [`Kernel::rescale_clean`] and
//! [`Kernel::potentiate_column_clean`] are the generic passes with the
//! read rule replaced by the identity (and the rescale pass without its
//! dead-column select, which it may only skip when no scale is NaN).
//! [`Kernel::rescale_sum_clean`] fuses the clean scale pass with the
//! next normalisation's column sums, so a clean epoch sums the store in
//! full once and afterwards re-sums only the columns a sample wrote.
//!
//! A clean store stays clean: depression, potentiation and rescaling all
//! clamp their finite results into `[0, w_max]`, and a dead column keeps
//! words that were already clean. A dirty store (after an error injection)
//! becomes clean after its first normalisation with no dead column, which
//! rewrites every word into range. Training tracks this with one flag per
//! epoch — one scan when the epoch starts, updated after each
//! normalisation — and falls back to the generic passes whenever it is not
//! known clean. The generic kernels stay as that dirty-store path and as
//! the reference the clean ones are tested against.
//!
//! Poisson encoding, the other per-sample cost, runs ahead of training on
//! a pool helper (the `feed` module): a bounded ring of pre-encoded spike
//! trains, one encoder cursor behind a lock so the epoch RNG is drawn in
//! dataset order, and an inline fallback — when the trainer's sample is
//! not ready and the cursor is free, the trainer encodes it itself, so a
//! single configured thread or a busy helper never stalls training. In
//! batched inference every sample owns its RNG stream, so the chunk's
//! streams are drawn together: the AVX2 kernel steps four xoshiro256++
//! generators in lockstep, one per 64-bit lane
//! ([`PoissonEncoder::encode_planned_chunk`](crate::coding::PoissonEncoder::encode_planned_chunk)),
//! and each stream's draws and state are exactly its serial ones.
//!
//! # Dispatch
//!
//! A [`Kernel`] is a resolved implementation choice:
//!
//! | kernel             | ISA                | selected by                         |
//! |--------------------|--------------------|-------------------------------------|
//! | [`Kernel::Scalar`] | portable           | `SPARKXD_KERNEL=scalar`, or `auto` on hosts without AVX2 |
//! | [`Kernel::Avx2`]   | x86_64 AVX2        | `SPARKXD_KERNEL=avx2`, or `auto` on hosts with AVX2 |
//!
//! Selection starts from a [`KernelChoice`] (`auto` unless the
//! `SPARKXD_KERNEL` environment variable or a builder such as
//! [`BatchEvaluator::with_kernel`](crate::engine::BatchEvaluator::with_kernel)
//! says otherwise) and resolves through [`KernelChoice::resolve`], which
//! consults [`is_x86_feature_detected!`] at runtime — `avx2` on a host
//! without AVX2 warns once on stderr and falls back to the portable
//! kernel, so a pinned configuration can never execute an unsupported
//! instruction. Every dispatch method double-checks the feature before
//! entering a `#[target_feature]` function, so even a hand-constructed
//! [`Kernel::Avx2`] is safe everywhere.
//!
//! # Bit-identity argument
//!
//! Every kernel entry point has **one body**: an `#[inline(always)]`
//! portable loop, which the AVX2 arm recompiles under
//! `#[target_feature(enable = "avx2")]` through a one-call wrapper. The
//! two kernels differ only in the instructions the compiler may pick, and
//! that makes them bit-identical by construction: rustc never contracts a
//! multiply and an add into an FMA (which would skip an intermediate
//! rounding) and never reassociates float arithmetic (which would reorder
//! a sum), so the vectorised code performs each lane's scalar IEEE-754
//! operation sequence in order, and a select `if c { a } else { b }`
//! becomes a compare and a blend with the same truth table. The row sums
//! keep one accumulator per lane, started at `+0.0`, and add the rows in
//! the order given.
//!
//! The inhibition sweep computes the model's `x.max(floor)`, with
//! `x = v - strength` ([`LifState::inhibit`](crate::neuron::LifState::inhibit)),
//! as the select `if x > floor { x } else { floor }`, which compiles to
//! one `max`. That is the one documented precondition: the two agree for
//! every `x`, NaN included, provided `floor` is a non-NaN value that is
//! not a signed zero — always true for the model's floor of
//! [`LifConfig::inhibition_floor`] (strictly below `v_reset`).
//! `tests/kernel_invariance.rs` checks the sweep, the two accumulates and
//! the row sums against independent per-lane references, across
//! NaN/Inf/negative/denormal inputs and every tail alignment.
//!
//! The lockstep Poisson encoder is the one hand-written SIMD left. Its
//! lanes are 64-bit xoshiro256++ states; the same lockstep written
//! portably over `[u64; 4]` and recompiled for AVX2 ran a four-stream step
//! in 3.3 µs, slower than four serial streams (1.9 µs), against 1.4 µs for
//! the intrinsics.

use crate::neuron::LifConfig;
use crate::stdp::StdpConfig;
use crate::synapse::StoredWeights;

/// How many inputs ahead the potentiation column walk prefetches.
const PREFETCH_ROWS: usize = 16;

/// A kernel *request*: what the caller asked for, before runtime feature
/// detection. Parsed from `SPARKXD_KERNEL` (`auto` | `scalar` | `avx2`)
/// or pinned via builder APIs; resolve to an executable [`Kernel`] with
/// [`KernelChoice::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Pick the widest kernel the host supports (the default).
    #[default]
    Auto,
    /// Force the portable scalar kernel.
    Scalar,
    /// Request the AVX2 kernel; falls back to scalar (with a once-per-
    /// process stderr warning) when the host lacks AVX2.
    Avx2,
}

/// Parses a `SPARKXD_KERNEL` value, case-insensitively.
impl std::str::FromStr for KernelChoice {
    type Err = &'static str;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw.to_ascii_lowercase().as_str() {
            "auto" => Ok(Self::Auto),
            "scalar" => Ok(Self::Scalar),
            "avx2" => Ok(Self::Avx2),
            _ => Err("expected auto|scalar|avx2"),
        }
    }
}

impl KernelChoice {
    /// Resolves the request against the host's actual features. `Auto`
    /// picks AVX2 when available; an explicit `Avx2` request on a host
    /// without it warns once on stderr and degrades to [`Kernel::Scalar`]
    /// rather than executing unsupported instructions.
    pub fn resolve(self) -> Kernel {
        match self {
            Self::Scalar => Kernel::Scalar,
            Self::Auto => {
                if avx2_supported() {
                    Kernel::Avx2
                } else {
                    Kernel::Scalar
                }
            }
            Self::Avx2 => {
                if avx2_supported() {
                    Kernel::Avx2
                } else {
                    static WARNED: std::sync::Once = std::sync::Once::new();
                    WARNED.call_once(|| {
                        eprintln!(
                            "sparkxd: SPARKXD_KERNEL=avx2 requested but this host \
                             has no AVX2; using the portable scalar kernel"
                        );
                    });
                    Kernel::Scalar
                }
            }
        }
    }

    /// The canonical spelling (`auto` / `scalar` / `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
        }
    }
}

/// `true` when the host can execute the AVX2 kernels (checked at runtime;
/// always `false` off x86_64).
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A resolved, executable kernel implementation. Obtain one from
/// [`KernelChoice::resolve`] (or [`engine::kernel`](crate::engine::kernel)
/// for the environment default); every method is safe on every host —
/// [`Kernel::Avx2`] re-verifies the CPU feature before entering
/// `#[target_feature]` code and otherwise runs the portable kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// The portable body compiled for the baseline ISA (the reference
    /// implementation).
    #[default]
    Scalar,
    /// The portable kernel recompiled for x86_64 AVX2, bit-identical to
    /// `Scalar`.
    Avx2,
}

impl Kernel {
    /// The kernels this host can actually execute, widest last. Useful
    /// for per-kernel benchmark rows and invariance sweeps.
    pub fn available() -> &'static [Kernel] {
        if avx2_supported() {
            &[Kernel::Scalar, Kernel::Avx2]
        } else {
            &[Kernel::Scalar]
        }
    }

    /// The kernel's label (`scalar` / `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
        }
    }

    #[inline]
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn run_avx2(self) -> bool {
        self == Kernel::Avx2 && avx2_supported()
    }

    /// One sample's drive over one neuron tile: for every lane `j` of
    /// `drive`, writes the sum of `matrix[r * stride + offset + j]` over
    /// the rows `r` in `rows`, added in the order given onto `+0.0`:
    /// `drive[j] = ((+0.0 + m[r₀][j]) + m[r₁][j]) + …`. That is each
    /// lane's exact sequence under zeroing `drive` and then accumulating
    /// the rows one by one, but the partial sums stay in registers and
    /// each drive lane is stored once, not read and rewritten per row.
    ///
    /// The batched tile sweep calls this per sample with the sample's
    /// live active rows of the [`EffectivePlane`](crate::synapse::EffectivePlane)
    /// (`stride` = neurons, `offset` = the tile's first lane), and
    /// clean-store training per timestep with the depressed store rows
    /// (`offset` 0, every lane). Each row is prefetched two register
    /// blocks ahead, only inside its own slice; the hint moves no bit.
    ///
    /// # Panics
    ///
    /// Panics if any row's slice `[r * stride + offset, .. + drive.len())`
    /// falls outside `matrix`.
    pub fn sum_rows(
        self,
        drive: &mut [f32],
        matrix: &[f32],
        stride: usize,
        offset: usize,
        rows: &[usize],
    ) {
        check_row_bounds(matrix.len(), stride, offset, rows, drive.len());
        #[cfg(target_arch = "x86_64")]
        if self.run_avx2() {
            // SAFETY: AVX2 presence verified at runtime just above; row
            // bounds checked against `matrix` just above.
            unsafe { avx2::sum_rows(drive, matrix, stride, offset, rows) };
            return;
        }
        // SAFETY: row bounds checked against `matrix` just above.
        unsafe { scalar::sum_rows(drive, matrix, stride, offset, rows) };
    }

    /// The scalar reference path's `clamp_reads` accumulate:
    /// `drive[j] += StoredWeights::effective(row[j], w_max)` per lane
    /// (non-finite → 0, else clamped into `[0, w_max]`).
    pub fn accumulate_effective(self, drive: &mut [f32], row: &[f32], w_max: f32) {
        #[cfg(target_arch = "x86_64")]
        if self.run_avx2() {
            // SAFETY: AVX2 presence verified at runtime just above.
            unsafe { avx2::accumulate_effective(drive, row, w_max) };
            return;
        }
        scalar::accumulate_effective(drive, row, w_max);
    }

    /// The scalar reference path's unclamped accumulate: adds `row[j]`
    /// into `drive[j]` only where the weight is finite, leaving the
    /// accumulator's bits untouched (not even `+ 0.0`) elsewhere.
    pub fn accumulate_finite(self, drive: &mut [f32], row: &[f32]) {
        #[cfg(target_arch = "x86_64")]
        if self.run_avx2() {
            // SAFETY: AVX2 presence verified at runtime just above.
            unsafe { avx2::accumulate_finite(drive, row) };
            return;
        }
        scalar::accumulate_finite(drive, row);
    }

    /// The fused STDP depression + drive row pass of training on a dirty
    /// store (clean-store training rewrites only the live lanes and sums
    /// the rows with [`sum_rows`](Self::sum_rows)): rewrites every lane
    /// of one active input's fan-out `row` to
    /// `w' = (StoredWeights::effective(w, w_max) - lr * trace_post[j]).clamp(0.0, w_max)`
    /// and adds `w'` into `drive[j]` in the same pass.
    ///
    /// `w'` is always finite and inside `[0, w_max]` (for finite traces),
    /// so both drive read rules — the clamped
    /// [`accumulate_effective`](Self::accumulate_effective) and the
    /// unclamped [`accumulate_finite`](Self::accumulate_finite) — would
    /// add exactly `w'` had they re-read the rewritten row afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `row`, `trace_post` and `drive` have different lengths.
    pub fn depress_accumulate(
        self,
        row: &mut [f32],
        trace_post: &[f32],
        lr: f32,
        w_max: f32,
        drive: &mut [f32],
    ) {
        assert!(
            trace_post.len() == row.len() && drive.len() == row.len(),
            "depression row, post traces and drive must have matching lengths"
        );
        #[cfg(target_arch = "x86_64")]
        if self.run_avx2() {
            // SAFETY: AVX2 presence verified at runtime just above.
            unsafe { avx2::depress_accumulate(row, trace_post, lr, w_max, drive) };
            return;
        }
        scalar::depress_accumulate(row, trace_post, lr, w_max, drive);
    }

    /// The column-sum pass of normalisation over one *clean* row:
    /// `sums[j] += row[j]`. Bit-identical to
    /// [`accumulate_effective`](Self::accumulate_effective) on a clean
    /// row, where the read rule is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `sums` and `row` have different lengths.
    pub fn accumulate_clean(self, sums: &mut [f32], row: &[f32]) {
        assert_eq!(sums.len(), row.len(), "sums and row must match");
        #[cfg(target_arch = "x86_64")]
        if self.run_avx2() {
            // SAFETY: AVX2 presence verified at runtime just above.
            unsafe { avx2::accumulate_clean(sums, row) };
            return;
        }
        scalar::accumulate_clean(sums, row);
    }

    /// The scale pass of column normalisation over one row:
    /// `row[j] = (StoredWeights::effective(row[j], w_max) * scales[j]).clamp(0.0, w_max)`,
    /// except that a NaN scale (a dead column) keeps the stored word's
    /// exact bits. Branch-free: the dead-column case is a select, not a
    /// skipped lane.
    ///
    /// # Panics
    ///
    /// Panics if `row` and `scales` have different lengths.
    pub fn rescale_effective(self, row: &mut [f32], scales: &[f32], w_max: f32) {
        self.rescale::<false>(row, scales, w_max);
    }

    /// The scale pass on a *clean* row when no column is dead:
    /// `row[j] = (row[j] * scales[j]).clamp(0.0, w_max)`, without the read
    /// rule or the dead-column select. Bit-identical to
    /// [`rescale_effective`](Self::rescale_effective) when every word of
    /// `row` is clean and no scale is NaN.
    ///
    /// # Panics
    ///
    /// As [`rescale_effective`](Self::rescale_effective).
    pub fn rescale_clean(self, row: &mut [f32], scales: &[f32], w_max: f32) {
        self.rescale::<true>(row, scales, w_max);
    }

    /// [`rescale_clean`](Self::rescale_clean) fused with the next column
    /// sums: rewrites `row[j] = (row[j] * scales[j]).clamp(0.0, w_max)` and
    /// adds the rewritten word into `sums[j]` in the same pass. Over every
    /// row of a store in ascending order onto zeroed sums, that is the
    /// rescale pass followed by the [`accumulate_clean`](Self::accumulate_clean)
    /// column sums of the rescaled store, bit for bit, with one pass over
    /// the words instead of two. Same preconditions as `rescale_clean`.
    ///
    /// # Panics
    ///
    /// Panics if `row`, `scales` and `sums` have different lengths.
    pub fn rescale_sum_clean(self, row: &mut [f32], scales: &[f32], w_max: f32, sums: &mut [f32]) {
        assert!(
            scales.len() == row.len() && sums.len() == row.len(),
            "row, scales and sums must have matching lengths"
        );
        #[cfg(target_arch = "x86_64")]
        if self.run_avx2() {
            // SAFETY: AVX2 presence verified at runtime just above.
            unsafe { avx2::rescale_sum_clean(row, scales, w_max, sums) };
            return;
        }
        scalar::rescale_sum_clean(row, scales, w_max, sums);
    }

    fn rescale<const CLEAN: bool>(self, row: &mut [f32], scales: &[f32], w_max: f32) {
        assert_eq!(row.len(), scales.len(), "row and scales must match");
        #[cfg(target_arch = "x86_64")]
        if self.run_avx2() {
            // SAFETY: AVX2 presence verified at runtime just above.
            unsafe { avx2::rescale::<CLEAN>(row, scales, w_max) };
            return;
        }
        scalar::rescale::<CLEAN>(row, scales, w_max);
    }

    /// STDP potentiation of one firing neuron's input column: walks
    /// `weights[i * neurons + column]` down the row-major store and
    /// rewrites each word to
    /// `(e + lr * (trace_pre[i] - x_target) * (w_max - e)).clamp(0.0, w_max)`
    /// with `e = StoredWeights::effective(w, w_max)`, `lr` and `x_target`
    /// taken from `stdp`. The walk hints the word a few inputs ahead into
    /// cache, since consecutive words are `neurons` apart.
    ///
    /// # Panics
    ///
    /// Panics if `column >= neurons` or the walk of `trace_pre.len()` rows
    /// leaves `weights`.
    pub fn potentiate_column(
        self,
        weights: &mut [f32],
        neurons: usize,
        column: usize,
        trace_pre: &[f32],
        stdp: &StdpConfig,
        w_max: f32,
    ) {
        self.potentiate::<false>(weights, neurons, column, trace_pre, stdp, w_max);
    }

    /// [`potentiate_column`](Self::potentiate_column) on a *clean* column
    /// (`e = w`, no read rule). Bit-identical to the generic walk when
    /// every word of the column is clean.
    ///
    /// # Panics
    ///
    /// As [`potentiate_column`](Self::potentiate_column).
    pub fn potentiate_column_clean(
        self,
        weights: &mut [f32],
        neurons: usize,
        column: usize,
        trace_pre: &[f32],
        stdp: &StdpConfig,
        w_max: f32,
    ) {
        self.potentiate::<true>(weights, neurons, column, trace_pre, stdp, w_max);
    }

    fn potentiate<const CLEAN: bool>(
        self,
        weights: &mut [f32],
        neurons: usize,
        column: usize,
        trace_pre: &[f32],
        stdp: &StdpConfig,
        w_max: f32,
    ) {
        assert!(
            column < neurons,
            "column {column} out of range ({neurons} neurons)"
        );
        #[cfg(target_arch = "x86_64")]
        if self.run_avx2() {
            // SAFETY: AVX2 presence verified at runtime just above.
            unsafe {
                avx2::potentiate_column::<CLEAN>(weights, neurons, column, trace_pre, stdp, w_max)
            };
            return;
        }
        scalar::potentiate_column::<CLEAN>(weights, neurons, column, trace_pre, stdp, w_max);
    }

    /// Advances one sample's SoA membrane lanes by one timestep: decays
    /// the adaptive thresholds, clamps refractory lanes, leaks + integrates
    /// the drive, and records threshold crossings in `lanes.crossed`.
    /// Returns whether any lane crossed, so quiet timesteps skip the
    /// firing/inhibition passes entirely.
    ///
    /// The arithmetic mirrors [`LifState::integrate`](crate::neuron::LifState::integrate)
    /// operation for operation (including evaluation order, so every
    /// intermediate rounds identically) — results are bit-identical to the
    /// scalar path. The invariance test battery guards the equivalence.
    ///
    /// # Panics
    ///
    /// Panics if the lane slabs have mismatched lengths.
    pub fn integrate_lanes(self, lif: &LifConfig, dt_ms: f32, lanes: LifLanes<'_>) -> bool {
        let LifLanes {
            v,
            theta,
            refractory,
            drive,
            crossed,
        } = lanes;
        let n = v.len();
        assert!(
            theta.len() == n && refractory.len() == n && drive.len() == n && crossed.len() == n,
            "membrane lane slabs must have matching lengths"
        );
        #[cfg(target_arch = "x86_64")]
        if self.run_avx2() {
            // SAFETY: AVX2 presence verified at runtime just above;
            // slab lengths verified equal just above.
            return unsafe {
                avx2::integrate_lanes(lif, dt_ms, v, theta, refractory, drive, crossed)
            };
        }
        scalar::integrate_lanes_out_of_line(lif, dt_ms, v, theta, refractory, drive, crossed)
    }

    /// The lateral-inhibition sweep over one contiguous run of non-firing
    /// lanes: `v[j] = (v[j] - strength).max(floor)` per lane, for a finite
    /// `floor` that is not a signed zero (see the module docs). Callers
    /// walk the (sorted) fired list and hand over the gaps between
    /// winners, so no per-lane mask is needed.
    pub fn inhibit_lanes(self, v: &mut [f32], strength: f32, floor: f32) {
        debug_assert!(
            floor.is_finite() && floor != 0.0,
            "inhibition floor must be finite and not a signed zero"
        );
        #[cfg(target_arch = "x86_64")]
        if self.run_avx2() {
            // SAFETY: AVX2 presence verified at runtime just above.
            unsafe { avx2::inhibit_lanes(v, strength, floor) };
            return;
        }
        scalar::inhibit_lanes(v, strength, floor);
    }
}

/// One sample's SoA membrane lanes, borrowed for [`Kernel::integrate_lanes`].
/// All five slices must have the same length.
#[derive(Debug)]
pub struct LifLanes<'a> {
    /// Membrane potentials.
    pub v: &'a mut [f32],
    /// Adaptive-threshold working copies.
    pub theta: &'a mut [f32],
    /// Remaining refractory times.
    pub refractory: &'a mut [f32],
    /// This timestep's accumulated synaptic drive.
    pub drive: &'a [f32],
    /// Output: which lanes reached threshold this timestep.
    pub crossed: &'a mut [bool],
}

/// Hints the hardware to pull the cache line holding `word` towards L1.
/// The potentiation column walk issues it on the word a few inputs ahead,
/// since consecutive words of a column lie `neurons` apart. Purely a
/// scheduling hint: results are unaffected on every target, and the
/// function is a no-op off x86_64.
#[inline]
fn prefetch(word: &f32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no architectural effect beyond the cache.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((word as *const f32).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = word;
}

/// Validates that every row's slice `[r * stride + offset, .. + len)`
/// lies inside a matrix of `matrix_len` values (overflow-checked), so the
/// kernels can use unchecked row addressing afterwards.
fn check_row_bounds(matrix_len: usize, stride: usize, offset: usize, rows: &[usize], len: usize) {
    for &r in rows {
        let end = r
            .checked_mul(stride)
            .and_then(|s| s.checked_add(offset))
            .and_then(|s| s.checked_add(len));
        assert!(
            end.is_some_and(|end| end <= matrix_len),
            "row {r} slice at offset {offset} (+{len}) out of bounds (matrix has {matrix_len})"
        );
    }
}

/// The portable kernel, and the one body of every entry point: plain
/// lanewise loops the compiler vectorises at the baseline ISA. Every
/// function is `#[inline(always)]`, so the AVX2 module recompiles the very
/// same body under `target_feature`. These loops *are* the reference
/// semantics.
mod scalar {
    use super::{LifConfig, StdpConfig, StoredWeights, PREFETCH_ROWS};
    use std::slice;

    /// Lanes per register block of the row sums.
    const SUM_BLOCK: usize = 32;

    /// How far ahead, in lanes, the row sums prefetch each row: two
    /// register blocks, so a row's next lines arrive while this block and
    /// the next are summed.
    const SUM_AHEAD: usize = 2 * SUM_BLOCK;

    /// # Safety
    ///
    /// Every row slice `[r * stride + offset, .. + drive.len())` must lie
    /// inside `matrix` (the dispatcher checks it).
    #[inline(always)]
    pub(super) unsafe fn sum_rows(
        drive: &mut [f32],
        matrix: &[f32],
        stride: usize,
        offset: usize,
        rows: &[usize],
    ) {
        let len = drive.len();
        let mut blocks = drive.chunks_exact_mut(SUM_BLOCK);
        let mut c = 0;
        for block in &mut blocks {
            // Prefetch only lanes of the rows' own slices.
            let ahead = if c + SUM_AHEAD < len { SUM_AHEAD } else { 0 };
            sum_block::<SUM_BLOCK>(block, matrix, stride, offset + c, ahead, rows);
            c += SUM_BLOCK;
        }
        let rest = blocks.into_remainder();
        let mut blocks = rest.chunks_exact_mut(8);
        for block in &mut blocks {
            sum_block::<8>(block, matrix, stride, offset + c, 0, rows);
            c += 8;
        }
        for lane in blocks.into_remainder() {
            sum_block::<1>(slice::from_mut(lane), matrix, stride, offset + c, 0, rows);
            c += 1;
        }
    }

    /// `W` lanes of [`sum_rows`], starting at column `base` of each row:
    /// the accumulators are a fixed-size array the compiler keeps in
    /// registers. A non-zero `ahead` also prefetches lane `base + ahead`
    /// of each row.
    ///
    /// # Safety
    ///
    /// `[r * stride + base, .. + W)` must lie inside `matrix` for every
    /// row `r`, and so must lane `r * stride + base + ahead` when `ahead`
    /// is non-zero.
    #[inline(always)]
    unsafe fn sum_block<const W: usize>(
        drive: &mut [f32],
        matrix: &[f32],
        stride: usize,
        base: usize,
        ahead: usize,
        rows: &[usize],
    ) {
        let mut acc = [0.0f32; W];
        for &r in rows {
            let start = r * stride + base;
            if ahead != 0 {
                // SAFETY: the caller guarantees lane `start + ahead` lies
                // in `matrix`.
                super::prefetch(unsafe { &*matrix.as_ptr().add(start + ahead) });
            }
            // SAFETY: the caller guarantees the `W` lanes lie in `matrix`.
            let row = unsafe { &*matrix.as_ptr().add(start).cast::<[f32; W]>() };
            for (a, &w) in acc.iter_mut().zip(row) {
                *a += w;
            }
        }
        drive.copy_from_slice(&acc);
    }

    #[inline(always)]
    pub(super) fn accumulate_effective(drive: &mut [f32], row: &[f32], w_max: f32) {
        for (d, &w) in drive.iter_mut().zip(row) {
            *d += StoredWeights::effective(w, w_max);
        }
    }

    /// Written as a select so it vectorises: a non-finite weight keeps the
    /// accumulator's exact bits rather than adding a zero.
    #[inline(always)]
    pub(super) fn accumulate_finite(drive: &mut [f32], row: &[f32]) {
        for (d, &w) in drive.iter_mut().zip(row) {
            *d = if w.is_finite() { *d + w } else { *d };
        }
    }

    // The rescale and potentiation passes are generic over `CLEAN`: the
    // generic pass (`false`) reads every word through
    // `StoredWeights::effective`; the clean pass (`true`) reads it raw,
    // which is the same value bit for bit when the word is clean.

    /// The read rule of a training pass: identity on a clean store.
    #[inline(always)]
    fn read<const CLEAN: bool>(w: f32, w_max: f32) -> f32 {
        if CLEAN {
            w
        } else {
            StoredWeights::effective(w, w_max)
        }
    }

    #[inline(always)]
    pub(super) fn depress_accumulate(
        row: &mut [f32],
        trace_post: &[f32],
        lr: f32,
        w_max: f32,
        drive: &mut [f32],
    ) {
        for ((w, &post), d) in row.iter_mut().zip(trace_post).zip(drive.iter_mut()) {
            let depressed = (StoredWeights::effective(*w, w_max) - lr * post).clamp(0.0, w_max);
            *w = depressed;
            *d += depressed;
        }
    }

    #[inline(always)]
    pub(super) fn accumulate_clean(sums: &mut [f32], row: &[f32]) {
        for (s, &w) in sums.iter_mut().zip(row) {
            *s += w;
        }
    }

    #[inline(always)]
    pub(super) fn rescale_sum_clean(row: &mut [f32], scales: &[f32], w_max: f32, sums: &mut [f32]) {
        for ((w, &scale), s) in row.iter_mut().zip(scales).zip(sums.iter_mut()) {
            let scaled = (*w * scale).clamp(0.0, w_max);
            *w = scaled;
            *s += scaled;
        }
    }

    /// The clean pass also drops the dead-column select: it only runs
    /// when no scale is NaN.
    #[inline(always)]
    pub(super) fn rescale<const CLEAN: bool>(row: &mut [f32], scales: &[f32], w_max: f32) {
        for (w, &scale) in row.iter_mut().zip(scales) {
            let scaled = (read::<CLEAN>(*w, w_max) * scale).clamp(0.0, w_max);
            *w = if CLEAN || !scale.is_nan() { scaled } else { *w };
        }
    }

    #[inline(always)]
    pub(super) fn potentiate_column<const CLEAN: bool>(
        weights: &mut [f32],
        neurons: usize,
        column: usize,
        trace_pre: &[f32],
        stdp: &StdpConfig,
        w_max: f32,
    ) {
        let (lr, x_target) = (stdp.lr_potentiate, stdp.x_target);
        for (i, &pre) in trace_pre.iter().enumerate() {
            let ahead = (i + PREFETCH_ROWS) * neurons + column;
            if let Some(next) = weights.get(ahead) {
                super::prefetch(next);
            }
            let w = &mut weights[i * neurons + column];
            let e = read::<CLEAN>(*w, w_max);
            *w = (e + lr * (pre - x_target) * (w_max - e)).clamp(0.0, w_max);
        }
    }

    #[inline(always)]
    pub(super) fn integrate_lanes(
        lif: &LifConfig,
        dt_ms: f32,
        v: &mut [f32],
        theta: &mut [f32],
        refractory: &mut [f32],
        drive: &[f32],
        crossed: &mut [bool],
    ) -> bool {
        let mut any_crossed = false;
        let lanes = v
            .iter_mut()
            .zip(theta.iter_mut())
            .zip(refractory.iter_mut())
            .zip(drive.iter())
            .zip(crossed.iter_mut());
        for ((((vj, tj), rj), &dj), cj) in lanes {
            // Threshold adaptation decays regardless of refractory state.
            let th = *tj - *tj * dt_ms / lif.tau_theta;
            *tj = th;
            let in_refractory = *rj > 0.0;
            // Computed for every lane, discarded on refractory ones
            // (selects keep the loop branch-free).
            let leaked = *vj + (lif.v_rest - *vj) * dt_ms / lif.tau_membrane;
            let integrated = leaked + dj;
            let cross = !in_refractory && integrated >= lif.v_thresh + th;
            *vj = if in_refractory {
                lif.v_reset
            } else {
                integrated
            };
            *rj = if in_refractory { *rj - dt_ms } else { *rj };
            *cj = cross;
            any_crossed |= cross;
        }
        any_crossed
    }

    /// The portable arm's entry to [`integrate_lanes`], kept out of line:
    /// inlined into a larger caller, the baseline-ISA loop can be left
    /// unvectorised and runs slower.
    #[inline(never)]
    pub(super) fn integrate_lanes_out_of_line(
        lif: &LifConfig,
        dt_ms: f32,
        v: &mut [f32],
        theta: &mut [f32],
        refractory: &mut [f32],
        drive: &[f32],
        crossed: &mut [bool],
    ) -> bool {
        integrate_lanes(lif, dt_ms, v, theta, refractory, drive, crossed)
    }

    /// `(v[j] - strength).max(floor)` per lane, written as the select
    /// `if x > floor { x } else { floor }` so it compiles to one `max`.
    /// The two agree for every `x`, NaN included, provided `floor` is not
    /// NaN and not a signed zero (see the module docs).
    #[inline(always)]
    pub(super) fn inhibit_lanes(v: &mut [f32], strength: f32, floor: f32) {
        for vj in v {
            let x = *vj - strength;
            *vj = if x > floor { x } else { floor };
        }
    }
}

/// The AVX2 kernel: every entry point is a one-call wrapper that
/// recompiles the portable body under `#[target_feature(enable = "avx2")]`.
/// See the module docs for why that is bit-identical. The wrappers are
/// safe `target_feature` functions, so a caller without AVX2 enabled must
/// call them in `unsafe`, after checking the feature at runtime.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{scalar, LifConfig, StdpConfig};

    /// # Safety
    ///
    /// Every row slice `[r * stride + offset, .. + drive.len())` must lie
    /// inside `matrix` (the dispatcher checks it).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum_rows(
        drive: &mut [f32],
        matrix: &[f32],
        stride: usize,
        offset: usize,
        rows: &[usize],
    ) {
        scalar::sum_rows(drive, matrix, stride, offset, rows);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn accumulate_effective(drive: &mut [f32], row: &[f32], w_max: f32) {
        scalar::accumulate_effective(drive, row, w_max);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn accumulate_finite(drive: &mut [f32], row: &[f32]) {
        scalar::accumulate_finite(drive, row);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn depress_accumulate(
        row: &mut [f32],
        trace_post: &[f32],
        lr: f32,
        w_max: f32,
        drive: &mut [f32],
    ) {
        scalar::depress_accumulate(row, trace_post, lr, w_max, drive);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn accumulate_clean(sums: &mut [f32], row: &[f32]) {
        scalar::accumulate_clean(sums, row);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn rescale_sum_clean(row: &mut [f32], scales: &[f32], w_max: f32, sums: &mut [f32]) {
        scalar::rescale_sum_clean(row, scales, w_max, sums);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn rescale<const CLEAN: bool>(row: &mut [f32], scales: &[f32], w_max: f32) {
        scalar::rescale::<CLEAN>(row, scales, w_max);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn potentiate_column<const CLEAN: bool>(
        weights: &mut [f32],
        neurons: usize,
        column: usize,
        trace_pre: &[f32],
        stdp: &StdpConfig,
        w_max: f32,
    ) {
        scalar::potentiate_column::<CLEAN>(weights, neurons, column, trace_pre, stdp, w_max);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn integrate_lanes(
        lif: &LifConfig,
        dt_ms: f32,
        v: &mut [f32],
        theta: &mut [f32],
        refractory: &mut [f32],
        drive: &[f32],
        crossed: &mut [bool],
    ) -> bool {
        scalar::integrate_lanes(lif, dt_ms, v, theta, refractory, drive, crossed)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn inhibit_lanes(v: &mut [f32], strength: f32, floor: f32) {
        scalar::inhibit_lanes(v, strength, floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_parses_canonical_spellings() {
        assert_eq!("auto".parse(), Ok(KernelChoice::Auto));
        assert_eq!("scalar".parse(), Ok(KernelChoice::Scalar));
        assert_eq!("avx2".parse(), Ok(KernelChoice::Avx2));
        assert_eq!("AVX2".parse(), Ok(KernelChoice::Avx2));
        assert_eq!("Scalar".parse(), Ok(KernelChoice::Scalar));
    }

    #[test]
    fn choice_rejects_unknown_spellings() {
        for raw in ["", "sse", "avx512", "scalar,avx2", "1", "wide"] {
            assert!(raw.parse::<KernelChoice>().is_err(), "raw={raw:?}");
        }
    }

    #[test]
    fn resolve_never_yields_unsupported_kernels() {
        assert_eq!(KernelChoice::Scalar.resolve(), Kernel::Scalar);
        let expect_wide = if avx2_supported() {
            Kernel::Avx2
        } else {
            Kernel::Scalar
        };
        assert_eq!(KernelChoice::Auto.resolve(), expect_wide);
        assert_eq!(KernelChoice::Avx2.resolve(), expect_wide);
    }

    #[test]
    fn available_always_starts_with_scalar() {
        let kernels = Kernel::available();
        assert_eq!(kernels.first(), Some(&Kernel::Scalar));
        assert_eq!(kernels.contains(&Kernel::Avx2), avx2_supported());
    }

    #[test]
    fn names_round_trip() {
        for choice in [KernelChoice::Auto, KernelChoice::Scalar, KernelChoice::Avx2] {
            assert_eq!(choice.name().parse(), Ok(choice));
        }
        assert_eq!(Kernel::Scalar.name(), "scalar");
        assert_eq!(Kernel::Avx2.name(), "avx2");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sum_rows_rejects_a_row_past_the_matrix() {
        let mut drive = [0.0f32; 4];
        Kernel::Scalar.sum_rows(&mut drive, &[1.0; 16], 8, 5, &[0, 1]);
    }

    #[test]
    fn effective_transform_zeroes_non_finite_and_clamps() {
        for kernel in Kernel::available() {
            let row = [
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                -3.0,
                9.0,
                0.5,
                -0.0,
                1.0,
            ];
            let mut drive = [1.0f32; 8];
            kernel.accumulate_effective(&mut drive, &row, 1.0);
            assert_eq!(
                drive,
                [1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0, 2.0],
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn finite_filter_skips_without_touching_accumulator_bits() {
        for kernel in Kernel::available() {
            let row = [f32::NAN, f32::INFINITY, 2.0, f32::NEG_INFINITY];
            let mut drive = [-0.0f32, 7.0, 1.0, f32::NAN];
            kernel.accumulate_finite(&mut drive, &row);
            assert_eq!(drive[0].to_bits(), (-0.0f32).to_bits(), "{kernel:?}");
            assert_eq!(drive[1], 7.0, "{kernel:?}");
            assert_eq!(drive[2], 3.0, "{kernel:?}");
            assert!(drive[3].is_nan(), "{kernel:?}");
        }
    }

    #[test]
    fn depression_rewrites_into_bounds_and_accumulates() {
        for &kernel in Kernel::available() {
            let mut row = [
                f32::NAN,
                f32::INFINITY,
                -1.0,
                7.0,
                0.5,
                -0.0,
                0.25,
                1.0,
                0.1,
            ];
            let trace = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 100.0];
            let mut drive = [1.0f32; 9];
            kernel.depress_accumulate(&mut row, &trace, 0.25, 1.0, &mut drive);
            assert_eq!(
                row,
                [0.0, 0.0, 0.0, 1.0, 0.25, 0.0, 0.25, 0.75, 0.0],
                "{kernel:?}"
            );
            assert_eq!(
                row[5].to_bits(),
                (-0.0f32).to_bits(),
                "{kernel:?}: -0.0 kept"
            );
            assert_eq!(
                drive,
                [1.0, 1.0, 1.0, 2.0, 1.25, 1.0, 1.25, 1.75, 1.0],
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn rescale_keeps_dead_column_words() {
        for &kernel in Kernel::available() {
            let nan = f32::NAN;
            let mut row = [
                f32::NAN,
                -3.0,
                f32::INFINITY,
                0.5,
                0.5,
                2.0,
                f32::NAN,
                0.3,
                0.9,
            ];
            let scales = [nan, nan, nan, nan, 2.0, 2.0, 2.0, 0.5, 4.0];
            kernel.rescale_effective(&mut row, &scales, 1.0);
            assert!(row[0].is_nan(), "{kernel:?}");
            assert_eq!(row[1..4], [-3.0, f32::INFINITY, 0.5], "{kernel:?}");
            assert_eq!(row[4..], [1.0, 1.0, 0.0, 0.15, 1.0], "{kernel:?}");
        }
    }

    #[test]
    fn inhibit_floors_nan_membranes_like_f32_max() {
        for kernel in Kernel::available() {
            let mut v = [f32::NAN, -60.0, -200.0, f32::INFINITY];
            kernel.inhibit_lanes(&mut v, 10.0, -85.0);
            assert_eq!(v[0], -85.0, "{kernel:?}: NaN membrane floors");
            assert_eq!(v[1], -70.0, "{kernel:?}");
            assert_eq!(v[2], -85.0, "{kernel:?}");
            assert_eq!(v[3], f32::INFINITY, "{kernel:?}");
        }
    }
}
