//! Synaptic weight storage, split from the synaptic read path.
//!
//! SparkXD stores weights in (approximate) DRAM and computes with what the
//! synapse hardware actually delivers. The two live in different types:
//!
//! * [`StoredWeights`] — the raw `f32` DRAM image, bit-exact. This is the
//!   sole target of bit-flip injection and DRAM mapping; nothing here is
//!   clamped or scrubbed.
//! * [`EffectivePlane`] — the values the compute fabric consumes, derived
//!   from a [`StoredWeights`] *once per corruption instance*: the bounded
//!   hardware synapse (non-finite → 0, optionally clamped to `[0, w_max]`)
//!   is applied at build time, and a per-input row-activity summary lets
//!   the hot loop skip all-zero fan-out rows entirely.
//!
//! Inference streams [`EffectivePlane`] rows; training and error injection
//! mutate [`StoredWeights`] and rebuild the affected plane rows (see
//! [`EffectivePlane::rebuild_rows`]).

use crate::kernels::Kernel;

/// Dense input→neuron weight matrix, row-major by input line
/// (`w[input * neurons + neuron]`) — the bit-exact image stored in DRAM.
///
/// `clone_from` reuses the destination's buffer, so a snapshot refreshed
/// every step (fault-aware training, corrupt-and-swap scratches) copies
/// words instead of reallocating the image.
#[derive(Debug, PartialEq)]
pub struct StoredWeights {
    inputs: usize,
    neurons: usize,
    w: Vec<f32>,
    w_max: f32,
}

impl Clone for StoredWeights {
    fn clone(&self) -> Self {
        Self {
            inputs: self.inputs,
            neurons: self.neurons,
            w: self.w.clone(),
            w_max: self.w_max,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.inputs = source.inputs;
        self.neurons = source.neurons;
        self.w.clone_from(&source.w);
        self.w_max = source.w_max;
    }
}

impl StoredWeights {
    /// Creates a matrix initialised with uniform random weights in
    /// `[0, 0.3 * w_max]`, deterministically from `seed`.
    pub fn random(inputs: usize, neurons: usize, w_max: f32, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let w = (0..inputs * neurons)
            .map(|_| rng.gen::<f32>() * 0.3 * w_max)
            .collect();
        Self {
            inputs,
            neurons,
            w,
            w_max,
        }
    }

    /// Wraps existing weights.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != inputs * neurons`.
    pub fn from_weights(inputs: usize, neurons: usize, w_max: f32, w: Vec<f32>) -> Self {
        assert_eq!(w.len(), inputs * neurons, "weight vector length mismatch");
        Self {
            inputs,
            neurons,
            w,
            w_max,
        }
    }

    /// Number of input lines.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of neurons.
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Maximum synaptic conductance.
    pub fn w_max(&self) -> f32 {
        self.w_max
    }

    /// Total number of weights.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// `true` for an empty matrix.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Raw storage — the bit-exact image stored in DRAM.
    pub fn as_slice(&self) -> &[f32] {
        &self.w
    }

    /// Mutable raw storage (error injection writes through this).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.w
    }

    /// Stored value at `(input, neuron)` (possibly corrupted).
    pub fn raw(&self, input: usize, neuron: usize) -> f32 {
        self.w[input * self.neurons + neuron]
    }

    /// Sets the stored value at `(input, neuron)`.
    pub fn set(&mut self, input: usize, neuron: usize, value: f32) {
        self.w[input * self.neurons + neuron] = value;
    }

    /// Effective synaptic conductance of a stored value under the bounded
    /// hardware synapse: non-finite → 0, else clamped to `[0, w_max]`.
    #[inline]
    pub fn effective(value: f32, w_max: f32) -> f32 {
        if value.is_finite() {
            value.clamp(0.0, w_max)
        } else {
            0.0
        }
    }

    /// The input row holding flat weight-word `word` (the layout is
    /// row-major by input line, 1 word per weight).
    pub fn row_of_word(&self, word: usize) -> usize {
        word / self.neurons
    }

    /// The sorted, deduplicated input rows covering the given flat weight
    /// words — the plane rows a corruption touching exactly those words
    /// invalidates.
    pub fn rows_of_words(&self, words: &[usize]) -> Vec<usize> {
        let mut rows: Vec<usize> = words.iter().map(|&w| self.row_of_word(w)).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Row of weights fanning out from `input`.
    #[inline]
    pub fn fan_out(&self, input: usize) -> &[f32] {
        &self.w[input * self.neurons..(input + 1) * self.neurons]
    }

    /// Mutable row of weights fanning out from `input`.
    pub fn fan_out_mut(&mut self, input: usize) -> &mut [f32] {
        &mut self.w[input * self.neurons..(input + 1) * self.neurons]
    }

    /// `true` when every stored word is *clean*: `w >= 0.0 && w <= w_max`
    /// (so finite; `-0.0` counts). On a clean word the read rule
    /// [`effective`](Self::effective) is the identity, bit for bit, which
    /// is what lets training run its clean kernels.
    pub fn is_clean(&self) -> bool {
        let w_max = self.w_max;
        self.w.iter().all(|&w| w >= 0.0 && w <= w_max)
    }

    /// Normalises each neuron's total (effective) input weight to
    /// `target_sum` — Diehl & Cook's homeostatic weight normalisation,
    /// applied after each training sample.
    ///
    /// A *live* column (effective sum > [`f32::EPSILON`]) is rewritten to
    /// `(effective(w) * scale).clamp(0, w_max)` with
    /// `scale = target_sum / sum`, which also
    /// scrubs any non-finite or out-of-range word in it. A *dead* column
    /// (effective sum ≤ `EPSILON`) is left exactly as stored: its raw
    /// NaN/Inf/negative words survive. This is a training-time rule;
    /// inference never rewrites storage.
    ///
    /// The matrix is row-major, so both sweeps walk it row by row through
    /// `kernel` ([`Kernel::accumulate_effective`] into per-column sums,
    /// then [`Kernel::rescale_effective`]); per fixed column the
    /// accumulation order over inputs is ascending, bit-identical to a
    /// column-major traversal but cache-friendly at N3600, and identical
    /// under every kernel.
    pub fn normalize_columns(&mut self, target_sum: f32, kernel: Kernel) {
        self.normalize_columns_with(target_sum, kernel, false, &mut ColumnNorm::default(), &[]);
    }

    /// [`normalize_columns`](Self::normalize_columns) with reusable
    /// scratch, the store's known cleanliness and the column sums carried
    /// from the previous call.
    ///
    /// With `clean` set the caller guarantees [`is_clean`](Self::is_clean),
    /// and the sum pass runs [`Kernel::accumulate_clean`]. When no column
    /// is dead the scale pass then runs [`Kernel::rescale_sum_clean`],
    /// which also leaves in `norm` the column sums of the rescaled store.
    /// The next clean call reuses them and re-sums only the columns in
    /// `written` (each once; the caller guarantees that no other column
    /// was written in between), each in ascending row order onto `+0.0`,
    /// the same sums a full pass would give. A dirty or dead-column pass drops the carried
    /// sums, so the next call takes them in full. Every path is
    /// bit-identical to the generic passes.
    ///
    /// Returns whether the store is known clean afterwards: a clean store
    /// stays clean (rescaling clamps into `[0, w_max]` and a dead column
    /// keeps words that were clean), and a dirty one becomes clean when
    /// no column is dead, since every word is then rewritten into range.
    /// `false` is conservative: a dirty store with a dead column may
    /// happen to be clean.
    pub(crate) fn normalize_columns_with(
        &mut self,
        target_sum: f32,
        kernel: Kernel,
        clean: bool,
        norm: &mut ColumnNorm,
        written: &[usize],
    ) -> bool {
        let (w_max, n) = (self.w_max, self.neurons);
        let ColumnNorm {
            sums,
            scales,
            carried,
            resummed,
        } = norm;
        if clean && *carried && sums.len() == n {
            // One pass down the rows for all written columns at once, so
            // their add chains overlap; each still sums in ascending row
            // order onto `+0.0`, lane `j` of `accumulate_clean`.
            for &j in written {
                sums[j] = 0.0;
            }
            for row in self.w.chunks_exact(n) {
                for &j in written {
                    sums[j] += row[j];
                }
            }
            *resummed += written.len();
        } else {
            sums.clear();
            sums.resize(n, 0.0);
            for row in self.w.chunks_exact(n) {
                if clean {
                    kernel.accumulate_clean(sums, row);
                } else {
                    kernel.accumulate_effective(sums, row, w_max);
                }
            }
            *resummed += n;
        }
        // NaN marks a dead column, whose words the scale pass keeps.
        let mut dead = false;
        scales.clear();
        scales.extend(sums.iter().map(|&sum| {
            if sum <= f32::EPSILON {
                dead = true;
                f32::NAN
            } else {
                target_sum / sum
            }
        }));
        *carried = clean && !dead;
        if *carried {
            sums.fill(0.0);
            for row in self.w.chunks_exact_mut(n) {
                kernel.rescale_sum_clean(row, scales, w_max, sums);
            }
        } else {
            for row in self.w.chunks_exact_mut(n) {
                kernel.rescale_effective(row, scales, w_max);
            }
        }
        clean || !dead
    }

    /// Fraction of weights that are *effectively* non-zero (network
    /// connectivity). Corrupted storage that contributes nothing to the
    /// membrane — NaN/Inf words after exponent flips, negative values the
    /// bounded synapse clamps away — is not a live connection.
    pub fn connectivity(&self) -> f64 {
        if self.w.is_empty() {
            return 0.0;
        }
        let nz = self
            .w
            .iter()
            .filter(|&&v| Self::effective(v, self.w_max) != 0.0)
            .count();
        nz as f64 / self.w.len() as f64
    }
}

/// Training's column-normalisation scratch (see
/// [`StoredWeights::normalize_columns_with`]): the per-column sums and
/// scales, whether the sums are carried over from the last pass, and how
/// many column sums were computed so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ColumnNorm {
    sums: Vec<f32>,
    scales: Vec<f32>,
    /// `sums` hold the column sums of the store as the last pass left it.
    carried: bool,
    /// Column sums computed, full passes counting every column.
    pub(crate) resummed: usize,
}

/// The read-side view of a [`StoredWeights`]: every value passed through
/// the synapse read rule at build time, plus a per-row liveness summary.
///
/// Built **once per corruption instance** — after training freezes the
/// weights, or after an error-injection pass rewrites part of the image —
/// instead of re-clamping every stored word on every timestep of every
/// sample. When a corruption touches a known set of rows, only those rows
/// need rebuilding ([`rebuild_rows`](Self::rebuild_rows)). A whole-plane
/// re-derivation ([`rebuild_all`](Self::rebuild_all)) and `clone_from`
/// both reuse the existing buffers.
#[derive(Debug, PartialEq)]
pub struct EffectivePlane {
    inputs: usize,
    neurons: usize,
    w_max: f32,
    /// Whether reads clamp to `[0, w_max]` (bounded hardware synapse) or
    /// pass finite values through raw (the paper's MSB observation).
    clamp: bool,
    /// Read-rule-applied values, same row-major layout as the store.
    values: Vec<f32>,
    /// `true` where the fan-out row has at least one non-zero effective
    /// value; all-zero rows are skipped by drive accumulation.
    row_live: Vec<bool>,
}

impl Clone for EffectivePlane {
    fn clone(&self) -> Self {
        Self {
            inputs: self.inputs,
            neurons: self.neurons,
            w_max: self.w_max,
            clamp: self.clamp,
            values: self.values.clone(),
            row_live: self.row_live.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.inputs = source.inputs;
        self.neurons = source.neurons;
        self.w_max = source.w_max;
        self.clamp = source.clamp;
        self.values.clone_from(&source.values);
        self.row_live.clone_from(&source.row_live);
    }
}

impl EffectivePlane {
    /// Derives the plane from `stored` under the given read policy.
    pub fn build(stored: &StoredWeights, clamp_reads: bool) -> Self {
        let mut plane = Self {
            inputs: 0,
            neurons: 0,
            w_max: stored.w_max,
            clamp: clamp_reads,
            values: Vec::new(),
            row_live: Vec::new(),
        };
        plane.rebuild_all(stored);
        plane
    }

    /// Re-derives every row from `stored` under this plane's read policy,
    /// in place: equal to [`build`](Self::build) with the same policy, but
    /// the value and liveness buffers are reused instead of reallocated
    /// (training re-derives the plane after every epoch and injection).
    pub fn rebuild_all(&mut self, stored: &StoredWeights) {
        self.inputs = stored.inputs;
        self.neurons = stored.neurons;
        self.w_max = stored.w_max;
        self.values.resize(stored.w.len(), 0.0);
        self.row_live.resize(stored.inputs, false);
        for row in 0..stored.inputs {
            self.rebuild_row(stored, row);
        }
    }

    /// The read rule this plane was built with: non-finite → 0, then either
    /// clamped to `[0, w_max]` or passed through raw.
    #[inline]
    pub fn effective_read(value: f32, w_max: f32, clamp: bool) -> f32 {
        if !value.is_finite() {
            0.0
        } else if clamp {
            value.clamp(0.0, w_max)
        } else {
            value
        }
    }

    fn rebuild_row(&mut self, stored: &StoredWeights, row: usize) {
        debug_assert_eq!(stored.inputs, self.inputs, "store/plane shape");
        debug_assert_eq!(stored.neurons, self.neurons, "store/plane shape");
        let src = stored.fan_out(row);
        let dst = &mut self.values[row * self.neurons..(row + 1) * self.neurons];
        let mut live = false;
        for (d, &v) in dst.iter_mut().zip(src) {
            let eff = Self::effective_read(v, self.w_max, self.clamp);
            live |= eff != 0.0;
            *d = eff;
        }
        self.row_live[row] = live;
    }

    /// Re-derives exactly the given rows from `stored` (after a corruption
    /// pass that touched only those rows). Rows may repeat; out-of-range
    /// rows panic.
    pub fn rebuild_rows(&mut self, stored: &StoredWeights, rows: &[usize]) {
        sparkxd_telemetry::counter_add!("snn.plane_rows_rebuilt", rows.len());
        for &row in rows {
            self.rebuild_row(stored, row);
        }
    }

    /// Number of input lines (rows).
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of neurons (columns).
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Whether row `input` has any non-zero effective weight.
    #[inline]
    pub fn row_live(&self, input: usize) -> bool {
        self.row_live[input]
    }

    /// Effective fan-out row of `input`, ready to accumulate without any
    /// per-read clamping or scrubbing.
    #[inline]
    pub fn row(&self, input: usize) -> &[f32] {
        &self.values[input * self.neurons..(input + 1) * self.neurons]
    }

    /// Every effective value, row-major (`row(i)` is
    /// `values()[i * neurons..][..neurons]`).
    #[inline]
    pub(crate) fn values(&self) -> &[f32] {
        &self.values
    }

    /// `true` when this plane equals a fresh build from `stored` — the
    /// invariant every mutation path must restore. Used by debug
    /// assertions and consistency tests; O(len), not for hot paths.
    pub fn is_consistent_with(&self, stored: &StoredWeights) -> bool {
        *self == Self::build(stored, self.clamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_weights_in_range_and_deterministic() {
        let a = StoredWeights::random(10, 5, 1.0, 3);
        let b = StoredWeights::random(10, 5, 1.0, 3);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&w| (0.0..=0.3).contains(&w)));
    }

    #[test]
    fn effective_clamps_and_scrubs() {
        assert_eq!(StoredWeights::effective(0.5, 1.0), 0.5);
        assert_eq!(StoredWeights::effective(-3.0, 1.0), 0.0);
        assert_eq!(StoredWeights::effective(7.0, 1.0), 1.0);
        assert_eq!(StoredWeights::effective(f32::NAN, 1.0), 0.0);
        assert_eq!(StoredWeights::effective(f32::INFINITY, 1.0), 0.0);
    }

    #[test]
    fn normalisation_sets_column_sums() {
        let mut m = StoredWeights::random(50, 4, 1.0, 1);
        m.normalize_columns(10.0, Kernel::Scalar);
        for j in 0..4 {
            let sum: f32 = (0..50).map(|i| m.raw(i, j)).sum();
            assert!((sum - 10.0).abs() < 0.1, "column {j} sum {sum}");
        }
    }

    #[test]
    fn normalisation_scrubs_corrupt_values() {
        let mut m = StoredWeights::from_weights(2, 1, 1.0, vec![f32::NAN, 0.5]);
        m.normalize_columns(1.0, Kernel::Scalar);
        assert!(m.as_slice().iter().all(|v| v.is_finite()));
        assert!((m.raw(1, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalisation_leaves_dead_columns_raw() {
        // Column 0 sums to zero effective weight: its NaN/Inf/negative
        // words are kept bit for bit, while live column 1 is scrubbed.
        let stored = vec![f32::NAN, f32::NAN, f32::NEG_INFINITY, 0.5, -2.0, 0.25];
        for &kernel in Kernel::available() {
            let mut m = StoredWeights::from_weights(3, 2, 1.0, stored.clone());
            m.normalize_columns(1.5, kernel);
            assert!(m.raw(0, 0).is_nan(), "{kernel:?}");
            assert_eq!(m.raw(1, 0), f32::NEG_INFINITY, "{kernel:?}");
            assert_eq!(m.raw(2, 0), -2.0, "{kernel:?}");
            assert_eq!(
                [m.raw(0, 1), m.raw(1, 1), m.raw(2, 1)],
                [0.0, 1.0, 0.5],
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn normalisation_matches_column_major_reference() {
        // The row-major, kernel-dispatched rewrite must be bit-identical
        // to the original strided column-major traversal, including
        // dead-column skipping and corrupt-value scrubbing.
        let column_major_reference = |m: &mut StoredWeights, target_sum: f32| {
            let w_max = m.w_max();
            for j in 0..m.neurons() {
                let mut sum = 0.0;
                for i in 0..m.inputs() {
                    sum += StoredWeights::effective(m.raw(i, j), w_max);
                }
                if sum <= f32::EPSILON {
                    continue;
                }
                let scale = target_sum / sum;
                for i in 0..m.inputs() {
                    let v = StoredWeights::effective(m.raw(i, j), w_max);
                    m.set(i, j, (v * scale).clamp(0.0, w_max));
                }
            }
        };
        let mut base = StoredWeights::random(37, 11, 1.0, 9);
        base.set(3, 2, f32::NAN);
        base.set(5, 7, f32::INFINITY);
        base.set(8, 4, -2.5);
        // Column 9 all-zero: must be skipped, not divided by ~0.
        for i in 0..37 {
            base.set(i, 9, 0.0);
        }
        let mut colwise = base.clone();
        column_major_reference(&mut colwise, 10.0);
        for &kernel in Kernel::available() {
            let mut rowwise = base.clone();
            rowwise.normalize_columns(10.0, kernel);
            let bits = |m: &StoredWeights| -> Vec<u32> {
                m.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&rowwise), bits(&colwise), "{kernel:?}");
        }
    }

    #[test]
    fn clean_means_inside_zero_to_w_max() {
        let clean = [0.0, -0.0, 1.5e-41, 0.5, 1.0];
        assert!(StoredWeights::from_weights(1, 5, 1.0, clean.to_vec()).is_clean());
        for dirty in [f32::NAN, f32::INFINITY, -1.0e-41, -0.5, 1.0000001] {
            let m = StoredWeights::from_weights(1, 2, 1.0, vec![0.5, dirty]);
            assert!(!m.is_clean(), "{dirty:?}");
        }
    }

    #[test]
    fn clean_normalisation_matches_generic_and_tracks_cleanliness() {
        let bits =
            |m: &StoredWeights| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        let mut clean = StoredWeights::random(37, 11, 1.0, 4);
        clean.set(2, 3, -0.0);
        clean.set(5, 6, 1.0);
        clean.set(9, 1, 1.5e-41);
        // Column 9 all-zero: clean but dead, so the scale pass keeps it
        // through the generic kernel and the store stays clean.
        let mut with_dead = clean.clone();
        for i in 0..37 {
            with_dead.set(i, 9, 0.0);
        }
        for base in [clean, with_dead] {
            assert!(base.is_clean());
            for &kernel in Kernel::available() {
                let mut generic = base.clone();
                generic.normalize_columns(10.0, kernel);
                let mut fast = base.clone();
                let mut norm = ColumnNorm::default();
                assert!(fast.normalize_columns_with(10.0, kernel, true, &mut norm, &[]));
                assert_eq!(bits(&fast), bits(&generic), "{kernel:?}");
                assert!(fast.is_clean());
            }
        }
    }

    #[test]
    fn dirty_normalisation_reports_cleanliness_after() {
        let mut norm = ColumnNorm::default();
        // Live columns only: every word is rewritten into range.
        let mut m = StoredWeights::from_weights(2, 2, 1.0, vec![f32::NAN, 0.5, 0.25, 9.0]);
        assert!(m.normalize_columns_with(1.0, Kernel::Scalar, false, &mut norm, &[]));
        assert!(m.is_clean());
        // A dead column keeps its NaN: still dirty.
        let mut m = StoredWeights::from_weights(2, 2, 1.0, vec![f32::NAN, 0.5, -1.0, 0.25]);
        assert!(!m.normalize_columns_with(1.0, Kernel::Scalar, false, &mut norm, &[]));
        assert!(m.raw(0, 0).is_nan());
    }

    #[test]
    fn carried_column_sums_match_a_fresh_normalisation() {
        // Between passes only the `written` columns change, as in
        // training; the carried pass must rewrite the store exactly as a
        // generic pass over it does, and count one sum per written column.
        let bits =
            |m: &StoredWeights| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        for &kernel in Kernel::available() {
            let mut carried = StoredWeights::random(41, 13, 1.0, 9);
            let mut norm = ColumnNorm::default();
            assert!(carried.normalize_columns_with(7.0, kernel, true, &mut norm, &[]));
            assert_eq!(norm.resummed, 13, "the first pass sums every column");
            let mut generic = carried.clone();
            for (pass, written) in [vec![3], vec![0, 12, 5], vec![], vec![7, 8]]
                .into_iter()
                .enumerate()
            {
                for (k, &j) in written.iter().enumerate() {
                    for i in (pass + k..41).step_by(3) {
                        let w = (carried.raw(i, j) * 0.7 + 0.01 * k as f32).min(1.0);
                        carried.set(i, j, w);
                        generic.set(i, j, w);
                    }
                }
                let before = norm.resummed;
                assert!(carried.normalize_columns_with(7.0, kernel, true, &mut norm, &written));
                assert_eq!(
                    norm.resummed - before,
                    written.len(),
                    "{kernel:?} pass {pass}"
                );
                generic.normalize_columns(7.0, kernel);
                assert_eq!(bits(&carried), bits(&generic), "{kernel:?} pass {pass}");
            }
        }
    }

    #[test]
    fn fan_out_views_rows() {
        let m = StoredWeights::from_weights(2, 3, 1.0, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.fan_out(0), &[1., 2., 3.]);
        assert_eq!(m.fan_out(1), &[4., 5., 6.]);
        assert_eq!(m.raw(1, 2), 6.0);
    }

    #[test]
    fn connectivity_counts_nonzero() {
        let m = StoredWeights::from_weights(2, 2, 1.0, vec![0.0, 1.0, 0.0, 1.0]);
        assert_eq!(m.connectivity(), 0.5);
    }

    #[test]
    fn connectivity_ignores_corrupted_and_clamped_away_weights() {
        // Regression: NaN/Inf words (exponent bit flips) and negative
        // values contribute nothing to the membrane and must not count as
        // live connections.
        let m = StoredWeights::from_weights(
            2,
            3,
            1.0,
            vec![f32::NAN, f32::INFINITY, -0.4, 0.5, 0.0, f32::NEG_INFINITY],
        );
        assert_eq!(m.connectivity(), 1.0 / 6.0);
    }

    #[test]
    fn rows_of_words_dedups_and_sorts() {
        let m = StoredWeights::from_weights(3, 2, 1.0, vec![0.1; 6]);
        assert_eq!(m.rows_of_words(&[5, 0, 1, 4]), vec![0, 2]);
        assert_eq!(m.row_of_word(3), 1);
        assert!(m.rows_of_words(&[]).is_empty());
    }

    #[test]
    fn plane_applies_read_rule_at_build() {
        let stored = StoredWeights::from_weights(
            2,
            3,
            1.0,
            vec![0.5, f32::NAN, 7.0, -0.25, f32::INFINITY, 0.0],
        );
        let clamped = EffectivePlane::build(&stored, true);
        assert_eq!(clamped.row(0), &[0.5, 0.0, 1.0]);
        assert_eq!(clamped.row(1), &[0.0, 0.0, 0.0]);
        assert!(clamped.row_live(0));
        assert!(!clamped.row_live(1), "all-zero effective row is dead");

        let raw = EffectivePlane::build(&stored, false);
        assert_eq!(raw.row(0), &[0.5, 0.0, 7.0]);
        assert_eq!(raw.row(1), &[-0.25, 0.0, 0.0]);
        assert!(raw.row_live(1), "unclamped negative keeps the row live");
    }

    #[test]
    fn rebuild_rows_tracks_targeted_corruption() {
        let mut stored = StoredWeights::random(6, 4, 1.0, 2);
        let mut plane = EffectivePlane::build(&stored, true);
        stored.set(3, 1, f32::NAN);
        stored.set(3, 2, 9.0);
        stored.set(5, 0, -1.0);
        assert!(!plane.is_consistent_with(&stored), "stale after mutation");
        plane.rebuild_rows(&stored, &[3, 5]);
        assert!(plane.is_consistent_with(&stored));
        assert_eq!(plane.row(3)[1], 0.0);
        assert_eq!(plane.row(3)[2], 1.0);
        assert_eq!(plane.row(5)[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let _ = StoredWeights::from_weights(2, 2, 1.0, vec![0.0; 3]);
    }
}
