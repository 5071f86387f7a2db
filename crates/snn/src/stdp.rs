//! Trace-based spike-timing-dependent plasticity.
//!
//! Pair-based STDP with exponentially decaying eligibility traces, as used
//! by the unsupervised SNN literature the paper follows:
//!
//! * a presynaptic spike at input `i` depresses `w[i][j]` in proportion to
//!   the postsynaptic trace of `j` (recent postsynaptic activity), and
//! * a postsynaptic spike at neuron `j` potentiates `w[i][j]` in proportion
//!   to the presynaptic trace of `i` (recent presynaptic activity).
//!
//! Weights are clamped to `[0, w_max]`.
//!
//! Post traces are reset per sample, so within a sample only the neurons
//! that fired have a non-zero post trace, and on a clean store every
//! other lane of a depressed row is rewritten to itself. [`StdpState`]
//! therefore updates only the live lanes, bit-identical to the dense
//! rules; the tests hold it to an every-lane reference.

use crate::kernels::Kernel;
use crate::synapse::StoredWeights;

/// STDP hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StdpConfig {
    /// Potentiation learning rate (applied on postsynaptic spikes).
    pub lr_potentiate: f32,
    /// Depression learning rate (applied on presynaptic spikes).
    pub lr_depress: f32,
    /// Presynaptic trace time constant (ms).
    pub tau_pre: f32,
    /// Postsynaptic trace time constant (ms).
    pub tau_post: f32,
    /// Target presynaptic trace: on a postsynaptic spike, inputs whose
    /// trace is below this value are depressed (Diehl & Cook's
    /// `x_tar`), carving clean receptive fields.
    pub x_target: f32,
}

impl StdpConfig {
    /// Defaults tuned for the Diehl & Cook style network.
    pub fn standard() -> Self {
        Self {
            lr_potentiate: 0.003,
            lr_depress: 0.0012,
            tau_pre: 20.0,
            tau_post: 20.0,
            x_target: 0.02,
        }
    }
}

impl Default for StdpConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Eligibility traces and update rules for one input→neuron projection.
///
/// Besides the traces, the state keeps the *live* lanes of each side: the
/// inputs that spiked and the neurons that fired since the last
/// [`reset`](Self::reset), each listed once (a membership flag decides,
/// not `trace == 0`: with `dt_ms == tau` a trace decays to exactly `0.0`
/// and its line may spike again). Every other trace is exactly `+0.0`, so
/// the updates below touch the live lanes only and are bit-identical to
/// the dense rules over every lane:
///
/// * decay leaves a zero trace at `0 − 0·dp = +0.0`;
/// * on a clean store, depression leaves a lane whose post trace is zero
///   at `(w − lr·0).clamp(0, w_max) = w`, `-0.0` included.
///
/// A non-finite decay factor or learning rate would turn those zeros into
/// NaN, so it first marks every lane of its side live.
#[derive(Debug, Clone, PartialEq)]
pub struct StdpState {
    config: StdpConfig,
    trace_pre: Vec<f32>,
    trace_post: Vec<f32>,
    pre: LiveLanes,
    post: LiveLanes,
    /// Depression's active rows as `usize`, for [`Kernel::sum_rows`].
    rows: Vec<usize>,
}

/// The live lanes of one trace vector: each lane listed once, in the
/// order it went live.
#[derive(Debug, Clone, PartialEq)]
struct LiveLanes {
    list: Vec<usize>,
    member: Vec<bool>,
}

impl LiveLanes {
    fn new(lanes: usize) -> Self {
        Self {
            list: Vec::new(),
            member: vec![false; lanes],
        }
    }

    #[inline]
    fn mark(&mut self, lane: usize) {
        if !self.member[lane] {
            self.member[lane] = true;
            self.list.push(lane);
        }
    }

    fn mark_all(&mut self) {
        for lane in 0..self.member.len() {
            self.mark(lane);
        }
    }

    /// Decays the live lanes of `traces` by `factor`.
    fn decay(&mut self, traces: &mut [f32], factor: f32) {
        if !factor.is_finite() {
            self.mark_all();
        }
        for &lane in &self.list {
            let t = &mut traces[lane];
            *t -= *t * factor;
        }
    }

    /// Zeroes the live lanes of `traces` and forgets them.
    fn reset(&mut self, traces: &mut [f32]) {
        for lane in self.list.drain(..) {
            traces[lane] = 0.0;
            self.member[lane] = false;
        }
    }
}

impl StdpState {
    /// Zeroed traces for a projection of the given shape.
    pub fn new(config: StdpConfig, inputs: usize, neurons: usize) -> Self {
        Self {
            config,
            trace_pre: vec![0.0; inputs],
            trace_post: vec![0.0; neurons],
            pre: LiveLanes::new(inputs),
            post: LiveLanes::new(neurons),
            rows: Vec::new(),
        }
    }

    /// The hyperparameters in use.
    pub fn config(&self) -> &StdpConfig {
        &self.config
    }

    /// Decays all traces by one timestep: `t −= t · dt_ms / tau`, applied
    /// to the live traces only (every other trace is zero and stays so).
    pub fn decay(&mut self, dt_ms: f32) {
        self.pre
            .decay(&mut self.trace_pre, dt_ms / self.config.tau_pre);
        self.post
            .decay(&mut self.trace_post, dt_ms / self.config.tau_post);
    }

    /// Processes presynaptic spikes: depresses the fan-out weights of each
    /// active input by the postsynaptic traces, writes the depressed rows'
    /// sum into `drive` (overwriting it), then refreshes the pre traces.
    ///
    /// This is training's only drive read: every depressed weight is
    /// finite and inside `[0, w_max]`, so it is exactly the value either
    /// synapse read rule would return for the rewritten row, and `drive`
    /// receives the rows in `active_inputs` order onto `+0.0` — the sums
    /// a separate read pass after depression would produce.
    ///
    /// With `clean` set the caller guarantees that every stored word is
    /// clean (`w >= 0.0 && w <= w_max`). Then only the live post lanes of
    /// each active row are rewritten (every other lane would be rewritten
    /// to itself), and the drive comes from [`Kernel::sum_rows`] over the
    /// active rows, the inference sweep's row sums. Otherwise every lane
    /// goes through the read rule in [`Kernel::depress_accumulate`].
    ///
    /// # Panics
    ///
    /// Panics if `drive` does not hold one lane per neuron.
    pub fn on_pre_spikes(
        &mut self,
        weights: &mut StoredWeights,
        active_inputs: &[u32],
        drive: &mut [f32],
        kernel: Kernel,
        clean: bool,
    ) {
        let w_max = weights.w_max();
        let lr = self.config.lr_depress;
        if clean {
            if !lr.is_finite() {
                self.post.mark_all();
            }
            self.rows.clear();
            for &i in active_inputs {
                let i = i as usize;
                let row = weights.fan_out_mut(i);
                for &j in &self.post.list {
                    row[j] = (row[j] - lr * self.trace_post[j]).clamp(0.0, w_max);
                }
                self.rows.push(i);
            }
            assert_eq!(drive.len(), weights.neurons(), "one drive lane per neuron");
            kernel.sum_rows(drive, weights.as_slice(), weights.neurons(), 0, &self.rows);
        } else {
            drive.fill(0.0);
            for &i in active_inputs {
                let row = weights.fan_out_mut(i as usize);
                kernel.depress_accumulate(row, &self.trace_post, lr, w_max, drive);
            }
        }
        for &i in active_inputs {
            self.trace_pre[i as usize] = 1.0;
            self.pre.mark(i as usize);
        }
    }

    /// Processes postsynaptic spikes: each firing neuron's input weights
    /// move by `lr · (trace_pre − x_target) · (w_max − w)` — potentiation
    /// for recently active inputs, depression for silent ones — then the
    /// post traces are refreshed. Each column walk runs through
    /// [`Kernel::potentiate_column`], or through
    /// [`Kernel::potentiate_column_clean`] when the caller guarantees a
    /// clean store (as for [`on_pre_spikes`](Self::on_pre_spikes)).
    pub fn on_post_spikes(
        &mut self,
        weights: &mut StoredWeights,
        fired: &[usize],
        kernel: Kernel,
        clean: bool,
    ) {
        let w_max = weights.w_max();
        let neurons = weights.neurons();
        let w = weights.as_mut_slice();
        for &j in fired {
            if clean {
                kernel.potentiate_column_clean(w, neurons, j, &self.trace_pre, &self.config, w_max);
            } else {
                kernel.potentiate_column(w, neurons, j, &self.trace_pre, &self.config, w_max);
            }
            self.trace_post[j] = 1.0;
            self.post.mark(j);
        }
    }

    /// Resets all traces (between samples).
    pub fn reset(&mut self) {
        self.pre.reset(&mut self.trace_pre);
        self.post.reset(&mut self.trace_post);
        self.rows.clear();
    }

    /// The neurons that fired since the last [`reset`](Self::reset), each
    /// once: on a clean store, the only columns the updates wrote.
    pub(crate) fn live_post(&self) -> &[usize] {
        &self.post.list
    }

    /// Presynaptic traces (for inspection/tests).
    pub fn trace_pre(&self) -> &[f32] {
        &self.trace_pre
    }

    /// Postsynaptic traces (for inspection/tests).
    pub fn trace_post(&self) -> &[f32] {
        &self.trace_post
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (StoredWeights, StdpState) {
        let w = StoredWeights::from_weights(4, 2, 1.0, vec![0.5; 8]);
        let s = StdpState::new(StdpConfig::standard(), 4, 2);
        (w, s)
    }

    /// Presynaptic spikes through the fused pass with a scratch drive
    /// buffer; returns the drive the pass accumulated.
    fn pre(s: &mut StdpState, w: &mut StoredWeights, active: &[u32]) -> Vec<f32> {
        let mut drive = vec![0.0; w.neurons()];
        s.on_pre_spikes(w, active, &mut drive, Kernel::Scalar, false);
        drive
    }

    fn post(s: &mut StdpState, w: &mut StoredWeights, fired: &[usize]) {
        s.on_post_spikes(w, fired, Kernel::Scalar, false);
    }

    #[test]
    fn pre_then_post_potentiates() {
        let (mut w, mut s) = setup();
        pre(&mut s, &mut w, &[0]);
        s.decay(1.0);
        let before = w.raw(0, 1);
        post(&mut s, &mut w, &[1]);
        assert!(w.raw(0, 1) > before, "pre→post order strengthens");
        // Inputs that were silent fall below the target trace and are
        // slightly depressed instead.
        assert!(w.raw(2, 1) < 0.5);
    }

    #[test]
    fn post_then_pre_depresses() {
        let (mut w, mut s) = setup();
        post(&mut s, &mut w, &[0]);
        s.decay(1.0);
        let before = w.raw(1, 0);
        pre(&mut s, &mut w, &[1]);
        assert!(w.raw(1, 0) < before, "post→pre order weakens");
    }

    #[test]
    fn traces_decay_exponentially() {
        let (mut w, mut s) = setup();
        pre(&mut s, &mut w, &[0]);
        assert_eq!(s.trace_pre()[0], 1.0);
        for _ in 0..20 {
            s.decay(1.0);
        }
        let t = s.trace_pre()[0];
        // After one time constant: ~(1 - 1/20)^20 ≈ 0.358.
        assert!((0.3..0.45).contains(&t), "trace {t}");
    }

    #[test]
    fn weights_stay_in_bounds_under_hammering() {
        let (mut w, mut s) = setup();
        for _ in 0..200 {
            pre(&mut s, &mut w, &[0, 1, 2, 3]);
            post(&mut s, &mut w, &[0, 1]);
            s.decay(1.0);
        }
        assert!(w
            .as_slice()
            .iter()
            .all(|&x| (0.0..=1.0).contains(&x) && x.is_finite()));
    }

    #[test]
    fn potentiation_saturates_at_w_max() {
        let (mut w, mut s) = setup();
        // One pre spike arms the trace; repeated post spikes then drive the
        // soft-bounded weight towards (but never past) w_max.
        pre(&mut s, &mut w, &[0]);
        for _ in 0..2000 {
            post(&mut s, &mut w, &[0]);
        }
        let v = w.raw(0, 0);
        assert!(v <= 1.0 && v > 0.95, "saturating potentiation, got {v}");
    }

    #[test]
    fn reset_clears_traces() {
        let (mut w, mut s) = setup();
        pre(&mut s, &mut w, &[0]);
        post(&mut s, &mut w, &[0]);
        s.reset();
        assert!(s.trace_pre().iter().all(|&t| t == 0.0));
        assert!(s.trace_post().iter().all(|&t| t == 0.0));
    }

    #[test]
    fn corrupted_weight_is_scrubbed_on_update() {
        let mut w = StoredWeights::from_weights(1, 1, 1.0, vec![f32::INFINITY]);
        let mut s = StdpState::new(StdpConfig::standard(), 1, 1);
        let drive = pre(&mut s, &mut w, &[0]);
        assert!(w.raw(0, 0).is_finite());
        assert_eq!(drive, [0.0]);
    }

    /// The dense rules the sparse state must reproduce, written out
    /// independently of it and of the kernels: every trace decays and
    /// every lane is depressed, through the read rule.
    struct Dense {
        config: StdpConfig,
        pre: Vec<f32>,
        post: Vec<f32>,
    }

    impl Dense {
        fn decay(&mut self, dt_ms: f32) {
            let (dp, dq) = (dt_ms / self.config.tau_pre, dt_ms / self.config.tau_post);
            self.pre.iter_mut().for_each(|t| *t -= *t * dp);
            self.post.iter_mut().for_each(|t| *t -= *t * dq);
        }

        fn on_pre(&mut self, w: &mut StoredWeights, active: &[u32]) -> Vec<f32> {
            let (w_max, lr) = (w.w_max(), self.config.lr_depress);
            let mut drive = vec![0.0f32; w.neurons()];
            for &i in active {
                for (j, d) in drive.iter_mut().enumerate() {
                    let e = StoredWeights::effective(w.raw(i as usize, j), w_max);
                    let depressed = (e - lr * self.post[j]).clamp(0.0, w_max);
                    w.set(i as usize, j, depressed);
                    *d += depressed;
                }
                self.pre[i as usize] = 1.0;
            }
            drive
        }

        fn on_post(&mut self, w: &mut StoredWeights, fired: &[usize]) {
            let w_max = w.w_max();
            let (lr, x_target) = (self.config.lr_potentiate, self.config.x_target);
            for &j in fired {
                for (i, &pre) in self.pre.iter().enumerate() {
                    let e = StoredWeights::effective(w.raw(i, j), w_max);
                    w.set(
                        i,
                        j,
                        (e + lr * (pre - x_target) * (w_max - e)).clamp(0.0, w_max),
                    );
                }
                self.post[j] = 1.0;
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A sorted subset of `0..n`, each member with probability `p`.
    fn subset(rng: &mut rand::rngs::StdRng, n: usize, p: f64) -> Vec<usize> {
        use rand::Rng;
        (0..n).filter(|_| rng.gen_bool(p)).collect()
    }

    /// Drives the sparse state and the dense reference through the same
    /// scripted prefix and random operations on a clean store, comparing
    /// traces, weights and drive bit for bit after every step.
    fn check_sparse_matches_dense(config: StdpConfig, seed: u64) {
        use rand::{Rng, SeedableRng};
        let (inputs, neurons) = (13, 11);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for &kernel in Kernel::available() {
            let mut sparse_w = StoredWeights::random(inputs, neurons, 1.0, seed);
            sparse_w.set(2, 5, -0.0);
            sparse_w.set(4, 3, 1.0);
            let mut dense_w = sparse_w.clone();
            let mut sparse = StdpState::new(config, inputs, neurons);
            let mut dense = Dense {
                config,
                pre: vec![0.0; inputs],
                post: vec![0.0; neurons],
            };
            let compare = |s: &StdpState, d: &Dense, sw: &StoredWeights, dw: &StoredWeights| {
                assert_eq!(bits(s.trace_pre()), bits(&d.pre), "{kernel:?} pre traces");
                assert_eq!(
                    bits(s.trace_post()),
                    bits(&d.post),
                    "{kernel:?} post traces"
                );
                assert_eq!(
                    bits(sw.as_slice()),
                    bits(dw.as_slice()),
                    "{kernel:?} weights"
                );
            };
            // Scripted: neuron 4 and input 6 go live, their traces decay
            // to exactly zero at `dt = tau`, then they spike again and a
            // pre spike reads the refreshed post trace before any decay.
            let tau = config.tau_post.min(config.tau_pre);
            sparse.on_post_spikes(&mut sparse_w, &[4], kernel, true);
            dense.on_post(&mut dense_w, &[4]);
            sparse.on_pre_spikes(&mut sparse_w, &[6], &mut vec![0.0; neurons], kernel, true);
            dense.on_pre(&mut dense_w, &[6]);
            for _ in 0..3 {
                sparse.decay(tau);
                dense.decay(tau);
            }
            compare(&sparse, &dense, &sparse_w, &dense_w);
            sparse.on_post_spikes(&mut sparse_w, &[4], kernel, true);
            dense.on_post(&mut dense_w, &[4]);
            let mut drive = vec![7.0; neurons];
            sparse.on_pre_spikes(&mut sparse_w, &[1, 6], &mut drive, kernel, true);
            let want = dense.on_pre(&mut dense_w, &[1, 6]);
            assert_eq!(bits(&drive), bits(&want), "{kernel:?} scripted drive");
            compare(&sparse, &dense, &sparse_w, &dense_w);
            // Random operations, with decay steps of a tau, half of one
            // and a standard 1 ms.
            for step in 0..300 {
                match rng.gen_range(0..10) {
                    0..=3 => {
                        let dt = [tau, 0.5 * tau, 1.0][rng.gen_range(0..3)];
                        sparse.decay(dt);
                        dense.decay(dt);
                    }
                    4..=6 => {
                        let active: Vec<u32> = subset(&mut rng, inputs, 0.3)
                            .into_iter()
                            .map(|i| i as u32)
                            .collect();
                        let mut drive = vec![f32::NAN; neurons];
                        sparse.on_pre_spikes(&mut sparse_w, &active, &mut drive, kernel, true);
                        let want = dense.on_pre(&mut dense_w, &active);
                        assert_eq!(bits(&drive), bits(&want), "{kernel:?} drive at {step}");
                    }
                    7 | 8 => {
                        let fired = subset(&mut rng, neurons, 0.2);
                        sparse.on_post_spikes(&mut sparse_w, &fired, kernel, true);
                        dense.on_post(&mut dense_w, &fired);
                    }
                    _ => {
                        sparse.reset();
                        dense.pre.fill(0.0);
                        dense.post.fill(0.0);
                    }
                }
                compare(&sparse, &dense, &sparse_w, &dense_w);
            }
        }
    }

    #[test]
    fn sparse_updates_match_the_dense_rules() {
        check_sparse_matches_dense(StdpConfig::standard(), 1);
        // Traces hit exactly zero on every full step and neurons fire
        // again from zero.
        let unit = StdpConfig {
            tau_pre: 1.0,
            tau_post: 1.0,
            ..StdpConfig::standard()
        };
        check_sparse_matches_dense(unit, 2);
        // Distinct time constants, one of them the step.
        let mixed = StdpConfig {
            tau_pre: 3.0,
            tau_post: 1.0,
            lr_depress: 0.05,
            ..StdpConfig::standard()
        };
        check_sparse_matches_dense(mixed, 3);
    }

    #[test]
    fn a_non_finite_factor_takes_every_lane_live() {
        // `0 · inf` is NaN, so a zero trace no longer stays zero: the
        // sparse state must follow the dense rules there too.
        let infinite = StdpConfig {
            tau_pre: 0.0,
            lr_depress: f32::INFINITY,
            ..StdpConfig::standard()
        };
        let mut w = StoredWeights::random(3, 4, 1.0, 5);
        let mut dense_w = w.clone();
        let mut s = StdpState::new(infinite, 3, 4);
        let mut dense = Dense {
            config: infinite,
            pre: vec![0.0; 3],
            post: vec![0.0; 4],
        };
        s.decay(1.0);
        dense.decay(1.0);
        assert_eq!(bits(s.trace_pre()), bits(&dense.pre));
        let mut drive = vec![0.0; 4];
        s.on_pre_spikes(&mut w, &[1], &mut drive, Kernel::Scalar, true);
        assert_eq!(bits(&drive), bits(&dense.on_pre(&mut dense_w, &[1])));
        assert_eq!(bits(w.as_slice()), bits(dense_w.as_slice()));
    }

    #[test]
    fn fused_drive_equals_reading_the_depressed_rows() {
        // The fused pass must add exactly what a separate read of the
        // depressed rows adds under either read rule, for corrupt words
        // and at every kernel.
        let stored = vec![
            f32::NAN,
            f32::INFINITY,
            -1.0,
            1.0e30,
            -0.0,
            1.5e-41,
            2.5,
            0.3,
            0.7,
            f32::NEG_INFINITY,
            -7.0e-42,
            0.0,
        ];
        for &kernel in Kernel::available() {
            let mut w = StoredWeights::from_weights(2, 6, 1.0, stored.clone());
            let mut s = StdpState::new(StdpConfig::standard(), 2, 6);
            s.on_post_spikes(&mut w.clone(), &[1, 4], kernel, false);
            s.decay(1.0);
            let mut drive = vec![0.0; 6];
            s.on_pre_spikes(&mut w, &[0, 1], &mut drive, kernel, false);
            let (mut clamped, mut unclamped) = (vec![0.0; 6], vec![0.0; 6]);
            for i in [0, 1] {
                kernel.accumulate_effective(&mut clamped, w.fan_out(i), 1.0);
                kernel.accumulate_finite(&mut unclamped, w.fan_out(i));
            }
            let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&drive), bits(&clamped), "{kernel:?}");
            assert_eq!(bits(&drive), bits(&unclamped), "{kernel:?}");
        }
    }
}
