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

use crate::kernels::Kernel;
use crate::synapse::StoredWeights;

/// How many inputs ahead the potentiation column walk prefetches.
const PREFETCH_ROWS: usize = 16;

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
#[derive(Debug, Clone, PartialEq)]
pub struct StdpState {
    config: StdpConfig,
    trace_pre: Vec<f32>,
    trace_post: Vec<f32>,
}

impl StdpState {
    /// Zeroed traces for a projection of the given shape.
    pub fn new(config: StdpConfig, inputs: usize, neurons: usize) -> Self {
        Self {
            config,
            trace_pre: vec![0.0; inputs],
            trace_post: vec![0.0; neurons],
        }
    }

    /// The hyperparameters in use.
    pub fn config(&self) -> &StdpConfig {
        &self.config
    }

    /// Decays all traces by one timestep.
    pub fn decay(&mut self, dt_ms: f32) {
        let dp = dt_ms / self.config.tau_pre;
        for t in &mut self.trace_pre {
            *t -= *t * dp;
        }
        let dq = dt_ms / self.config.tau_post;
        for t in &mut self.trace_post {
            *t -= *t * dq;
        }
    }

    /// Processes presynaptic spikes: depresses the fan-out weights of each
    /// active input by the postsynaptic traces, adds the depressed row
    /// into `drive` in the same pass, then refreshes the pre traces.
    ///
    /// This is training's only drive read: every depressed weight is
    /// finite and inside `[0, w_max]`, so it is exactly the value either
    /// synapse read rule would return for the rewritten row, and `drive`
    /// (zeroed by the caller) receives the rows in `active_inputs` order —
    /// the same sums a separate read pass after depression would produce.
    ///
    /// # Panics
    ///
    /// Panics if `drive` does not hold one lane per neuron.
    pub fn on_pre_spikes(
        &mut self,
        weights: &mut StoredWeights,
        active_inputs: &[usize],
        drive: &mut [f32],
        kernel: Kernel,
    ) {
        let w_max = weights.w_max();
        let lr = self.config.lr_depress;
        for &i in active_inputs {
            kernel.depress_accumulate(weights.fan_out_mut(i), &self.trace_post, lr, w_max, drive);
            self.trace_pre[i] = 1.0;
        }
    }

    /// Processes postsynaptic spikes: each firing neuron's input weights
    /// move by `lr · (trace_pre − x_target) · (w_max − w)` — potentiation
    /// for recently active inputs, depression for silent ones — then the
    /// post traces are refreshed.
    ///
    /// The walk down a weight column strides `neurons` words per input, so
    /// it hints the word a few inputs ahead into cache while updating the
    /// current one; the per-weight arithmetic is unchanged.
    pub fn on_post_spikes(&mut self, weights: &mut StoredWeights, fired: &[usize]) {
        let w_max = weights.w_max();
        let lr = self.config.lr_potentiate;
        let x_target = self.config.x_target;
        let neurons = weights.neurons();
        let w = weights.as_mut_slice();
        for &j in fired {
            for (i, &pre) in self.trace_pre.iter().enumerate() {
                let ahead = (i + PREFETCH_ROWS) * neurons + j;
                if let Some(next) = w.get(ahead..=ahead) {
                    crate::kernels::prefetch_lanes(next);
                }
                let w = &mut w[i * neurons + j];
                let eff = StoredWeights::effective(*w, w_max);
                *w = (eff + lr * (pre - x_target) * (w_max - eff)).clamp(0.0, w_max);
            }
            self.trace_post[j] = 1.0;
        }
    }

    /// Resets all traces (between samples).
    pub fn reset(&mut self) {
        self.trace_pre.fill(0.0);
        self.trace_post.fill(0.0);
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
    fn pre(s: &mut StdpState, w: &mut StoredWeights, active: &[usize]) -> Vec<f32> {
        let mut drive = vec![0.0; w.neurons()];
        s.on_pre_spikes(w, active, &mut drive, Kernel::Scalar);
        drive
    }

    #[test]
    fn pre_then_post_potentiates() {
        let (mut w, mut s) = setup();
        pre(&mut s, &mut w, &[0]);
        s.decay(1.0);
        let before = w.raw(0, 1);
        s.on_post_spikes(&mut w, &[1]);
        assert!(w.raw(0, 1) > before, "pre→post order strengthens");
        // Inputs that were silent fall below the target trace and are
        // slightly depressed instead.
        assert!(w.raw(2, 1) < 0.5);
    }

    #[test]
    fn post_then_pre_depresses() {
        let (mut w, mut s) = setup();
        s.on_post_spikes(&mut w, &[0]);
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
            s.on_post_spikes(&mut w, &[0, 1]);
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
            s.on_post_spikes(&mut w, &[0]);
        }
        let v = w.raw(0, 0);
        assert!(v <= 1.0 && v > 0.95, "saturating potentiation, got {v}");
    }

    #[test]
    fn reset_clears_traces() {
        let (mut w, mut s) = setup();
        pre(&mut s, &mut w, &[0]);
        s.on_post_spikes(&mut w, &[0]);
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
            s.on_post_spikes(&mut w.clone(), &[1, 4]);
            s.decay(1.0);
            let mut drive = vec![0.0; 6];
            s.on_pre_spikes(&mut w, &[0, 1], &mut drive, kernel);
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
