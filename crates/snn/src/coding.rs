//! Spike coding: conversion of images into spike trains.
//!
//! The paper uses rate coding with Poisson-distributed spike trains
//! (Section V); each pixel's intensity sets the firing rate of its input
//! line. A deterministic encoder is provided for reproducible unit tests.

use rand::rngs::StdRng;
use rand::Rng;

/// Poisson rate encoder: pixel intensity `p ∈ [0,1]` fires with probability
/// `p · max_rate_hz · dt` each timestep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonEncoder {
    /// Firing rate of a fully bright pixel (Hz). Twice Diehl & Cook's
    /// 63.75 Hz, compensating for our shorter (100 ms vs 350 ms)
    /// presentations.
    pub max_rate_hz: f32,
    /// Simulation timestep (ms).
    pub dt_ms: f32,
}

impl PoissonEncoder {
    /// Encoder with the standard 63.75 Hz ceiling at 1 ms resolution.
    pub fn standard() -> Self {
        Self {
            max_rate_hz: 127.5,
            dt_ms: 1.0,
        }
    }

    /// Per-step spike probability of intensity `p`.
    pub fn spike_probability(&self, p: f32) -> f32 {
        (p * self.max_rate_hz * self.dt_ms / 1000.0).clamp(0.0, 1.0)
    }

    /// Samples one timestep of spikes for `pixels`, appending the indices
    /// of the input lines that fired to `active` (cleared first).
    pub fn encode_step(&self, pixels: &[f32], rng: &mut StdRng, active: &mut Vec<usize>) {
        active.clear();
        for (i, &p) in pixels.iter().enumerate() {
            if p > 0.0 && rng.gen::<f32>() < self.spike_probability(p) {
                active.push(i);
            }
        }
    }

    /// Precomputes the per-pixel firing thresholds of one sample into
    /// `plan` (cleared first): one `(input index, integer threshold)`
    /// entry per *non-zero* pixel, in ascending pixel order.
    ///
    /// [`encode_planned_step`](Self::encode_planned_step) then replays the
    /// plan each timestep, drawing exactly the same RNG sequence as
    /// [`encode_step`](Self::encode_step) — dark pixels never draw in
    /// either path — so the two produce bit-identical spike trains while
    /// the plan skips the dark-pixel scan and the per-step probability
    /// arithmetic. Used by the batched hot path, where one sample is
    /// presented for many timesteps.
    ///
    /// The stored threshold is `ceil(spike_probability · 2²⁴)`: a raw
    /// 24-bit draw `x` satisfies `x·2⁻²⁴ < probability` (the
    /// [`encode_step`](Self::encode_step) comparison — both sides exact in
    /// `f32`, since 24-bit integers and power-of-two scalings are
    /// representable) exactly when `x < ceil(probability · 2²⁴)`, so the
    /// integer compare accepts precisely the same draws.
    pub fn plan(&self, pixels: &[f32], plan: &mut Vec<(u32, u32)>) {
        plan.clear();
        for (i, &p) in pixels.iter().enumerate() {
            if p > 0.0 {
                let threshold = (self.spike_probability(p) * (1u32 << 24) as f32).ceil() as u32;
                plan.push((i as u32, threshold));
            }
        }
    }

    /// Samples one timestep of spikes from a precomputed [`plan`](Self::plan),
    /// appending the firing input lines to `active` (cleared first).
    /// Bit-identical to [`encode_step`](Self::encode_step) on the pixels
    /// the plan was built from: one `next_u32` per entry — the same draw
    /// `gen::<f32>()` consumes — against the precomputed integer threshold.
    ///
    /// The loop is branch-free: every entry is written to the next free
    /// slot and the slot count advances by the accept bit. It draws from a
    /// local copy of the generator (so the state stays in registers) and
    /// writes that copy back, leaving `rng` exactly where the draws end.
    pub fn encode_planned_step(
        &self,
        plan: &[(u32, u32)],
        rng: &mut StdRng,
        active: &mut Vec<usize>,
    ) {
        use rand::RngCore;
        active.clear();
        active.resize(plan.len(), 0);
        let mut local = rng.clone();
        let mut len = 0;
        for &(i, threshold) in plan {
            active[len] = i as usize;
            len += usize::from((local.next_u32() >> 8) < threshold);
        }
        active.truncate(len);
        *rng = local;
    }
}

impl Default for PoissonEncoder {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn probability_scales_with_intensity() {
        let e = PoissonEncoder::standard();
        assert_eq!(e.spike_probability(0.0), 0.0);
        assert!(e.spike_probability(1.0) > e.spike_probability(0.5));
        assert!((e.spike_probability(1.0) - 0.1275).abs() < 1e-6);
    }

    #[test]
    fn rate_statistics_match_intensity() {
        let e = PoissonEncoder::standard();
        let pixels = vec![1.0f32; 1000];
        let mut rng = StdRng::seed_from_u64(1);
        let mut active = Vec::new();
        let mut total = 0usize;
        let steps = 400;
        for _ in 0..steps {
            e.encode_step(&pixels, &mut rng, &mut active);
            total += active.len();
        }
        let rate = total as f64 / (1000.0 * steps as f64);
        assert!((rate / 0.1275 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn dark_pixels_never_fire() {
        let e = PoissonEncoder::standard();
        let pixels = vec![0.0f32; 100];
        let mut rng = StdRng::seed_from_u64(2);
        let mut active = Vec::new();
        for _ in 0..100 {
            e.encode_step(&pixels, &mut rng, &mut active);
            assert!(active.is_empty());
        }
    }

    #[test]
    fn planned_encoding_is_bit_identical_to_direct() {
        let e = PoissonEncoder::standard();
        // Mixed dark/bright pixels so the dark-skip paths are exercised.
        let pixels: Vec<f32> = (0..200)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 / 200.0 })
            .collect();
        let mut plan = Vec::new();
        e.plan(&pixels, &mut plan);
        assert_eq!(plan.len(), pixels.iter().filter(|&&p| p > 0.0).count());
        assert_planned_matches_direct(&pixels, 11);
    }

    /// Runs both encoders over `pixels` for 200 steps from one seed and
    /// asserts identical spike trains and an identical next draw.
    fn assert_planned_matches_direct(pixels: &[f32], seed: u64) {
        use rand::RngCore;
        let e = PoissonEncoder::standard();
        let mut plan = Vec::new();
        e.plan(pixels, &mut plan);
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let (mut direct, mut planned) = (Vec::new(), Vec::new());
        for step in 0..200 {
            e.encode_step(pixels, &mut rng_a, &mut direct);
            e.encode_planned_step(&plan, &mut rng_b, &mut planned);
            assert_eq!(direct, planned, "step {step}");
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "generator written back");
    }

    #[test]
    fn planned_encoding_matches_direct_on_edge_cases() {
        let e = PoissonEncoder::standard();
        // Saturating pixel: probability clamps to 1.0, threshold 2^24, so
        // every draw fires in both paths.
        let saturating = 10.0f32;
        assert_eq!(e.spike_probability(saturating), 1.0);
        let mut plan = Vec::new();
        e.plan(&[saturating], &mut plan);
        assert_eq!(plan, vec![(0, 1 << 24)]);
        let mut mixed = vec![0.0f32; 20];
        mixed[3] = saturating;
        mixed[11] = 0.5;
        assert_planned_matches_direct(&mixed, 21);
        // Near-zero probabilities: threshold 1, only a zero draw fires.
        let tiny = [1.0e-30f32, f32::MIN_POSITIVE, 1.0e-45, 0.0, 1.0e-7];
        e.plan(&tiny, &mut plan);
        assert!(plan.iter().all(|&(_, t)| t <= 2), "{plan:?}");
        assert_planned_matches_direct(&tiny, 22);
        // Empty plan: an all-dark image draws nothing.
        assert_planned_matches_direct(&[0.0f32; 64], 23);
        assert_planned_matches_direct(&[], 24);
        // All-bright image: every pixel is in the plan.
        assert_planned_matches_direct(&[1.0f32; 784], 25);
    }

    #[test]
    fn deterministic_given_seed() {
        let e = PoissonEncoder::standard();
        let pixels: Vec<f32> = (0..100).map(|i| i as f32 / 100.0).collect();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut active = Vec::new();
            let mut all = Vec::new();
            for _ in 0..20 {
                e.encode_step(&pixels, &mut rng, &mut active);
                all.push(active.clone());
            }
            all
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
