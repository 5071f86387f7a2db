//! Spike coding: conversion of images into spike trains.
//!
//! The paper uses rate coding with Poisson-distributed spike trains
//! (Section V); each pixel's intensity sets the firing rate of its input
//! line. A deterministic encoder is provided for reproducible unit tests.

use crate::kernels::Kernel;
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
        active.clear();
        draw_planned(plan, rng, active, |i| i as usize);
    }

    /// Samples one timestep for every stream of a chunk: `active[b]`
    /// receives exactly what
    /// [`encode_planned_step`](Self::encode_planned_step)`(&plans[b], &mut rngs[b], &mut active[b])`
    /// would give, and `rngs[b]` ends where those draws end.
    ///
    /// The streams are independent, so the AVX2 kernel steps them in
    /// lockstep: four xoshiro256++ states, one 64-bit lane per stream,
    /// draw the plans' common prefix together. A lane accepts when
    /// `(r >> 40) < threshold`, which is `(next_u32() >> 8) < threshold`
    /// for the 64-bit draw `r`; the threshold (at most 2²⁴) and the
    /// shifted draw are both non-negative as `i64`, so the signed 64-bit
    /// compare decides it exactly. Each stream's state is then written
    /// back and its longer plan finished by the serial loop. A chunk is
    /// cut into groups of four; a final group of two or three pads its
    /// spare lanes with a copy of its first stream that is never written
    /// back, and a single stream stays serial. The portable kernel runs
    /// the serial step per stream, the reference the lockstep draw is
    /// tested against.
    ///
    /// # Panics
    ///
    /// Panics if `plans`, `rngs` and `active` have different lengths.
    pub fn encode_planned_chunk(
        &self,
        kernel: Kernel,
        plans: &[Vec<(u32, u32)>],
        rngs: &mut [StdRng],
        active: &mut [Vec<usize>],
    ) {
        assert!(
            plans.len() == rngs.len() && active.len() == rngs.len(),
            "one plan, RNG stream and output list per sample"
        );
        let mut start = 0;
        #[cfg(target_arch = "x86_64")]
        if kernel.run_avx2() {
            while rngs.len() - start >= 2 {
                let group = start..(start + 4).min(rngs.len());
                let (plans, rngs, active) = (
                    &plans[group.clone()],
                    &mut rngs[group.clone()],
                    &mut active[group.clone()],
                );
                // SAFETY: AVX2 presence verified by `run_avx2` just above;
                // each call gets as many plans, streams and outputs as its
                // lane count.
                unsafe {
                    match group.len() {
                        4 => lockstep::draw::<4>(plans, rngs, active),
                        3 => lockstep::draw::<3>(plans, rngs, active),
                        _ => lockstep::draw::<2>(plans, rngs, active),
                    }
                }
                start = group.end;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = kernel;
        for b in start..rngs.len() {
            self.encode_planned_step(&plans[b], &mut rngs[b], &mut active[b]);
        }
    }

    /// [`encode_planned_step`](Self::encode_planned_step) that *appends*
    /// the step's firing input lines to `active` as `u32`s, so a whole
    /// presentation can be encoded into one flat buffer ahead of training.
    /// Draws exactly the same RNG sequence.
    pub(crate) fn encode_planned_append(
        &self,
        plan: &[(u32, u32)],
        rng: &mut StdRng,
        active: &mut Vec<u32>,
    ) {
        draw_planned(plan, rng, active, |i| i);
    }
}

/// The branch-free draw loop of the planned encoder: one `next_u32` per
/// plan entry, each entry written to the next free slot past `out`'s
/// current end and kept when its draw falls under the threshold.
#[inline(always)]
fn draw_planned<T: Copy + Default>(
    plan: &[(u32, u32)],
    rng: &mut StdRng,
    out: &mut Vec<T>,
    index: impl Fn(u32) -> T,
) {
    use rand::RngCore;
    let start = out.len();
    out.resize(start + plan.len(), T::default());
    let mut local = rng.clone();
    let mut len = start;
    for &(i, threshold) in plan {
        out[len] = index(i);
        len += usize::from((local.next_u32() >> 8) < threshold);
    }
    out.truncate(len);
    *rng = local;
}

/// The AVX2 lockstep draw of
/// [`PoissonEncoder::encode_planned_chunk`].
#[cfg(target_arch = "x86_64")]
mod lockstep {
    use super::draw_planned;
    use rand::rngs::StdRng;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_castsi256_pd, _mm256_cmpgt_epi64, _mm256_movemask_pd,
        _mm256_or_si256, _mm256_set_epi64x, _mm256_slli_epi64, _mm256_srli_epi64,
        _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// One xoshiro256++ state word of four streams, stream `l` in lane `l`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn word(states: &[[u64; 4]; 4], k: usize) -> __m256i {
        _mm256_set_epi64x(
            states[3][k] as i64,
            states[2][k] as i64,
            states[1][k] as i64,
            states[0][k] as i64,
        )
    }

    /// Draws one timestep for `N` (2–4) streams: the plans' common
    /// prefix in lockstep, then each stream's rest serially. Lanes past
    /// `N` mirror stream 0 and are discarded.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, and `plans`, `rngs` and `active` must each
    /// hold exactly `N` entries.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn draw<const N: usize>(
        plans: &[Vec<(u32, u32)>],
        rngs: &mut [StdRng],
        active: &mut [Vec<usize>],
    ) {
        debug_assert!(plans.len() == N && rngs.len() == N && active.len() == N);
        let lane = |l: usize| if l < N { l } else { 0 };
        let plan: [&[(u32, u32)]; 4] = std::array::from_fn(|l| plans[lane(l)].as_slice());
        let states: [[u64; 4]; 4] = std::array::from_fn(|l| rngs[lane(l)].state());
        let common = plan.iter().map(|p| p.len()).min().unwrap_or(0);
        let mut out = [std::ptr::null_mut::<usize>(); N];
        for (l, slot) in out.iter_mut().enumerate() {
            active[l].clear();
            active[l].reserve(plan[l].len());
            *slot = active[l].as_mut_ptr();
        }
        let (mut s0, mut s1, mut s2, mut s3) = (
            word(&states, 0),
            word(&states, 1),
            word(&states, 2),
            word(&states, 3),
        );
        let mut len = [0usize; N];
        for k in 0..common {
            // xoshiro256++ `next_u64`, lane for lane: the result is
            // rotl(s0 + s3, 23) + s0, then the state update.
            let sum = _mm256_add_epi64(s0, s3);
            let rot = _mm256_or_si256(_mm256_slli_epi64::<23>(sum), _mm256_srli_epi64::<41>(sum));
            let draw = _mm256_add_epi64(rot, s0);
            let t = _mm256_slli_epi64::<17>(s1);
            s2 = _mm256_xor_si256(s2, s0);
            s3 = _mm256_xor_si256(s3, s1);
            s1 = _mm256_xor_si256(s1, s2);
            s0 = _mm256_xor_si256(s0, s3);
            s2 = _mm256_xor_si256(s2, t);
            s3 = _mm256_or_si256(_mm256_slli_epi64::<45>(s3), _mm256_srli_epi64::<19>(s3));
            // SAFETY: `k < common`, the shortest plan's length.
            let entry = unsafe {
                [
                    *plan[0].get_unchecked(k),
                    *plan[1].get_unchecked(k),
                    *plan[2].get_unchecked(k),
                    *plan[3].get_unchecked(k),
                ]
            };
            let threshold = _mm256_set_epi64x(
                i64::from(entry[3].1),
                i64::from(entry[2].1),
                i64::from(entry[1].1),
                i64::from(entry[0].1),
            );
            let accept = _mm256_cmpgt_epi64(threshold, _mm256_srli_epi64::<40>(draw));
            let accept = _mm256_movemask_pd(_mm256_castsi256_pd(accept)) as usize;
            for l in 0..N {
                // SAFETY: `len[l] <= k < common <= plan[l].len()`, within
                // the capacity reserved above.
                unsafe { *out[l].add(len[l]) = entry[l].0 as usize };
                len[l] += (accept >> l) & 1;
            }
        }
        let mut words = [[0u64; 4]; 4];
        for (dst, s) in words.iter_mut().zip([s0, s1, s2, s3]) {
            // SAFETY: `dst` is 32 writable bytes; the store is unaligned.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), s) };
        }
        for l in 0..N {
            // SAFETY: slots `0..len[l]` were written above (each accepted
            // slot before its count advanced past it), within capacity.
            unsafe { active[l].set_len(len[l]) };
            rngs[l] = StdRng::from_state([words[0][l], words[1][l], words[2][l], words[3][l]]);
            draw_planned(&plan[l][common..], &mut rngs[l], &mut active[l], |i| {
                i as usize
            });
        }
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
    fn appending_encoder_matches_the_step_encoder() {
        use rand::RngCore;
        let e = PoissonEncoder::standard();
        let pixels: Vec<f32> = (0..300).map(|i| (i % 7) as f32 / 6.0).collect();
        let mut plan = Vec::new();
        e.plan(&pixels, &mut plan);
        let mut rng_a = StdRng::seed_from_u64(31);
        let mut rng_b = StdRng::seed_from_u64(31);
        let (mut step, mut flat) = (Vec::new(), vec![7u32]);
        for _ in 0..50 {
            let start = flat.len();
            e.encode_planned_step(&plan, &mut rng_a, &mut step);
            e.encode_planned_append(&plan, &mut rng_b, &mut flat);
            let appended: Vec<usize> = flat[start..].iter().map(|&i| i as usize).collect();
            assert_eq!(appended, step);
        }
        assert_eq!(flat[0], 7, "earlier entries kept");
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
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
