//! Evaluation spike trains drawn once and presented many times.
//!
//! A sample's inference spike train is a pure function of its pixels, the
//! encoder, the presentation length, the seed and the sample's index (its
//! stream is [`sample_rng`]`(seed, index)`). The model does not enter it:
//! a dead row still draws and only never fires. So a caller that presents
//! one dataset under one seed to many models — fault-aware training labels
//! and scores every BER checkpoint on the same sets — can draw the trains
//! once into a [`DrawnSpikes`] and hand it to
//! [`BatchEvaluator::label_neurons_drawn`](crate::BatchEvaluator::label_neurons_drawn)
//! and [`BatchEvaluator::evaluate_drawn`](crate::BatchEvaluator::evaluate_drawn),
//! which give exactly the results of the live-drawing calls at that seed.
//!
//! The trains are stored gap-coded: per timestep the count of active input
//! lines, then each line as its distance from the previous one, every
//! number an LEB128 varint. Input lines of a 28×28 image fit one or two
//! bytes, so a 100-step N400 sample takes about 2 KB.

use crate::coding::PoissonEncoder;
use crate::engine::{chunk_ranges, parallel_map, sample_rng, worker_count};
use crate::network::SnnConfig;
use rand::rngs::StdRng;
use sparkxd_data::Dataset;

/// Samples drawn in lockstep, one RNG stream per lane of the encoder.
const GROUP: usize = 4;

/// Every sample's spike train of one dataset under one seed, for one
/// encoder and presentation length.
#[derive(Debug, Clone, PartialEq)]
pub struct DrawnSpikes {
    encoder: PoissonEncoder,
    timesteps: usize,
    inputs: usize,
    /// Sample `k`'s trains are `bytes[ends[k - 1]..ends[k]]` (from 0 for
    /// the first sample).
    ends: Vec<usize>,
    bytes: Vec<u8>,
}

impl DrawnSpikes {
    /// Draws the spike train of every sample of `dataset` under `seed`
    /// for networks configured as `config` (its encoder, presentation
    /// length and input width), exactly as the live inference path draws
    /// them. The samples are shared out across the thread budget and each
    /// worker steps its streams in lockstep
    /// ([`PoissonEncoder::encode_planned_chunk`]).
    ///
    /// # Panics
    ///
    /// Panics if an image does not match the configured input size.
    pub fn draw(config: &SnnConfig, dataset: &Dataset, seed: u64) -> Self {
        let _span = sparkxd_telemetry::span!("engine.draw_spikes");
        let encoder = config.encoder;
        let chunks = chunk_ranges(dataset.len(), worker_count(dataset.len()));
        let parts = parallel_map(&chunks, chunks.len(), |_, range| {
            let kernel = crate::engine::kernel();
            let (mut ends, mut bytes) = (Vec::with_capacity(range.len()), Vec::new());
            let mut plans = vec![Vec::new(); GROUP];
            let mut active = vec![Vec::new(); GROUP];
            let mut trains = vec![Vec::new(); GROUP];
            let mut start = range.start;
            while start < range.end {
                let group = start..(start + GROUP).min(range.end);
                let len = group.len();
                for (plan, i) in plans.iter_mut().zip(group.clone()) {
                    let pixels = dataset.get(i).0.pixels();
                    assert_eq!(
                        pixels.len(),
                        config.n_inputs,
                        "dataset image matches configured input size"
                    );
                    encoder.plan(pixels, plan);
                }
                let mut rngs: Vec<StdRng> = group.map(|i| sample_rng(seed, i as u64)).collect();
                for train in &mut trains[..len] {
                    train.clear();
                }
                for _ in 0..config.timesteps {
                    encoder.encode_planned_chunk(
                        kernel,
                        &plans[..len],
                        &mut rngs,
                        &mut active[..len],
                    );
                    for (train, active) in trains.iter_mut().zip(&active[..len]) {
                        write_step(train, active);
                    }
                }
                for train in &trains[..len] {
                    bytes.extend_from_slice(train);
                    ends.push(bytes.len());
                }
                start += len;
            }
            (ends, bytes)
        });
        let mut ends = Vec::with_capacity(dataset.len());
        let mut bytes = Vec::with_capacity(parts.iter().map(|(_, b)| b.len()).sum());
        for (part_ends, part_bytes) in parts {
            let base = bytes.len();
            ends.extend(part_ends.into_iter().map(|end| base + end));
            bytes.extend_from_slice(&part_bytes);
        }
        Self {
            encoder,
            timesteps: config.timesteps,
            inputs: config.n_inputs,
            ends,
            bytes,
        }
    }

    /// Samples drawn.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no sample was drawn.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Sample `k`'s gap-coded train, read step by step with [`read_step`].
    pub(crate) fn sample(&self, k: usize) -> &[u8] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.bytes[start..self.ends[k]]
    }

    /// Panics unless the set was drawn for `dataset` under networks
    /// configured like `config`.
    pub(crate) fn check_matches(&self, config: &SnnConfig, dataset: &Dataset) {
        assert_eq!(self.len(), dataset.len(), "one drawn train per sample");
        assert!(
            self.encoder == config.encoder
                && self.timesteps == config.timesteps
                && self.inputs == config.n_inputs,
            "spike trains drawn for another encoder, presentation length or input width"
        );
    }
}

/// Appends one timestep's active lines (ascending) to `train`.
fn write_step(train: &mut Vec<u8>, active: &[usize]) {
    write_varint(train, active.len());
    let mut previous = 0;
    for &line in active {
        write_varint(train, line - previous);
        previous = line;
    }
}

/// Reads the timestep at `*pos` of a train into `active` (cleared first),
/// keeping the lines `keep` accepts, and advances `*pos` past it.
#[inline]
pub(crate) fn read_step(
    train: &[u8],
    pos: &mut usize,
    active: &mut Vec<usize>,
    keep: impl Fn(usize) -> bool,
) {
    active.clear();
    let count = read_varint(train, pos);
    let mut line = 0;
    for _ in 0..count {
        line += read_varint(train, pos);
        if keep(line) {
            active.push(line);
        }
    }
}

/// Unsigned LEB128: seven bits per byte, low bits first, the top bit set
/// on every byte but the last.
fn write_varint(out: &mut Vec<u8>, mut value: usize) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> usize {
    let (mut value, mut shift) = (0usize, 0);
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        value |= usize::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return value;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkxd_data::{SynthDigits, SyntheticSource};

    #[test]
    fn varints_round_trip() {
        let values = [0, 1, 127, 128, 783, 16_383, 16_384, usize::MAX];
        let mut bytes = Vec::new();
        for &v in &values {
            write_varint(&mut bytes, v);
        }
        assert_eq!(bytes[..3], [0, 1, 127], "small values take one byte");
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&bytes, &mut pos), v);
        }
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn drawn_trains_are_the_live_draws() {
        // Each sample's stored steps are exactly what its own stream draws
        // step by step, for every group size the lockstep draw cuts.
        let config = SnnConfig::for_neurons(5).with_timesteps(12);
        for n in [0, 1, 3, 4, 6, 9] {
            let data = SynthDigits.generate(n, 4);
            let set = DrawnSpikes::draw(&config, &data, 77);
            assert_eq!(set.len(), n);
            let (mut plan, mut want, mut got) = (Vec::new(), Vec::new(), Vec::new());
            for k in 0..n {
                config.encoder.plan(data.get(k).0.pixels(), &mut plan);
                let mut rng = sample_rng(77, k as u64);
                let (train, mut pos) = (set.sample(k), 0);
                for _ in 0..config.timesteps {
                    config
                        .encoder
                        .encode_planned_step(&plan, &mut rng, &mut want);
                    read_step(train, &mut pos, &mut got, |_| true);
                    assert_eq!(got, want, "sample {k} of {n}");
                }
                assert_eq!(pos, train.len(), "every byte read");
            }
        }
    }

    #[test]
    fn read_step_filters_without_losing_its_place() {
        let mut train = Vec::new();
        write_step(&mut train, &[2, 5, 700]);
        write_step(&mut train, &[]);
        write_step(&mut train, &[0, 130]);
        let (mut pos, mut active) = (0, Vec::new());
        read_step(&train, &mut pos, &mut active, |line| line != 5);
        assert_eq!(active, [2, 700]);
        read_step(&train, &mut pos, &mut active, |_| true);
        assert!(active.is_empty());
        read_step(&train, &mut pos, &mut active, |_| true);
        assert_eq!(active, [0, 130]);
        assert_eq!(pos, train.len());
    }

    #[test]
    #[should_panic(expected = "another encoder")]
    fn a_set_drawn_for_another_length_is_refused() {
        let data = SynthDigits.generate(2, 4);
        let set = DrawnSpikes::draw(&SnnConfig::for_neurons(5).with_timesteps(12), &data, 1);
        set.check_matches(&SnnConfig::for_neurons(5).with_timesteps(13), &data);
    }
}
