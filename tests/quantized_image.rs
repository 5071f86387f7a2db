//! End-to-end properties of the packed quantised DRAM weight image:
//! quantise → inject at the native word width → dequantise. Whatever the
//! flips do, the corrupted image reads back into the valid weight range,
//! injection never changes the image's geometry, and a zero-BER pass is
//! exactly the quantisation round trip.

use proptest::prelude::*;
use sparkxd::error::{ErrorModel, Injector, WordImage};
use sparkxd::snn::{EffectivePlane, QuantizedImage, StoredWeights, WeightPrecision};

/// Weight words a trained store can plausibly hold, plus the corrupt
/// species the scrub exists for.
fn weight_word(i: usize, w_max: f32) -> f32 {
    match i % 11 {
        0 => 0.0,
        1 => w_max,
        2 => w_max * 0.5,
        3 => -1.0,
        4 => f32::NAN,
        5 => f32::INFINITY,
        6 => f32::NEG_INFINITY,
        7 => w_max * 2.0,
        8 => 1.5e-41, // denormal
        9 => w_max * 0.125,
        _ => w_max * 0.99,
    }
}

fn store(inputs: usize, neurons: usize, w_max: f32, phase: usize) -> StoredWeights {
    let w = (0..inputs * neurons)
        .map(|i| weight_word(i + phase, w_max))
        .collect();
    StoredWeights::from_weights(inputs, neurons, w_max, w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any image shape, width, BER, error model and clamp setting,
    /// the plane built from the corrupted packed image's read-back holds
    /// only valid weights.
    #[test]
    fn corrupted_packed_plane_stays_in_range(
        inputs in 1usize..9,
        neurons in 1usize..9,
        phase in 0usize..11,
        w_max_idx in 0usize..3,
        precision_is_8 in any::<bool>(),
        model_idx in 0usize..4,
        ber_idx in 0usize..4,
        seed in 0u64..1000,
        clamp in any::<bool>(),
    ) {
        let w_max = [1.0f32, 0.35, 8.0][w_max_idx];
        let ber = [0.0f64, 1e-3, 0.05, 0.5][ber_idx];
        let precision = if precision_is_8 {
            WeightPrecision::Int8
        } else {
            WeightPrecision::Int16
        };
        let model = [
            ErrorModel::Model0,
            ErrorModel::Model1 { weak_fraction: 0.25 },
            ErrorModel::Model2 { weak_fraction: 0.25 },
            ErrorModel::Model3 { one_bias: 0.8 },
        ][model_idx];
        let weights = store(inputs, neurons, w_max, phase);
        let mut image = QuantizedImage::quantize(&weights, precision);
        let word_bits = image.word_bits();
        let mut injector = Injector::new(model, seed);
        injector.inject_uniform(WordImage::packed(image.payload_mut(), word_bits), ber);

        // Packed codes are unsigned, so dequantised words are finite and
        // non-negative, and the clamp bounds them by w_max.
        let plane = EffectivePlane::build(&image.dequantize(), clamp);
        for input in 0..plane.inputs() {
            for &v in plane.row(input) {
                prop_assert!(v.is_finite() && v >= 0.0);
                if clamp {
                    prop_assert!(v <= w_max);
                }
            }
        }
    }

    /// The packed payload's byte length always equals the reported DRAM
    /// footprint, and injection never changes either.
    #[test]
    fn injection_preserves_image_geometry(
        inputs in 1usize..12,
        neurons in 1usize..12,
        precision_is_8 in any::<bool>(),
        ber_idx in 0usize..2,
        seed in 0u64..500,
    ) {
        let ber = [1e-2f64, 0.3][ber_idx];
        let precision = if precision_is_8 {
            WeightPrecision::Int8
        } else {
            WeightPrecision::Int16
        };
        let weights = store(inputs, neurons, 1.0, 0);
        let mut image = QuantizedImage::quantize(&weights, precision);
        let expected_bytes = inputs * neurons * precision.bytes_per_word();
        prop_assert_eq!(image.dram_bytes(), expected_bytes);
        prop_assert_eq!(image.payload().len(), expected_bytes);
        let word_bits = image.word_bits();
        let mut injector = Injector::new(ErrorModel::Model0, seed);
        injector.inject_uniform(WordImage::packed(image.payload_mut(), word_bits), ber);
        prop_assert_eq!(image.dram_bytes(), expected_bytes);
        prop_assert_eq!(image.words(), inputs * neurons);
    }
}

/// A zero-BER round trip through the packed image is exactly the
/// quantisation round trip: no injector involvement, no drift.
#[test]
fn zero_ber_image_is_the_clean_roundtrip() {
    for precision in [WeightPrecision::Int8, WeightPrecision::Int16] {
        let weights = store(7, 5, 1.0, 3);
        let mut image = QuantizedImage::quantize(&weights, precision);
        let word_bits = image.word_bits();
        Injector::new(ErrorModel::Model0, 9)
            .inject_uniform(WordImage::packed(image.payload_mut(), word_bits), 0.0);
        assert_eq!(
            image.dequantize().as_slice(),
            QuantizedImage::roundtrip(&weights, precision).as_slice()
        );
    }
}
