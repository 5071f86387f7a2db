//! The one corrupt-and-evaluate path. Every accuracy SparkXD reports is
//! taken the same way: inject bit errors into the DRAM weight image,
//! evaluate, restore the weights — Algorithm 1's per-BER checks (lines
//! 8-9), the Fig. 8/11 tolerance sweeps, the operating-point accuracy and
//! every serving tier.
//!
//! This module alone decides what that image is: at fp32 the stored `f32`
//! words, at int8/int16 the packed [`QuantizedImage`] codes, which read
//! back dequantised. Callers pass a [`WeightPrecision`] and never branch
//! on it, and every injection goes through [`inject`].

use crate::CoreError;
use sparkxd_error::{ErrorProfile, Injector, WordImage, WordPlacement};
use sparkxd_snn::{DiehlCookNetwork, QuantizedImage, StoredWeights, WeightPrecision};

/// Where one injection's bit errors fall.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Errors<'a> {
    /// One rate over the whole image, ignoring placements.
    Uniform(f64),
    /// Per-subarray rates of a profile through a mapping's placements.
    Placed(&'a [WordPlacement], &'a ErrorProfile),
}

/// Buffers [`mean_accuracy`] reuses across calls: the corrupted copy
/// swapped into the network, and the touched-word list.
pub(crate) struct Scratch {
    words: StoredWeights,
    touched: Vec<usize>,
}

impl Scratch {
    /// Scratch shaped for `net`'s weights.
    pub(crate) fn for_net(net: &DiehlCookNetwork) -> Self {
        let (words, touched) = (net.weights().clone(), Vec::new());
        Self { words, touched }
    }
}

/// The packed clean codes of `store`; `None` at fp32, where the image is
/// the stored words themselves.
fn codes(store: &StoredWeights, precision: WeightPrecision) -> Option<QuantizedImage> {
    let packed = precision.is_quantized();
    packed.then(|| QuantizedImage::quantize(store, precision))
}

/// Injects one corruption into the image whose clean read-back is `words`
/// (packed as `clean` codes), leaving `words` the corrupted read-back and
/// `touched` the words that changed, ascending.
fn inject(
    clean: Option<&QuantizedImage>,
    words: &mut StoredWeights,
    injector: &mut Injector,
    errors: Errors<'_>,
    touched: &mut Vec<usize>,
) -> Result<(), CoreError> {
    let mut codes = clean.cloned();
    let image = match &mut codes {
        None => WordImage::from(words.as_mut_slice()),
        Some(codes) => {
            let word_bits = codes.word_bits();
            WordImage::packed(codes.payload_mut(), word_bits)
        }
    };
    touched.clear();
    match errors {
        Errors::Uniform(ber) => {
            injector.inject_uniform_tracked(image, ber, touched);
        }
        Errors::Placed(placements, profile) => {
            injector.inject_with_placements_tracked(image, placements, profile, touched)?;
        }
    }
    if let Some(codes) = &codes {
        // Untouched codes read back unchanged.
        for &word in touched.iter() {
            words.as_mut_slice()[word] = codes.dequantized(word);
        }
    }
    Ok(())
}

/// The read-back of `store` after one injection into its DRAM image.
pub(crate) fn corrupted(
    store: &StoredWeights,
    precision: WeightPrecision,
    mut injector: Injector,
    errors: Errors<'_>,
) -> Result<StoredWeights, CoreError> {
    let clean = codes(store, precision);
    let mut words = match &clean {
        None => store.clone(),
        Some(codes) => codes.dequantize(),
    };
    let touched = &mut Vec::new();
    inject(clean.as_ref(), &mut words, &mut injector, errors, touched)?;
    Ok(words)
}

/// Mean of `evaluate(net, trial)` over `trials` (at least one) successive
/// injections from `injector` into `net`'s DRAM image. Each trial swaps
/// only the rows it touched into the network and back out, and `net`
/// holds its own weights again on return.
pub(crate) fn mean_accuracy(
    net: &mut DiehlCookNetwork,
    precision: WeightPrecision,
    scratch: &mut Scratch,
    mut injector: Injector,
    errors: Errors<'_>,
    trials: usize,
    mut evaluate: impl FnMut(&DiehlCookNetwork, usize) -> f64,
) -> Result<f64, CoreError> {
    let clean = codes(net.weights(), precision);
    // A packed image's clean read-back differs from the store in every
    // row, so it is swapped in whole, once per call.
    let original = clean.as_ref().map(|codes| {
        let original = net.weights().clone();
        net.set_weights(codes.dequantize());
        original
    });
    let Scratch { words, touched } = scratch;
    let mut mean = || {
        let mut total = 0.0;
        for trial in 0..trials.max(1) {
            words.clone_from(net.weights());
            inject(clean.as_ref(), words, &mut injector, errors, touched)?;
            let rows = words.rows_of_words(touched);
            net.swap_weights_rows(words, &rows);
            total += evaluate(net, trial);
            net.swap_weights_rows(words, &rows);
        }
        Ok(total / trials.max(1) as f64)
    };
    let mean = mean();
    if let Some(original) = original {
        net.set_weights(original);
    }
    mean
}
