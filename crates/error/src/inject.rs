//! Bit-error injection into weight images.
//!
//! Injection operates on a [`WordImage`]: the raw FP32 image
//! (`&mut [f32]`, 32 bits/word) or a packed quantised image (`&mut [u8]`
//! payload at 8 or 16 bits/word — see `sparkxd-snn`'s `QuantizedImage`).
//! Every entry point takes either, so one set of entry points serves
//! every storage format. Each word has a *placement* describing where its
//! bits physically live in DRAM (which subarray, wordline and bitline
//! range); the active [`ErrorModel`] and per-subarray [`ErrorProfile`]
//! then determine each bit's flip probability. This is the paper's
//! Section IV-B Step-1/Step-2: generate errors from the model, inject
//! them into the DRAM locations holding the weights.
//!
//! Flips always XOR the stored code — for FP32 through
//! `to_bits`/`from_bits`, for packed images directly in the byte payload —
//! so the corrupted image remains a bit-exact DRAM view.

use crate::models::ErrorModel;
use crate::sampling::{hash_unit, BernoulliPositions};
use crate::weak_cells::ErrorProfile;
use crate::InjectError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkxd_dram::SubarrayId;

/// Salt mixed into the seed when deciding weak bitlines (Model 1).
const BITLINE_SALT: u64 = 0xB17_11E5;
/// Salt mixed into the seed when deciding weak wordlines (Model 2).
const WORDLINE_SALT: u64 = 0x0DD_11E5;

/// Physical placement of one weight word in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WordPlacement {
    /// Flat subarray id (selects the per-subarray error rate).
    pub subarray: SubarrayId,
    /// Global wordline (row) index across the device.
    pub global_row: u64,
    /// Bit offset of the word's first bit within its row; bit `b` of the
    /// word (`b < word_bits`) sits on bitline `bit_offset_in_row + b`.
    pub bit_offset_in_row: u32,
}

/// Outcome of one injection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionReport {
    /// Bits actually flipped.
    pub flips: u64,
    /// Candidate positions drawn before model-specific acceptance.
    pub candidates: u64,
    /// Number of weight words in the image.
    pub words: usize,
    /// Bits per weight word (32 for FP32 images, 8/16 for packed images).
    pub word_bits: u32,
}

impl InjectionReport {
    /// Empirical bit-error rate of this pass over the image's true bit
    /// count (`words × word_bits` — not a hardcoded 32 bits/word).
    pub fn empirical_ber(&self) -> f64 {
        let bits = self.words as f64 * self.word_bits as f64;
        if bits == 0.0 {
            0.0
        } else {
            self.flips as f64 / bits
        }
    }
}

/// The DRAM weight image an injection corrupts, at its native word width.
///
/// Every [`Injector`] entry point takes `impl Into<WordImage>`, so an
/// `f32` image passes as `&mut [f32]` or `&mut Vec<f32>` and a packed one
/// through [`WordImage::packed`].
#[derive(Debug)]
pub enum WordImage<'a> {
    /// Raw FP32 image: one `f32` per 32-bit word, flipped through
    /// `to_bits`/`from_bits`.
    F32(&'a mut [f32]),
    /// Packed little-endian image of `word_bits`-wide words (8 | 16 | 32),
    /// flipped directly in the byte payload.
    Packed {
        /// The packed words, `word_bits / 8` bytes each.
        payload: &'a mut [u8],
        /// Bits per word.
        word_bits: u32,
    },
}

impl<'a> From<&'a mut [f32]> for WordImage<'a> {
    fn from(words: &'a mut [f32]) -> Self {
        Self::F32(words)
    }
}

impl<'a> From<&'a mut Vec<f32>> for WordImage<'a> {
    fn from(words: &'a mut Vec<f32>) -> Self {
        Self::F32(words)
    }
}

/// The injector flips through `words()` words of `word_bits()` bits each,
/// so one implementation serves FP32 and packed quantised images alike.
impl<'a> WordImage<'a> {
    /// A packed image of `word_bits`-wide words. The width (8 | 16 | 32)
    /// and a whole number of words are checked when it is injected.
    pub fn packed(payload: &'a mut [u8], word_bits: u32) -> Self {
        Self::Packed { payload, word_bits }
    }

    /// Panics unless a packed image is 8, 16 or 32 bits wide and its
    /// payload a whole number of words.
    fn checked(self) -> Self {
        if let Self::Packed { payload, word_bits } = &self {
            assert!(
                matches!(word_bits, 8 | 16 | 32),
                "packed word widths are 8, 16 or 32 bits"
            );
            assert_eq!(
                payload.len() % (*word_bits as usize / 8),
                0,
                "payload length must be a whole number of words"
            );
        }
        self
    }

    fn words(&self) -> usize {
        match self {
            Self::F32(words) => words.len(),
            Self::Packed { payload, word_bits } => payload.len() / (*word_bits as usize / 8),
        }
    }

    fn word_bits(&self) -> u32 {
        match self {
            Self::F32(_) => 32,
            Self::Packed { word_bits, .. } => *word_bits,
        }
    }

    /// Byte and mask of bit `bit` of packed word `word`.
    #[inline]
    fn locate(word_bits: u32, word: usize, bit: u32) -> (usize, u8) {
        let global = word * word_bits as usize + bit as usize;
        (global / 8, 1u8 << (global % 8))
    }

    /// Stored value of bit `bit` of word `word` (Model 3 reads this).
    fn bit(&self, word: usize, bit: u32) -> bool {
        match self {
            Self::F32(words) => words[word].to_bits() & (1 << bit) != 0,
            Self::Packed { payload, word_bits } => {
                let (byte, mask) = Self::locate(*word_bits, word, bit);
                payload[byte] & mask != 0
            }
        }
    }

    /// XORs bit `bit` of word `word`.
    fn flip(&mut self, word: usize, bit: u32) {
        match self {
            Self::F32(words) => words[word] = f32::from_bits(words[word].to_bits() ^ (1 << bit)),
            Self::Packed { payload, word_bits } => {
                let (byte, mask) = Self::locate(*word_bits, word, bit);
                payload[byte] ^= mask;
            }
        }
    }
}

/// Deterministic bit-error injector.
///
/// Each call advances an internal round counter, so repeated injections
/// (e.g. one per training epoch) produce fresh, reproducible error
/// patterns for the same constructor seed.
///
/// # Example
///
/// ```
/// use sparkxd_error::{ErrorModel, Injector};
///
/// let mut weights = vec![1.0f32; 1024];
/// let mut injector = Injector::new(ErrorModel::Model0, 7);
/// let report = injector.inject_uniform(&mut weights, 1e-3);
/// assert_eq!(report.words, 1024);
/// assert!(weights.iter().any(|w| *w != 1.0) || report.flips == 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Injector {
    model: ErrorModel,
    seed: u64,
    round: u64,
}

impl Injector {
    /// Creates an injector for `model` with deterministic `seed`.
    pub fn new(model: ErrorModel, seed: u64) -> Self {
        Self {
            model,
            seed,
            round: 0,
        }
    }

    /// The active error model.
    pub fn model(&self) -> ErrorModel {
        self.model
    }

    /// Number of injection rounds performed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    fn next_rng(&mut self) -> StdRng {
        let r = self.round;
        self.round += 1;
        StdRng::seed_from_u64(self.seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform (Model-0 style) injection across the entire image at rate
    /// `ber`, ignoring placements. This is the fast path used inside the
    /// fault-aware training loop, where the baseline mapping stores weights
    /// contiguously in a bank and Model 0 is uniform over the bank.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not within `[0, 0.5]`, or if a packed image's
    /// width is not 8/16/32 or its payload not a whole number of words.
    pub fn inject_uniform<'a>(
        &mut self,
        image: impl Into<WordImage<'a>>,
        ber: f64,
    ) -> InjectionReport {
        self.inject_uniform_tracked(image, ber, &mut Vec::new())
    }

    /// [`inject_uniform`](Self::inject_uniform) that additionally appends
    /// the index of every weight word whose bits actually flipped to
    /// `touched_words` (ascending, deduplicated). Consumers use the list
    /// to rebuild only the corrupted rows of a derived read-side plane
    /// instead of the whole image.
    ///
    /// # Panics
    ///
    /// Same as [`inject_uniform`](Self::inject_uniform).
    pub fn inject_uniform_tracked<'a>(
        &mut self,
        image: impl Into<WordImage<'a>>,
        ber: f64,
        touched_words: &mut Vec<usize>,
    ) -> InjectionReport {
        let mut image = image.into().checked();
        assert!((0.0..=0.5).contains(&ber), "ber must be in [0, 0.5]");
        let before = touched_words.len();
        let mut rng = self.next_rng();
        let word_bits = image.word_bits();
        let n_bits = image.words() as u64 * word_bits as u64;
        let mut flips = 0;
        let positions: Vec<u64> = BernoulliPositions::new(n_bits, ber, &mut rng).collect();
        for pos in &positions {
            let word = (pos / word_bits as u64) as usize;
            let bit = (pos % word_bits as u64) as u32;
            image.flip(word, bit);
            touched_words.push(word);
            flips += 1;
        }
        dedup_tail(touched_words, before);
        sparkxd_telemetry::counter_add!("error.injections", 1);
        sparkxd_telemetry::counter_add!("error.flipped_bits", flips);
        sparkxd_telemetry::counter_add!("error.flipped_words", touched_words.len() - before);
        InjectionReport {
            flips,
            candidates: flips,
            words: image.words(),
            word_bits,
        }
    }

    /// Placement-aware injection: each word's bits flip according to the
    /// per-subarray rate of `profile`, spatially shaped by the error model.
    /// Placements describe words of the image's width (a packed image's
    /// `bit_offset_in_row` steps by its `word_bits`, as produced by a
    /// mapping built for the quantised precision).
    ///
    /// # Errors
    ///
    /// [`InjectError::PlacementLengthMismatch`] if `placements` is shorter
    /// than the image; [`InjectError::InvalidBer`] if any profile rate is
    /// outside `[0, 0.5]`.
    ///
    /// # Panics
    ///
    /// Panics if a packed image's width is not 8/16/32 or its payload not
    /// a whole number of words.
    pub fn inject_with_placements<'a>(
        &mut self,
        image: impl Into<WordImage<'a>>,
        placements: &[WordPlacement],
        profile: &ErrorProfile,
    ) -> Result<InjectionReport, InjectError> {
        self.inject_with_placements_tracked(image, placements, profile, &mut Vec::new())
    }

    /// [`inject_with_placements`](Self::inject_with_placements) that
    /// additionally appends the index of every weight word whose bits
    /// actually flipped to `touched_words` (ascending, deduplicated).
    ///
    /// # Errors
    ///
    /// Same as [`inject_with_placements`](Self::inject_with_placements).
    ///
    /// # Panics
    ///
    /// Same as [`inject_with_placements`](Self::inject_with_placements).
    pub fn inject_with_placements_tracked<'a>(
        &mut self,
        image: impl Into<WordImage<'a>>,
        placements: &[WordPlacement],
        profile: &ErrorProfile,
        touched_words: &mut Vec<usize>,
    ) -> Result<InjectionReport, InjectError> {
        let mut image = image.into().checked();
        let words = image.words();
        if placements.len() < words {
            return Err(InjectError::PlacementLengthMismatch {
                words,
                placements: placements.len(),
            });
        }
        for &r in profile.rates() {
            if !(0.0..=0.5).contains(&r) {
                return Err(InjectError::InvalidBer(r));
            }
        }
        let before = touched_words.len();
        let mut rng = self.next_rng();
        let mut flips = 0u64;
        let mut candidates = 0u64;

        // Process runs of consecutive words sharing a subarray so the
        // geometric-gap sampler can cover many words at once.
        let mut start = 0usize;
        while start < words {
            let sa = placements[start].subarray;
            let mut end = start + 1;
            while end < words && placements[end].subarray == sa {
                end += 1;
            }
            let ber = profile.ber(sa);
            let (run_flips, run_candidates) = self.inject_run(
                &mut image,
                start..end,
                placements,
                ber,
                &mut rng,
                touched_words,
            );
            flips += run_flips;
            candidates += run_candidates;
            start = end;
        }
        // Runs are processed in ascending word order and positions within
        // a run are ascending, so duplicates are consecutive.
        dedup_tail(touched_words, before);
        sparkxd_telemetry::counter_add!("error.injections", 1);
        sparkxd_telemetry::counter_add!("error.flipped_bits", flips);
        sparkxd_telemetry::counter_add!("error.flipped_words", touched_words.len() - before);
        Ok(InjectionReport {
            flips,
            candidates,
            words,
            word_bits: image.word_bits(),
        })
    }

    /// Injects into one same-subarray run of words `run` (global indices);
    /// flipped words are appended to `touched_words`. Returns
    /// `(flips, candidates)`.
    fn inject_run(
        &self,
        image: &mut WordImage<'_>,
        run: std::ops::Range<usize>,
        placements: &[WordPlacement],
        ber: f64,
        rng: &mut StdRng,
        touched_words: &mut Vec<usize>,
    ) -> (u64, u64) {
        if ber <= 0.0 || run.is_empty() {
            return (0, 0);
        }
        // Candidate rate and acceptance rule per model (thinning).
        let (candidate_rate, model) = match self.model {
            ErrorModel::Model0 => (ber, self.model),
            ErrorModel::Model1 { weak_fraction } | ErrorModel::Model2 { weak_fraction } => {
                ((ber / weak_fraction).min(0.5), self.model)
            }
            ErrorModel::Model3 { one_bias } => {
                let p_max = (2.0 * ber * one_bias.max(1.0 - one_bias)).min(0.5);
                (p_max, self.model)
            }
        };
        let word_bits = image.word_bits();
        let n_bits = run.len() as u64 * word_bits as u64;
        let mut flips = 0;
        let mut candidates = 0;
        let positions: Vec<u64> = BernoulliPositions::new(n_bits, candidate_rate, rng).collect();
        for pos in positions {
            candidates += 1;
            let word = run.start + (pos / word_bits as u64) as usize;
            let bit = (pos % word_bits as u64) as u32;
            let placement = &placements[word];
            let accept = match model {
                ErrorModel::Model0 => true,
                ErrorModel::Model1 { weak_fraction } => {
                    let bitline = placement.bit_offset_in_row as u64 + bit as u64;
                    is_weak_line(self.seed ^ BITLINE_SALT, bitline, weak_fraction)
                }
                ErrorModel::Model2 { weak_fraction } => is_weak_line(
                    self.seed ^ WORDLINE_SALT,
                    placement.global_row,
                    weak_fraction,
                ),
                ErrorModel::Model3 { one_bias } => {
                    let stored_one = image.bit(word, bit);
                    let p_bit = if stored_one {
                        2.0 * ber * one_bias
                    } else {
                        2.0 * ber * (1.0 - one_bias)
                    };
                    let p_max = 2.0 * ber * one_bias.max(1.0 - one_bias);
                    rng.gen::<f64>() < p_bit / p_max
                }
            };
            if accept {
                image.flip(word, bit);
                touched_words.push(word);
                flips += 1;
            }
        }
        (flips, candidates)
    }
}

/// Removes consecutive duplicates from `words[start..]` in place. The
/// injectors emit flipped words in ascending order, so this leaves the
/// appended tail sorted and unique.
fn dedup_tail(words: &mut Vec<usize>, start: usize) {
    let mut write = start;
    for read in start..words.len() {
        if write == start || words[write - 1] != words[read] {
            words[write] = words[read];
            write += 1;
        }
    }
    words.truncate(write);
}

/// Whether structural line `index` (bitline or wordline) is weak under
/// `seed`, with `fraction` of lines weak. Deterministic; shared by the
/// injector and analysis code.
pub fn is_weak_line(seed: u64, index: u64, fraction: f64) -> bool {
    hash_unit(seed, index) < fraction
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn flat_placements(n: usize, words_per_row: usize) -> Vec<WordPlacement> {
        placements_at_width(n, words_per_row, 32)
    }

    fn placements_at_width(n: usize, words_per_row: usize, word_bits: u32) -> Vec<WordPlacement> {
        (0..n)
            .map(|i| WordPlacement {
                subarray: SubarrayId(0),
                global_row: (i / words_per_row) as u64,
                bit_offset_in_row: ((i % words_per_row) as u32) * word_bits,
            })
            .collect()
    }

    #[test]
    fn uniform_injection_statistics() {
        let mut weights = vec![0.5f32; 100_000];
        let mut inj = Injector::new(ErrorModel::Model0, 1);
        let report = inj.inject_uniform(&mut weights, 1e-3);
        let expected = 3_200_000.0 * 1e-3;
        let sigma = (3_200_000.0f64 * 1e-3).sqrt();
        assert!(
            (report.flips as f64 - expected).abs() < 5.0 * sigma,
            "flips {} vs expected {expected}",
            report.flips
        );
        assert!((report.empirical_ber() / 1e-3 - 1.0).abs() < 0.1);
    }

    #[test]
    fn empirical_ber_uses_true_word_width() {
        // Regression: `empirical_ber` hardcoded `words * 32.0`, so a
        // packed int8 image under-reported its rate by 4×. The report now
        // carries the word width of the image it measured.
        for (word_bits, expected) in [(8u32, 1e-2), (16, 5e-3), (32, 2.5e-3)] {
            let report = InjectionReport {
                flips: 8,
                candidates: 8,
                words: 100,
                word_bits,
            };
            assert!(
                (report.empirical_ber() - expected).abs() < 1e-12,
                "{word_bits}-bit ber {}",
                report.empirical_ber()
            );
        }
        assert_eq!(InjectionReport::default().empirical_ber(), 0.0);
    }

    #[test]
    fn packed_uniform_injection_statistics_per_width() {
        for word_bits in [8u32, 16] {
            let bytes_per_word = word_bits as usize / 8;
            let n_words = 100_000;
            let mut payload = vec![0xA5u8; n_words * bytes_per_word];
            let mut inj = Injector::new(ErrorModel::Model0, 1);
            let report = inj.inject_uniform(WordImage::packed(&mut payload, word_bits), 1e-3);
            assert_eq!(report.words, n_words);
            assert_eq!(report.word_bits, word_bits);
            let n_bits = (n_words as f64) * word_bits as f64;
            let expected = n_bits * 1e-3;
            let sigma = (n_bits * 1e-3).sqrt();
            assert!(
                (report.flips as f64 - expected).abs() < 5.0 * sigma,
                "{word_bits}-bit flips {} vs expected {expected}",
                report.flips
            );
            assert!((report.empirical_ber() / 1e-3 - 1.0).abs() < 0.2);
        }
    }

    #[test]
    fn packed_tracked_injection_reports_exactly_the_flipped_words() {
        let n_words = 20_000;
        let mut payload = vec![0x3Cu8; n_words * 2];
        let mut inj = Injector::new(ErrorModel::Model0, 11);
        let mut touched = Vec::new();
        let report =
            inj.inject_uniform_tracked(WordImage::packed(&mut payload, 16), 1e-3, &mut touched);
        assert!(report.flips > 0);
        assert!(touched.windows(2).all(|p| p[0] < p[1]));
        let changed: Vec<usize> = (0..n_words)
            .filter(|&w| payload[2 * w..2 * w + 2] != [0x3C, 0x3C])
            .collect();
        assert_eq!(touched, changed);

        // Identical seed/round via the untracked API corrupts identically.
        let mut payload2 = vec![0x3Cu8; n_words * 2];
        Injector::new(ErrorModel::Model0, 11)
            .inject_uniform(WordImage::packed(&mut payload2, 16), 1e-3);
        assert_eq!(payload, payload2);
    }

    #[test]
    fn packed_placement_injection_respects_subarray_rates() {
        // Subarray 0 error-free, subarray 1 noisy — int8 words.
        let n = 20_000;
        let mut payload = vec![0xFFu8; n];
        let placements: Vec<WordPlacement> = (0..n)
            .map(|i| WordPlacement {
                subarray: SubarrayId(usize::from(i >= n / 2)),
                global_row: (i / 128) as u64,
                bit_offset_in_row: ((i % 128) * 8) as u32,
            })
            .collect();
        let profile = ErrorProfile::from_rates(1e-2, vec![0.0, 1e-2]);
        let mut inj = Injector::new(ErrorModel::Model0, 3);
        let report = inj
            .inject_with_placements(WordImage::packed(&mut payload, 8), &placements, &profile)
            .unwrap();
        assert!(report.flips > 0);
        assert_eq!(report.word_bits, 8);
        assert!(
            payload[..n / 2].iter().all(|&b| b == 0xFF),
            "safe subarray must stay clean"
        );
        assert!(payload[n / 2..].iter().any(|&b| b != 0xFF));
    }

    #[test]
    fn packed_model1_only_flips_weak_bitlines() {
        let n = 50_000;
        let words_per_row = 256;
        let mut payload = vec![0u8; n];
        let placements = placements_at_width(n, words_per_row, 8);
        let profile = ErrorProfile::uniform(1e-3, 1);
        let model = ErrorModel::Model1 { weak_fraction: 0.1 };
        let report = Injector::new(model, 77)
            .inject_with_placements(WordImage::packed(&mut payload, 8), &placements, &profile)
            .unwrap();
        assert!(report.flips > 0);
        for (word, &byte) in payload.iter().enumerate() {
            for bit in 0..8u32 {
                if byte & (1 << bit) != 0 {
                    let bitline = placements[word].bit_offset_in_row as u64 + bit as u64;
                    assert!(
                        is_weak_line(77 ^ BITLINE_SALT, bitline, 0.1),
                        "flip on strong bitline {bitline}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_rejects_ragged_payloads_and_odd_widths() {
        let mut inj = Injector::new(ErrorModel::Model0, 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.inject_uniform(WordImage::packed(&mut [0u8; 3], 16), 1e-3)
        }));
        assert!(result.is_err(), "3 bytes is not a whole number of u16s");
        let mut inj = Injector::new(ErrorModel::Model0, 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.inject_uniform(WordImage::packed(&mut [0u8; 4], 12), 1e-3)
        }));
        assert!(result.is_err(), "12-bit words are unsupported");
    }

    #[test]
    fn deterministic_per_seed_with_fresh_rounds() {
        let run = |seed| {
            let mut w = vec![1.0f32; 10_000];
            let mut inj = Injector::new(ErrorModel::Model0, seed);
            inj.inject_uniform(&mut w, 1e-3);
            w
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));

        // Two successive rounds of the same injector differ.
        let mut inj = Injector::new(ErrorModel::Model0, 5);
        let mut w1 = vec![1.0f32; 10_000];
        let mut w2 = vec![1.0f32; 10_000];
        inj.inject_uniform(&mut w1, 1e-3);
        inj.inject_uniform(&mut w2, 1e-3);
        assert_ne!(w1, w2);
        assert_eq!(inj.round(), 2);
    }

    #[test]
    fn tracked_injection_reports_exactly_the_flipped_words() {
        let n = 20_000;
        let mut w = vec![1.0f32; n];
        let mut inj = Injector::new(ErrorModel::Model0, 11);
        let mut touched = Vec::new();
        let report = inj.inject_uniform_tracked(&mut w, 1e-3, &mut touched);
        assert!(report.flips > 0);
        assert_eq!(report.word_bits, 32);
        // Sorted, unique, and in range.
        assert!(touched.windows(2).all(|p| p[0] < p[1]));
        // Exactly the words that differ from the clean image.
        let changed: Vec<usize> = (0..n)
            .filter(|&i| w[i].to_bits() != 1.0f32.to_bits())
            .collect();
        assert_eq!(touched, changed);

        // Identical seed/round via the untracked API corrupts identically.
        let mut w2 = vec![1.0f32; n];
        let mut inj2 = Injector::new(ErrorModel::Model0, 11);
        let report2 = inj2.inject_uniform(&mut w2, 1e-3);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&w), bits(&w2));
        assert_eq!(report.flips, report2.flips);
    }

    #[test]
    fn tracked_placement_injection_matches_untracked() {
        let n = 30_000;
        let placements = flat_placements(n, 64);
        let profile = ErrorProfile::uniform(1e-3, 1);
        let model = ErrorModel::Model1 { weak_fraction: 0.2 };
        let mut w_tracked = vec![0.5f32; n];
        let mut touched = Vec::new();
        Injector::new(model, 21)
            .inject_with_placements_tracked(&mut w_tracked, &placements, &profile, &mut touched)
            .unwrap();
        let mut w_plain = vec![0.5f32; n];
        Injector::new(model, 21)
            .inject_with_placements(&mut w_plain, &placements, &profile)
            .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&w_tracked), bits(&w_plain));
        assert!(touched.windows(2).all(|p| p[0] < p[1]));
        let changed: Vec<usize> = (0..n)
            .filter(|&i| w_tracked[i].to_bits() != 0.5f32.to_bits())
            .collect();
        assert_eq!(touched, changed);
    }

    #[test]
    fn tracked_injection_appends_after_existing_entries() {
        let mut w = vec![1.0f32; 5_000];
        let mut inj = Injector::new(ErrorModel::Model0, 3);
        let mut touched = vec![999_999];
        inj.inject_uniform_tracked(&mut w, 1e-2, &mut touched);
        assert_eq!(touched[0], 999_999, "existing entries untouched");
        assert!(touched.len() > 1);
        assert!(touched[1..].windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn zero_ber_flips_nothing() {
        let mut w = vec![1.0f32; 1000];
        let before = w.clone();
        let mut inj = Injector::new(ErrorModel::Model0, 1);
        let report = inj.inject_uniform(&mut w, 0.0);
        assert_eq!(report.flips, 0);
        assert_eq!(w, before);
    }

    #[test]
    fn placement_mismatch_is_an_error() {
        let mut w = vec![1.0f32; 10];
        let placements = flat_placements(5, 4);
        let profile = ErrorProfile::uniform(1e-3, 1);
        let mut inj = Injector::new(ErrorModel::Model0, 1);
        let err = inj.inject_with_placements(&mut w, &placements, &profile);
        assert!(matches!(
            err,
            Err(InjectError::PlacementLengthMismatch { .. })
        ));
    }

    #[test]
    fn per_subarray_rates_are_respected() {
        // Subarray 0 error-free, subarray 1 very noisy.
        let n = 20_000;
        let mut w = vec![1.0f32; n];
        let placements: Vec<WordPlacement> = (0..n)
            .map(|i| WordPlacement {
                subarray: SubarrayId(usize::from(i >= n / 2)),
                global_row: (i / 32) as u64,
                bit_offset_in_row: ((i % 32) * 32) as u32,
            })
            .collect();
        let profile = ErrorProfile::from_rates(1e-2, vec![0.0, 1e-2]);
        let mut inj = Injector::new(ErrorModel::Model0, 3);
        let report = inj
            .inject_with_placements(&mut w, &placements, &profile)
            .unwrap();
        assert!(report.flips > 0);
        assert!(
            w[..n / 2].iter().all(|x| *x == 1.0),
            "safe subarray must stay clean"
        );
        assert!(w[n / 2..].iter().any(|x| *x != 1.0));
    }

    #[test]
    fn model1_only_flips_weak_bitlines() {
        let n = 50_000;
        let words_per_row = 64;
        let mut w = vec![1.0f32; n];
        let placements = flat_placements(n, words_per_row);
        let profile = ErrorProfile::uniform(1e-3, 1);
        let model = ErrorModel::Model1 { weak_fraction: 0.1 };
        let mut inj = Injector::new(model, 77);
        let report = inj
            .inject_with_placements(&mut w, &placements, &profile)
            .unwrap();
        assert!(report.flips > 0);
        // Every flipped bit must sit on a weak bitline.
        for (i, word) in w.iter().enumerate() {
            let flipped = word.to_bits() ^ 1.0f32.to_bits();
            for bit in 0..32 {
                if flipped & (1 << bit) != 0 {
                    let bitline = placements[i].bit_offset_in_row as u64 + bit as u64;
                    assert!(
                        is_weak_line(77 ^ BITLINE_SALT, bitline, 0.1),
                        "flip on strong bitline {bitline}"
                    );
                }
            }
        }
    }

    #[test]
    fn model2_only_flips_weak_wordlines() {
        let n = 50_000;
        let words_per_row = 64;
        let mut w = vec![1.0f32; n];
        let placements = flat_placements(n, words_per_row);
        let profile = ErrorProfile::uniform(1e-3, 1);
        let model = ErrorModel::Model2 { weak_fraction: 0.1 };
        let mut inj = Injector::new(model, 78);
        inj.inject_with_placements(&mut w, &placements, &profile)
            .unwrap();
        for (i, word) in w.iter().enumerate() {
            if word.to_bits() != 1.0f32.to_bits() {
                assert!(
                    is_weak_line(78 ^ WORDLINE_SALT, placements[i].global_row, 0.1),
                    "flip on strong wordline"
                );
            }
        }
    }

    #[test]
    fn model3_biases_towards_set_bits() {
        // Image of all-ones bit patterns: 0xFFFFFFFF words vs 0x00000000.
        let n = 40_000;
        let mut ones = vec![f32::from_bits(u32::MAX); n];
        let mut zeros = vec![f32::from_bits(0); n];
        let placements = flat_placements(n, 64);
        let profile = ErrorProfile::uniform(5e-3, 1);
        let model = ErrorModel::Model3 { one_bias: 0.9 };
        let r_ones = Injector::new(model, 9)
            .inject_with_placements(&mut ones, &placements, &profile)
            .unwrap();
        let r_zeros = Injector::new(model, 9)
            .inject_with_placements(&mut zeros, &placements, &profile)
            .unwrap();
        assert!(
            r_ones.flips > 3 * r_zeros.flips,
            "ones {} should flip far more than zeros {}",
            r_ones.flips,
            r_zeros.flips
        );
    }

    #[test]
    fn packed_model3_biases_towards_set_bits() {
        let n = 40_000;
        let mut ones = vec![0xFFu8; n];
        let mut zeros = vec![0x00u8; n];
        let placements = placements_at_width(n, 256, 8);
        let profile = ErrorProfile::uniform(5e-3, 1);
        let model = ErrorModel::Model3 { one_bias: 0.9 };
        let r_ones = Injector::new(model, 9)
            .inject_with_placements(WordImage::packed(&mut ones, 8), &placements, &profile)
            .unwrap();
        let r_zeros = Injector::new(model, 9)
            .inject_with_placements(WordImage::packed(&mut zeros, 8), &placements, &profile)
            .unwrap();
        assert!(
            r_ones.flips > 3 * r_zeros.flips,
            "ones {} should flip far more than zeros {}",
            r_ones.flips,
            r_zeros.flips
        );
    }

    #[test]
    fn model1_preserves_average_ber() {
        let n = 200_000;
        let mut w = vec![1.0f32; n];
        let placements = flat_placements(n, 64);
        let profile = ErrorProfile::uniform(1e-3, 1);
        let mut inj = Injector::new(
            ErrorModel::Model1 {
                weak_fraction: 0.25,
            },
            123,
        );
        let report = inj
            .inject_with_placements(&mut w, &placements, &profile)
            .unwrap();
        let ratio = report.empirical_ber() / 1e-3;
        // Weak-line selection is itself random; allow a generous band.
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn packed_32_bit_path_matches_f32_path_bit_for_bit() {
        // The same image expressed as `[f32]` and as little-endian bytes
        // must corrupt identically for the same seed: the packed view is
        // a generalisation, not a second implementation.
        let n = 10_000;
        let clean: Vec<f32> = (0..n).map(|i| (i as f32) * 0.001).collect();
        let mut as_f32 = clean.clone();
        Injector::new(ErrorModel::Model0, 42).inject_uniform(&mut as_f32, 1e-3);

        let mut as_bytes: Vec<u8> = clean.iter().flat_map(|v| v.to_le_bytes()).collect();
        let report = Injector::new(ErrorModel::Model0, 42)
            .inject_uniform(WordImage::packed(&mut as_bytes, 32), 1e-3);
        assert_eq!(report.word_bits, 32);
        let roundtrip: Vec<f32> = as_bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&as_f32), bits(&roundtrip));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn uniform_injection_never_touches_out_of_range(
            seed in 0u64..1000, ber in 0.0f64..0.01
        ) {
            let mut w = vec![0.25f32; 512];
            let mut inj = Injector::new(ErrorModel::Model0, seed);
            let report = inj.inject_uniform(&mut w, ber);
            prop_assert!(report.flips <= 512 * 32);
            prop_assert_eq!(report.words, 512);
        }
    }
}
