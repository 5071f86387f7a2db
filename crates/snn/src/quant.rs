//! Packed fixed-point weight images — the quantised DRAM storage format.
//!
//! SparkXD composes with quantisation (its related work, FSpiNN, quantises
//! weights; EnforceSNN and EDEN run resilient inference on quantised
//! images in approximate DRAM). This module provides the storage side of
//! that composition:
//!
//! * [`WeightPrecision`] — the word width of the DRAM weight image
//!   (`fp32` | `int8` | `int16`), carrying the **single**
//!   [`bytes_per_word`](WeightPrecision::bytes_per_word) /
//!   [`word_bits`](WeightPrecision::word_bits) helper every layer
//!   (mapping, trace generation, injection bookkeeping, energy workloads)
//!   routes through instead of hardcoding 4 bytes/word.
//! * [`QuantizedImage`] — a bit-packed `Vec<u8>` payload of symmetric
//!   uniform codes over `[0, w_max]` with a per-matrix scale. It is a
//!   first-class **injection target** alongside
//!   [`StoredWeights`]: bit flips XOR the packed code in place
//!   (`sparkxd-error` operates on [`payload_mut`](QuantizedImage::payload_mut)
//!   at the native word width), and the corrupted image reads back through
//!   [`dequantize`](QuantizedImage::dequantize) into a [`StoredWeights`]
//!   that the network's weights are set from — codes → `f32` once per
//!   corruption instance — so the hot loops stay untouched `f32` SoA.
//!
//! With `scale = w_max / max_code`, **every** representable code (hence
//! every post-flip code) dequantises into `[0, w_max]`; the plane build
//! still applies the ordinary effective-weight read rule so the quantised
//! path shares one clamping story with the `f32` path.

use crate::synapse::StoredWeights;

/// Word width of the DRAM weight image.
///
/// This is the one place the workspace answers "how many bytes is a
/// weight word?" — mapping geometry, trace generation, injection reports
/// and energy workloads all consume [`bytes_per_word`](Self::bytes_per_word)
/// or [`word_bits`](Self::word_bits) rather than assuming `f32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WeightPrecision {
    /// Raw `f32` image (the default; 4 bytes/word).
    #[default]
    Fp32,
    /// Packed 8-bit codes (1 byte/word, 4× smaller image).
    Int8,
    /// Packed 16-bit codes (2 bytes/word, 2× smaller image).
    Int16,
}

impl WeightPrecision {
    /// Bits per stored weight word.
    #[inline]
    pub fn word_bits(self) -> u32 {
        match self {
            Self::Fp32 => 32,
            Self::Int8 => 8,
            Self::Int16 => 16,
        }
    }

    /// Bytes per stored weight word — the single bytes-per-word helper
    /// `Mapping` and `trace_gen::columns_for_words` route through.
    #[inline]
    pub fn bytes_per_word(self) -> usize {
        (self.word_bits() / 8) as usize
    }

    /// `true` for the packed (non-`f32`) widths.
    #[inline]
    pub fn is_quantized(self) -> bool {
        !matches!(self, Self::Fp32)
    }

    /// Canonical lowercase label (`"fp32"` | `"int8"` | `"int16"`).
    pub fn label(self) -> &'static str {
        match self {
            Self::Fp32 => "fp32",
            Self::Int8 => "int8",
            Self::Int16 => "int16",
        }
    }

    /// Parses a precision label (case-insensitive, surrounding whitespace
    /// ignored). Returns `None` for anything that is not `fp32`, `int8` or
    /// `int16`.
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "fp32" | "f32" => Some(Self::Fp32),
            "int8" | "i8" => Some(Self::Int8),
            "int16" | "i16" => Some(Self::Int16),
            _ => None,
        }
    }
}

impl std::fmt::Display for WeightPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A bit-packed quantised copy of a weight matrix — the image that
/// actually lives in (approximate) DRAM when a low-precision tier is
/// selected.
///
/// Codes are unsigned symmetric levels over `[0, w_max]`, stored
/// little-endian in a contiguous byte payload (`Int8`: 1 byte/word,
/// `Int16`: 2 bytes/word). [`dram_bytes`](Self::dram_bytes) is the
/// payload length by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedImage {
    precision: WeightPrecision,
    scale: f32,
    payload: Vec<u8>,
    inputs: usize,
    neurons: usize,
    w_max: f32,
}

impl QuantizedImage {
    /// Quantises `weights` to packed `precision` codes over `[0, w_max]`.
    /// Corrupted (non-finite / out-of-range) stored values are clamped
    /// through the effective-weight rule first.
    ///
    /// A degenerate range (`w_max ≤ 0` or non-finite) has no representable
    /// span: every effective weight is 0, so the image is all-zero **by
    /// construction** — `scale` is pinned to 0 and the division is never
    /// taken, instead of `eff / 0` quietly routing NaN through the
    /// float→int cast.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is [`WeightPrecision::Fp32`] — the `f32`
    /// image is [`StoredWeights`], not a packed code image.
    pub fn quantize(weights: &StoredWeights, precision: WeightPrecision) -> Self {
        assert!(
            precision.is_quantized(),
            "packed image widths are int8 or int16; fp32 lives in StoredWeights"
        );
        let max_code = Self::max_code_for(precision) as f32;
        let w_max = weights.w_max();
        let scale = if w_max.is_finite() && w_max > 0.0 {
            w_max / max_code
        } else {
            0.0
        };
        let mut image = Self {
            precision,
            scale,
            payload: vec![0u8; weights.len() * precision.bytes_per_word()],
            inputs: weights.inputs(),
            neurons: weights.neurons(),
            w_max,
        };
        if scale > 0.0 {
            for (word, &w) in weights.as_slice().iter().enumerate() {
                let eff = StoredWeights::effective(w, w_max);
                image.set_code(word, (eff / scale).round() as u32);
            }
        }
        image
    }

    fn max_code_for(precision: WeightPrecision) -> u32 {
        (1u32 << precision.word_bits()) - 1
    }

    /// Largest representable code (`255` / `65535`).
    pub fn max_code(&self) -> u32 {
        Self::max_code_for(self.precision)
    }

    /// Storage width of this image.
    pub fn precision(&self) -> WeightPrecision {
        self.precision
    }

    /// Bits per packed word.
    pub fn word_bits(&self) -> u32 {
        self.precision.word_bits()
    }

    /// Number of weight words (inputs × neurons).
    pub fn words(&self) -> usize {
        self.inputs * self.neurons
    }

    /// Number of input lines.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of neurons.
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Maximum synaptic conductance the codes span.
    pub fn w_max(&self) -> f32 {
        self.w_max
    }

    /// Dequantisation scale (`w_max / max_code`; 0 for a degenerate range).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Bytes of DRAM the packed image occupies — exactly the payload
    /// length (`words × bytes_per_word`), the quantity mapping and energy
    /// accounting consume.
    pub fn dram_bytes(&self) -> usize {
        self.payload.len()
    }

    /// The packed byte payload, little-endian per word — the bit-exact
    /// DRAM image.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Mutable packed payload: error injection XORs bits through this at
    /// the native word width.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.payload
    }

    /// Code stored for flat weight word `word`.
    pub fn code(&self, word: usize) -> u32 {
        match self.precision {
            WeightPrecision::Int8 => self.payload[word] as u32,
            WeightPrecision::Int16 => {
                u16::from_le_bytes([self.payload[2 * word], self.payload[2 * word + 1]]) as u32
            }
            WeightPrecision::Fp32 => unreachable!("packed image is never fp32"),
        }
    }

    /// Stores `code` (masked to the word width) for flat weight word
    /// `word`.
    pub fn set_code(&mut self, word: usize, code: u32) {
        let code = code & self.max_code();
        match self.precision {
            WeightPrecision::Int8 => self.payload[word] = code as u8,
            WeightPrecision::Int16 => {
                self.payload[2 * word..2 * word + 2].copy_from_slice(&(code as u16).to_le_bytes());
            }
            WeightPrecision::Fp32 => unreachable!("packed image is never fp32"),
        }
    }

    /// Dequantised `f32` value of flat weight word `word`. Always lands in
    /// `[0, w_max]` — even for codes written by bit flips — because the
    /// scale spans the full code range.
    #[inline]
    pub fn dequantized(&self, word: usize) -> f32 {
        self.code(word) as f32 * self.scale
    }

    /// Reconstructs an FP32 weight matrix from the (possibly corrupted)
    /// codes.
    pub fn dequantize(&self) -> StoredWeights {
        let w = (0..self.words()).map(|i| self.dequantized(i)).collect();
        StoredWeights::from_weights(self.inputs, self.neurons, self.w_max, w)
    }

    /// Quantise-then-dequantise round trip: the `f32` image a network
    /// actually computes with when its weights are stored at `precision`.
    pub fn roundtrip(weights: &StoredWeights, precision: WeightPrecision) -> StoredWeights {
        Self::quantize(weights, precision).dequantize()
    }

    /// Worst-case reconstruction error (half a quantisation step).
    pub fn max_error(&self) -> f32 {
        self.scale / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIDTHS: [WeightPrecision; 2] = [WeightPrecision::Int8, WeightPrecision::Int16];

    #[test]
    fn precision_word_geometry() {
        assert_eq!(WeightPrecision::Fp32.word_bits(), 32);
        assert_eq!(WeightPrecision::Int8.word_bits(), 8);
        assert_eq!(WeightPrecision::Int16.word_bits(), 16);
        assert_eq!(WeightPrecision::Fp32.bytes_per_word(), 4);
        assert_eq!(WeightPrecision::Int8.bytes_per_word(), 1);
        assert_eq!(WeightPrecision::Int16.bytes_per_word(), 2);
        assert!(!WeightPrecision::Fp32.is_quantized());
        assert!(WeightPrecision::Int8.is_quantized());
    }

    #[test]
    fn precision_parses_labels_and_rejects_noise() {
        for p in [
            WeightPrecision::Fp32,
            WeightPrecision::Int8,
            WeightPrecision::Int16,
        ] {
            assert_eq!(WeightPrecision::parse(p.label()), Some(p));
            assert_eq!(WeightPrecision::parse(&p.label().to_uppercase()), Some(p));
        }
        assert_eq!(
            WeightPrecision::parse(" int8 "),
            Some(WeightPrecision::Int8)
        );
        assert_eq!(WeightPrecision::parse("f32"), Some(WeightPrecision::Fp32));
        assert_eq!(WeightPrecision::parse("int4"), None);
        assert_eq!(WeightPrecision::parse(""), None);
    }

    #[test]
    fn payload_length_matches_reported_dram_bytes() {
        // Regression: the old `QuantizedWeights` stored 8-bit levels in a
        // `Vec<u16>` while `dram_bytes()` reported `len * bits/8` — the
        // report and the actual storage disagreed by 2×. The packed image
        // makes the two equal by construction; pin it for both widths.
        let w = StoredWeights::random(50, 10, 1.0, 5);
        for p in WIDTHS {
            let q = QuantizedImage::quantize(&w, p);
            assert_eq!(q.payload().len(), q.dram_bytes(), "{p}");
            assert_eq!(q.dram_bytes(), w.len() * p.bytes_per_word(), "{p}");
        }
    }

    #[test]
    fn roundtrip_error_bounded() {
        let w = StoredWeights::random(50, 10, 1.0, 5);
        for p in WIDTHS {
            let q = QuantizedImage::quantize(&w, p);
            let back = q.dequantize();
            for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
                assert!(
                    (a - b).abs() <= q.max_error() + 1e-6,
                    "{p} error {} > {}",
                    (a - b).abs(),
                    q.max_error()
                );
            }
        }
    }

    #[test]
    fn eight_bit_halves_footprint_vs_sixteen() {
        let w = StoredWeights::random(10, 10, 1.0, 1);
        let q8 = QuantizedImage::quantize(&w, WeightPrecision::Int8);
        let q16 = QuantizedImage::quantize(&w, WeightPrecision::Int16);
        assert_eq!(q8.dram_bytes() * 2, q16.dram_bytes());
        // And a quarter of the FP32 image.
        assert_eq!(
            q8.dram_bytes() * 4,
            w.len() * WeightPrecision::Fp32.bytes_per_word()
        );
    }

    #[test]
    fn codes_pack_little_endian() {
        let mut q = QuantizedImage::quantize(
            &StoredWeights::from_weights(1, 2, 1.0, vec![0.0, 0.0]),
            WeightPrecision::Int16,
        );
        q.set_code(1, 0xABCD);
        assert_eq!(q.payload(), &[0, 0, 0xCD, 0xAB]);
        assert_eq!(q.code(1), 0xABCD);
        // Codes wider than the word are masked, not wrapped arbitrarily.
        q.set_code(0, 0x1_0002);
        assert_eq!(q.code(0), 0x0002);
    }

    #[test]
    fn corrupted_values_are_scrubbed() {
        let w = StoredWeights::from_weights(1, 2, 1.0, vec![f32::NAN, 5.0]);
        let q = QuantizedImage::quantize(&w, WeightPrecision::Int8);
        let back = q.dequantize();
        assert_eq!(back.raw(0, 0), 0.0);
        assert!((back.raw(0, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_w_max_quantizes_to_all_zero_without_nan() {
        // Regression (PR 6): `scale = w_max / max_code` used to be taken
        // unguarded, so a `w_max == 0` image pushed `0/0 = NaN` through
        // `.round() as` int — the all-zero result was an accident of the
        // saturating cast, and `max_error` still claimed `NaN/2`. The
        // degenerate range must yield zeros *by construction*.
        for w_max in [0.0f32, -1.0, f32::NAN, f32::NEG_INFINITY] {
            let w = StoredWeights::from_weights(2, 2, w_max, vec![0.3, f32::NAN, -0.5, 0.9]);
            for p in WIDTHS {
                let q = QuantizedImage::quantize(&w, p);
                assert_eq!(q.max_error(), 0.0, "w_max={w_max} {p}");
                let back = q.dequantize();
                assert!(
                    back.as_slice().iter().all(|&v| v == 0.0),
                    "w_max={w_max} {p}: {:?}",
                    back.as_slice()
                );
            }
        }
    }

    #[test]
    fn every_possible_code_dequantizes_in_range() {
        let w = StoredWeights::random(2, 2, 1.0, 3);
        let mut q = QuantizedImage::quantize(&w, WeightPrecision::Int8);
        for code in 0..=q.max_code() {
            q.set_code(0, code);
            let v = q.dequantized(0);
            assert!((0.0..=q.w_max()).contains(&v), "code {code} → {v}");
        }
    }

    #[test]
    fn sixteen_bit_is_finer_than_eight() {
        let w = StoredWeights::random(10, 10, 1.0, 2);
        assert!(
            QuantizedImage::quantize(&w, WeightPrecision::Int16).max_error()
                < QuantizedImage::quantize(&w, WeightPrecision::Int8).max_error()
        );
    }

    #[test]
    #[should_panic(expected = "packed image widths")]
    fn fp32_is_not_a_packed_width() {
        let w = StoredWeights::random(2, 2, 1.0, 0);
        let _ = QuantizedImage::quantize(&w, WeightPrecision::Fp32);
    }
}
