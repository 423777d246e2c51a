//! Specification of a synthetic benchmark circuit.

use ncgws_circuit::Technology;
use serde::{Deserialize, Serialize};

/// Everything the [`SyntheticGenerator`](crate::SyntheticGenerator) needs to
/// produce a benchmark circuit: the target gate and wire counts plus the
/// geometric and electrical knobs.
///
/// The defaults are chosen so that a generated circuit lands in the same
/// order of magnitude as the paper's Table 1 columns (noise in the tens of
/// pF, delay around a nanosecond, power in the hundreds of mW, area in the
/// tens of thousands of µm² for the larger circuits) when every component
/// starts at unit size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitSpec {
    /// Benchmark name (used in reports).
    pub name: String,
    /// Exact number of gates to generate.
    pub num_gates: usize,
    /// Exact number of wires to generate.
    pub num_wires: usize,
    /// RNG seed; every derived quantity is reproducible from it.
    pub seed: u64,
    /// Technology parameters.
    pub technology: Technology,
    /// Maximum gate fan-in.
    pub max_fanin: usize,
    /// Wire length range (µm).
    pub wire_length_range: (f64, f64),
    /// Driver resistance range (Ω).
    pub driver_resistance_range: (f64, f64),
    /// Primary-output load range (fF).
    pub output_load_range: (f64, f64),
    /// Number of wires routed per channel (adjacent-coupling group).
    pub channel_size: usize,
    /// Track pitch within a channel (µm, centre to centre).
    pub channel_pitch: f64,
    /// Fraction of the shorter wire's length that overlaps its neighbor.
    pub overlap_fraction: f64,
    /// Number of primary-input vectors simulated for switching similarity.
    pub num_patterns: usize,
    /// Probability that a primary input toggles between consecutive vectors.
    pub pattern_toggle_probability: f64,
    /// Width of the locality window gate inputs are drawn from: gate `k`
    /// sources its non-driver inputs from the last `locality_window`
    /// earlier gates. Finite windows produce deep, chain-like circuits
    /// (logic depth grows linearly with the gate count); the sentinel
    /// `usize::MAX` switches the generator into *wide* mode — inputs drawn
    /// uniformly from **all** earlier gates and no eager fanout guarantee —
    /// producing shallow circuits whose logic depth grows only
    /// logarithmically. Every finite value (including the default, 64, and
    /// values exceeding the gate count) keeps the historical generation
    /// path, so existing seeds reproduce bit for bit.
    pub locality_window: usize,
}

impl CircuitSpec {
    /// Creates a specification with the given name and component counts and
    /// the default knobs.
    pub fn new(name: impl Into<String>, num_gates: usize, num_wires: usize) -> Self {
        CircuitSpec {
            name: name.into(),
            num_gates,
            num_wires,
            seed: 0xDAC_1999,
            technology: Technology::dac99(),
            max_fanin: 4,
            wire_length_range: (25.0, 400.0),
            driver_resistance_range: (80.0, 250.0),
            output_load_range: (4.0, 20.0),
            channel_size: 10,
            channel_pitch: 11.0,
            overlap_fraction: 0.6,
            num_patterns: 128,
            pattern_toggle_probability: 0.35,
            locality_window: 64,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the technology.
    pub fn with_technology(mut self, technology: Technology) -> Self {
        self.technology = technology;
        self
    }

    /// Sets the number of wires per routing channel.
    pub fn with_channel_size(mut self, channel_size: usize) -> Self {
        self.channel_size = channel_size.max(1);
        self
    }

    /// Sets the number of simulated input vectors.
    pub fn with_num_patterns(mut self, num_patterns: usize) -> Self {
        self.num_patterns = num_patterns;
        self
    }

    /// Sets the locality window gate inputs are drawn from (see
    /// [`locality_window`](Self::locality_window); clamped to at least 1).
    pub fn with_locality_window(mut self, window: usize) -> Self {
        self.locality_window = window.max(1);
        self
    }

    /// Total number of sizable components requested.
    pub fn total_components(&self) -> usize {
        self.num_gates + self.num_wires
    }

    /// The number of input drivers the generator will create
    /// (roughly 1 driver per 12 gates, at least 3).
    pub fn num_drivers(&self) -> usize {
        (self.num_gates / 12).max(3)
    }

    /// The number of designated primary-output gates
    /// (roughly 1 per 20 gates, at least 2).
    pub fn num_outputs(&self) -> usize {
        (self.num_gates / 20).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_setters() {
        let spec = CircuitSpec::new("t", 100, 200)
            .with_seed(7)
            .with_channel_size(5)
            .with_num_patterns(32);
        assert_eq!(spec.name, "t");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.channel_size, 5);
        assert_eq!(spec.num_patterns, 32);
        assert_eq!(spec.total_components(), 300);
    }

    #[test]
    fn derived_counts_scale_with_gates() {
        let small = CircuitSpec::new("s", 40, 80);
        assert_eq!(small.num_drivers(), 3);
        assert_eq!(small.num_outputs(), 2);
        let big = CircuitSpec::new("b", 2400, 4800);
        assert_eq!(big.num_drivers(), 200);
        assert_eq!(big.num_outputs(), 120);
    }

    #[test]
    fn channel_size_is_at_least_one() {
        let spec = CircuitSpec::new("t", 10, 20).with_channel_size(0);
        assert_eq!(spec.channel_size, 1);
    }
}
