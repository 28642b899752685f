//! Configuration and builder for MPCBF instances.
//!
//! The builder follows the paper's own sizing procedure (§III.B.3, §IV.B):
//! given a memory budget, an expected element count, `k` and `g`, it
//! derives `l = M/w`, picks `n_max` with the inverse-Poisson heuristic
//! (Eq. 11) unless overridden, and maximises the first level
//! `b1 = w − ceil(k/g)·n_max`.

use crate::error::ConfigError;
use mpcbf_analysis::heuristic::{derive_shape, MpcbfShape};

/// A fully validated MPCBF configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpcbfConfig {
    shape: MpcbfShape,
    seed: u64,
    expected_items: u64,
}

impl MpcbfConfig {
    /// Starts a builder.
    pub fn builder() -> MpcbfConfigBuilder {
        MpcbfConfigBuilder::default()
    }

    /// The derived structural parameters.
    pub fn shape(&self) -> MpcbfShape {
        self.shape
    }

    /// The hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The expected element count the shape was derived for.
    pub fn expected_items(&self) -> u64 {
        self.expected_items
    }
}

/// Builder for [`MpcbfConfig`].
#[derive(Debug, Clone)]
pub struct MpcbfConfigBuilder {
    memory_bits: u64,
    expected_items: u64,
    hashes: u32,
    accesses: u32,
    word_bits: u32,
    seed: u64,
    n_max_override: Option<u32>,
}

impl Default for MpcbfConfigBuilder {
    fn default() -> Self {
        MpcbfConfigBuilder {
            memory_bits: 0,
            expected_items: 0,
            hashes: 3,
            accesses: 1,
            word_bits: 64,
            seed: 0x6d70_6362_6631_0000, // "mpcbf1"
            n_max_override: None,
        }
    }
}

impl MpcbfConfigBuilder {
    /// Memory budget in bits (`M`); the filter uses `l = M / w` words.
    pub fn memory_bits(mut self, bits: u64) -> Self {
        self.memory_bits = bits;
        self
    }

    /// Expected number of stored elements `n` (drives the `n_max`
    /// heuristic; the filter still works above `n`, with rising FPR).
    pub fn expected_items(mut self, n: u64) -> Self {
        self.expected_items = n;
        self
    }

    /// Number of hash functions `k` (default 3, the paper's main setting).
    pub fn hashes(mut self, k: u32) -> Self {
        self.hashes = k;
        self
    }

    /// Memory accesses per operation `g` (default 1 ⇒ MPCBF-1).
    pub fn accesses(mut self, g: u32) -> Self {
        self.accesses = g;
        self
    }

    /// Word size in bits (default 64). Must match the `Word` type the
    /// filter is instantiated with.
    pub fn word_bits(mut self, w: u32) -> Self {
        self.word_bits = w;
        self
    }

    /// Hash seed (distinct seeds give independent filters).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the Eq.-(11) `n_max` heuristic (for the ablation sweep of
    /// the FPR/overflow trade-off, §III.B.4).
    pub fn n_max(mut self, n_max: u32) -> Self {
        self.n_max_override = Some(n_max);
        self
    }

    /// Validates and derives the final configuration.
    pub fn build(self) -> Result<MpcbfConfig, ConfigError> {
        if self.expected_items == 0 {
            return Err(ConfigError::ZeroItems);
        }
        if !(1..=64).contains(&self.hashes) {
            return Err(ConfigError::BadHashCount { k: self.hashes });
        }
        if self.accesses == 0 || self.accesses > self.hashes || self.accesses > 8 {
            return Err(ConfigError::BadAccessCount { g: self.accesses });
        }
        if self.memory_bits < 2 * u64::from(self.word_bits) {
            return Err(ConfigError::InsufficientMemory {
                detail: format!(
                    "{} bits cannot hold two {}-bit words",
                    self.memory_bits, self.word_bits
                ),
            });
        }
        let shape = if let Some(n_max) = self.n_max_override {
            // Explicit n_max: build the shape directly, bypassing Eq. (11).
            let l = self.memory_bits / u64::from(self.word_bits);
            if l < 2 {
                return Err(ConfigError::Shape(
                    mpcbf_analysis::heuristic::ShapeError::TooFewWords { l },
                ));
            }
            let k_per_word = self.hashes.div_ceil(self.accesses);
            // Saturating: a decoded image's n_max is untrusted, and any
            // product past the word width is refused just below.
            let hierarchy = k_per_word.saturating_mul(n_max);
            let b1 = i64::from(self.word_bits) - i64::from(hierarchy);
            if b1 < i64::from(k_per_word.max(1)) {
                return Err(ConfigError::Shape(
                    mpcbf_analysis::heuristic::ShapeError::FirstLevelTooSmall {
                        b1,
                        hierarchy_bits: hierarchy,
                    },
                ));
            }
            MpcbfShape {
                l,
                w: self.word_bits,
                k: self.hashes,
                g: self.accesses,
                n_max,
                k_per_word,
                b1: b1 as u32,
            }
        } else {
            derive_shape(
                self.memory_bits,
                self.word_bits,
                self.expected_items,
                self.hashes,
                self.accesses,
            )?
        };
        Ok(MpcbfConfig {
            shape,
            seed: self.seed,
            expected_items: self.expected_items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_matches_paper_shape() {
        let c = MpcbfConfig::builder()
            .memory_bits(4_000_000)
            .expected_items(100_000)
            .hashes(3)
            .build()
            .unwrap();
        let s = c.shape();
        assert_eq!(s.w, 64);
        assert_eq!(s.l, 62_500);
        assert!((34..=43).contains(&s.b1), "b1 = {}", s.b1);
        assert_eq!(s.g, 1);
    }

    #[test]
    fn g2_splits_k() {
        let c = MpcbfConfig::builder()
            .memory_bits(4_000_000)
            .expected_items(100_000)
            .hashes(3)
            .accesses(2)
            .build()
            .unwrap();
        assert_eq!(c.shape().k_per_word, 2);
    }

    #[test]
    fn n_max_override_changes_b1() {
        let base = MpcbfConfig::builder()
            .memory_bits(4_000_000)
            .expected_items(100_000)
            .hashes(3);
        let a = base.clone().n_max(8).build().unwrap();
        let b = base.n_max(12).build().unwrap();
        assert_eq!(a.shape().b1, 64 - 24);
        assert_eq!(b.shape().b1, 64 - 36);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let b = || {
            MpcbfConfig::builder()
                .memory_bits(4_000_000)
                .expected_items(100_000)
        };
        assert!(matches!(
            b().expected_items(0).build(),
            Err(ConfigError::ZeroItems)
        ));
        assert!(matches!(
            b().hashes(0).build(),
            Err(ConfigError::BadHashCount { .. })
        ));
        assert!(matches!(
            b().hashes(3).accesses(4).build(),
            Err(ConfigError::BadAccessCount { .. })
        ));
        assert!(matches!(
            b().memory_bits(64).build(),
            Err(ConfigError::InsufficientMemory { .. })
        ));
        assert!(matches!(
            b().n_max(30).build(), // 3·30 = 90 > 64
            Err(ConfigError::Shape(_))
        ));
    }

    #[test]
    fn seeds_propagate() {
        let c = MpcbfConfig::builder()
            .memory_bits(1_000_000)
            .expected_items(10_000)
            .seed(42)
            .build()
            .unwrap();
        assert_eq!(c.seed(), 42);
        assert_eq!(c.expected_items(), 10_000);
    }
}
