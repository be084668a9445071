//! Workload inputs, all derived from the run's `--seed` with `mube-synth`.

use mube_core::catalog;
use mube_synth::{generate, SynthConfig};

/// Sources in a paper-scale catalog (the paper's universe size).
pub const PAPER_SOURCES: usize = 700;
/// Sources in a steering-session catalog (test scale).
pub const SESSION_SOURCES: usize = 60;

/// Independent input streams drawn from one run seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Catalog generator seeds.
    Catalog = 1,
    /// Solver and session seeds.
    Solver = 2,
}

/// The `index`-th seed of `stream` under run seed `seed` (SplitMix64).
pub fn sub_seed(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64) << 32)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generated catalog: its text and the counts an upload must echo.
pub struct Catalog {
    /// The catalog in `mube`'s text format.
    pub text: String,
    /// Sources in it.
    pub sources: usize,
    /// Attributes over all sources.
    pub attributes: usize,
}

fn make(config: &SynthConfig, seed: u64) -> Catalog {
    let universe = generate(config, seed).universe;
    Catalog {
        text: catalog::to_text(&universe),
        sources: universe.len(),
        attributes: universe.total_attrs(),
    }
}

/// A paper-scale catalog, as `mube gen --paper-scale` writes it.
pub fn paper_catalog(seed: u64) -> Catalog {
    make(&SynthConfig::paper(PAPER_SOURCES), seed)
}

/// A test-scale catalog, as `mube gen` writes it.
pub fn session_catalog(seed: u64) -> Catalog {
    make(&SynthConfig::small(SESSION_SOURCES), seed)
}

/// FNV-1a digest of `bytes`, for comparing outputs without storing them.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_catalogs() {
        for seed in [0, 7, u64::MAX] {
            let s = sub_seed(seed, Stream::Catalog, 3);
            assert_eq!(session_catalog(s).text, session_catalog(s).text);
        }
        let s = sub_seed(11, Stream::Catalog, 0);
        assert_eq!(paper_catalog(s).text, paper_catalog(s).text);
    }

    #[test]
    fn seeds_and_streams_separate_inputs() {
        let a = sub_seed(1, Stream::Catalog, 0);
        assert_ne!(a, sub_seed(2, Stream::Catalog, 0));
        assert_ne!(a, sub_seed(1, Stream::Catalog, 1));
        assert_ne!(a, sub_seed(1, Stream::Solver, 0));
        assert_ne!(
            session_catalog(a).text,
            session_catalog(sub_seed(2, Stream::Catalog, 0)).text
        );
    }

    #[test]
    fn generated_catalogs_parse_back() {
        let generated = session_catalog(5);
        let universe = catalog::from_text(&generated.text).expect("generated catalog parses");
        assert_eq!(universe.len(), generated.sources);
        assert_eq!(universe.total_attrs(), generated.attributes);
    }
}
