//! The built-in Quality Evaluation Functions.
//!
//! The paper defines four main QEFs — matching quality `F_1` (§3) and the
//! data-dependent cardinality, coverage, and redundancy `F_2..F_4` (§4) —
//! plus user-defined QEFs over per-source characteristics such as MTTF,
//! latency, or fees (§5). Each lives in its own module here; all implement
//! [`crate::qef::Qef`].

pub mod card;
pub mod characteristic;
pub mod coverage;
pub mod matching;
pub mod redundancy;

pub use card::CardinalityQef;
pub use characteristic::{Aggregator, CharacteristicQef, MaxAgg, MeanAgg, MinAgg, WeightedSumAgg};
pub use coverage::{coverage_fraction, forfeited_coverage, CoverageQef};
pub use matching::MatchingQualityQef;
pub use redundancy::RedundancyQef;

use std::sync::Arc;

use crate::qef::{Qef, WeightedQefs};
use crate::source::Universe;

/// The paper's default QEF mix (§7.1): matching 0.25, cardinality 0.25,
/// coverage 0.2, redundancy 0.15, and a `wsum`-aggregated characteristic
/// (MTTF in the experiments) 0.15.
pub fn paper_default_qefs(characteristic: &str) -> WeightedQefs {
    WeightedQefs::new(vec![
        (Arc::new(MatchingQualityQef) as Arc<dyn Qef>, 0.25),
        (Arc::new(CardinalityQef) as Arc<dyn Qef>, 0.25),
        (Arc::new(CoverageQef) as Arc<dyn Qef>, 0.20),
        (Arc::new(RedundancyQef) as Arc<dyn Qef>, 0.15),
        (
            Arc::new(CharacteristicQef::new(
                characteristic,
                characteristic,
                WeightedSumAgg,
            )) as Arc<dyn Qef>,
            0.15,
        ),
    ])
    .expect("default weights are valid")
}

/// A QEF mix without any characteristic QEF — matching 0.3, cardinality 0.3,
/// coverage 0.25, redundancy 0.15. Used when sources carry no
/// characteristics.
pub fn data_only_qefs() -> WeightedQefs {
    WeightedQefs::new(vec![
        (Arc::new(MatchingQualityQef) as Arc<dyn Qef>, 0.30),
        (Arc::new(CardinalityQef) as Arc<dyn Qef>, 0.30),
        (Arc::new(CoverageQef) as Arc<dyn Qef>, 0.25),
        (Arc::new(RedundancyQef) as Arc<dyn Qef>, 0.15),
    ])
    .expect("default weights are valid")
}

/// The default mix for `universe`: [`paper_default_qefs`] over `mttf` when
/// any source reports an MTTF, else [`data_only_qefs`].
pub fn default_qefs_for(universe: &Universe) -> WeightedQefs {
    if universe
        .sources()
        .any(|s| s.characteristic("mttf").is_some())
    {
        paper_default_qefs("mttf")
    } else {
        data_only_qefs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mixes_are_valid() {
        let q = paper_default_qefs("mttf");
        assert_eq!(q.len(), 5);
        assert_eq!(q.weight_of("matching"), Some(0.25));
        assert_eq!(q.weight_of("mttf"), Some(0.15));
        let d = data_only_qefs();
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn default_mix_follows_mttf_presence() {
        use crate::schema::Schema;
        use crate::source::SourceSpec;
        let universe = |mttf: bool| {
            let mut b = Universe::builder();
            b.add_source(SourceSpec::new("a", Schema::new(["x"])));
            let spec = SourceSpec::new("b", Schema::new(["y"]));
            b.add_source(if mttf {
                spec.characteristic("mttf", 80.0)
            } else {
                spec.characteristic("latency", 3.0)
            });
            b.build().expect("valid universe")
        };
        assert_eq!(
            default_qefs_for(&universe(true)).weight_of("mttf"),
            Some(0.15)
        );
        let plain = default_qefs_for(&universe(false));
        assert_eq!((plain.len(), plain.weight_of("matching")), (4, Some(0.30)));
    }
}
