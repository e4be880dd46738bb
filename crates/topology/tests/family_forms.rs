//! The two spellings of a tiered fabric — a spec string with a ratio
//! suffix under one link, and a `[[topologies]]` family entry with
//! absolute `tier_gbps` — build the same links when the tiers agree.

use proptest::prelude::*;
use tacos_topology::{
    parse_topology, Bandwidth, CustomTopology, CustomTopologyBody, LinkSpec, Time,
};

/// `(kind, dims, ratio count)`: a suffix scales the trailing tiers, and
/// the leading ones run at the link bandwidth.
fn arb_family() -> impl Strategy<Value = (&'static str, Vec<usize>, usize)> {
    prop_oneof![
        (2usize..4, 2usize..5, 2usize..5).prop_map(|(r, f, s)| ("rfs", vec![r, f, s], 3)),
        (2usize..6, 2usize..6).prop_map(|(r, c)| ("switch2d", vec![r, c], 1)),
        (2usize..6, 2usize..6).prop_map(|(g, p)| ("dragonfly", vec![g, p], 1)),
    ]
}

proptest! {
    #[test]
    fn ratio_suffix_and_tier_gbps_build_identical_links(
        (kind, dims, count) in arb_family(),
        ratios in prop::collection::vec(0.125f64..8.0, 3..4),
        alpha_us in 0.0f64..2.0,
        gbps in 1.0f64..400.0,
    ) {
        let ratios = &ratios[..count];
        let link = LinkSpec::new(Time::from_micros(alpha_us), Bandwidth::gbps(gbps));
        let join = |parts: Vec<String>| parts.join("x");
        let base = format!("{kind}:{}", join(dims.iter().map(usize::to_string).collect()));
        let suffix = join(ratios.iter().map(f64::to_string).collect());
        let from_ratios = parse_topology(&format!("{base}:{suffix}"), link).unwrap();

        let bw = link.bandwidth().as_gbps();
        let mut tier_gbps = vec![bw; dims.len() - count];
        tier_gbps.extend(ratios.iter().map(|r| bw * r));
        let family = CustomTopology {
            name: "family".into(),
            body: CustomTopologyBody::Family { base, alpha_us, tier_gbps },
        };
        let from_tiers = family.build().unwrap();
        prop_assert_eq!(from_ratios.num_npus(), from_tiers.num_npus());
        prop_assert_eq!(from_ratios.links(), from_tiers.links());
    }
}
