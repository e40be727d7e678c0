//! The closed-form `Dram::access_burst` against the per-line loop it
//! replaced: one `Dram::access` per line of the burst, all issued at
//! `now`. Context save/restore traffic (Fig 5) is timed through the burst,
//! so the two must agree on the completion cycle, every channel's busy
//! horizon, the access count and the queued cycles — whatever the
//! channels were doing before the burst.

use awg_mem::{Dram, DramConfig, LINE_BYTES};
use awg_sim::Cycle;
use proptest::prelude::*;

/// The reference: `lines` single-line accesses at `now`, latest
/// completion wins (`now` for an empty burst).
fn per_line(dram: &mut Dram, now: Cycle, base: u64, lines: u64) -> Cycle {
    (0..lines).fold(now, |done, i| {
        done.max(dram.access(now, base + i * LINE_BYTES))
    })
}

fn config() -> impl Strategy<Value = DramConfig> {
    prop_oneof![
        Just(DramConfig::isca2020()),
        (1usize..9, 0u64..200, 1u64..40).prop_map(|(channels, latency, service_interval)| {
            DramConfig {
                channels,
                latency,
                service_interval,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn burst_matches_the_per_line_loop(
        config in config(),
        busy in prop::collection::vec((0u64..5_000, 0u64..64), 0..24),
        now in 0u64..6_000,
        base_line in 0u64..1 << 20,
        lines in 0u64..401,
    ) {
        let mut fast = Dram::new(config);
        // Pre-busy channels: single accesses at assorted cycles and lines.
        for &(at, line) in &busy {
            fast.access(at, line * LINE_BYTES);
        }
        let mut slow = fast.clone();
        let base = base_line * LINE_BYTES;

        let want = per_line(&mut slow, now, base, lines);
        let got = fast.access_burst(now, base, lines);
        prop_assert_eq!(got, want, "completion cycle");
        prop_assert_eq!(fast.stats(), slow.stats(), "(accesses, queued cycles)");
        prop_assert_eq!(&fast, &slow, "channel_free and counters");
    }
}
