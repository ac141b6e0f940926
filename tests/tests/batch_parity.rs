//! Property-based parity: `lookup_batch` must be element-wise identical
//! to the scalar `lookup` oracle on every trie variant that has one, for
//! arbitrary tables (with and without a default route) and arbitrary
//! batches — including empty ones. The scalar paths are themselves
//! proven against the linear-scan oracle in `oracle_equivalence.rs`, so
//! batch == scalar closes the loop. `JumpTrie`, the served trie, has no
//! batch path: its scalar walk is checked against the table and flat
//! oracles directly.

use proptest::prelude::*;
use vr_net::table::{NextHop, RouteEntry};
use vr_net::{Ipv4Prefix, RoutingTable};
use vr_trie::{
    FlatStrideTrie, FlatTrie, JumpTrie, LeafPushedTrie, MergedTrie, StrideTrie, UnibitTrie,
};

/// Strategy: an arbitrary routing table of up to `max` routes. `min_len`
/// = 1 excludes the /0 default route, so both "has default" and "no
/// default route" table shapes are exercised.
fn arb_table(max: usize, min_len: u8) -> impl Strategy<Value = RoutingTable> {
    prop::collection::vec((any::<u32>(), min_len..=32, any::<NextHop>()), 0..max).prop_map(
        |routes| {
            RoutingTable::from_entries(
                routes
                    .into_iter()
                    .map(|(addr, len, nh)| RouteEntry::new(Ipv4Prefix::must(addr, len), nh)),
            )
        },
    )
}

/// Strategy: a batch of 0..40 destinations (0 exercises the empty batch).
fn arb_batch() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unibit_batch_matches_scalar(
        table in arb_table(64, 0),
        batch in arb_batch(),
    ) {
        let trie = UnibitTrie::from_table(&table);
        let mut out = vec![None; batch.len()];
        trie.lookup_batch(&batch, &mut out);
        for (i, &ip) in batch.iter().enumerate() {
            prop_assert_eq!(out[i], trie.lookup(ip), "ip {:#010x}", ip);
        }
    }

    #[test]
    fn leaf_pushed_and_flat_batch_match_scalar(
        table in arb_table(64, 1), // no default route
        batch in arb_batch(),
    ) {
        let pushed = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&table));
        let flat = FlatTrie::from_leaf_pushed(&pushed);
        let mut out = vec![None; batch.len()];
        pushed.lookup_batch(&batch, &mut out);
        let mut flat_out = vec![None; batch.len()];
        flat.lookup_batch(&batch, &mut flat_out);
        for (i, &ip) in batch.iter().enumerate() {
            let expect = pushed.lookup(ip);
            prop_assert_eq!(out[i], expect, "pushed ip {:#010x}", ip);
            prop_assert_eq!(flat_out[i], expect, "flat ip {:#010x}", ip);
            prop_assert_eq!(flat.lookup(ip), expect, "flat scalar ip {:#010x}", ip);
        }
    }

    #[test]
    fn merged_batch_matches_scalar_per_vn(
        tables in prop::collection::vec(arb_table(32, 0), 1..5),
        batch in arb_batch(),
    ) {
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let pushed = merged.leaf_pushed();
        let flat = FlatTrie::from_merged(&pushed);
        for vnid in 0..tables.len() {
            let mut out = vec![None; batch.len()];
            merged.lookup_batch(vnid, &batch, &mut out);
            let mut pushed_out = vec![None; batch.len()];
            pushed.lookup_batch(vnid, &batch, &mut pushed_out);
            let mut flat_out = vec![None; batch.len()];
            flat.lookup_batch_vn(vnid, &batch, &mut flat_out);
            for (i, &ip) in batch.iter().enumerate() {
                let expect = merged.lookup(vnid, ip);
                prop_assert_eq!(out[i], expect, "merged vn {} ip {:#010x}", vnid, ip);
                prop_assert_eq!(pushed_out[i], expect, "pushed vn {} ip {:#010x}", vnid, ip);
                prop_assert_eq!(flat_out[i], expect, "flat vn {} ip {:#010x}", vnid, ip);
            }
        }
    }

    #[test]
    fn stride_and_flat_stride_batch_match_scalar(
        table in arb_table(48, 0),
        batch in arb_batch(),
        stride_pick in 0usize..3,
    ) {
        let strides: &[u8] = [&[8u8, 8, 8, 8][..], &[4; 8][..], &[2; 16][..]][stride_pick];
        let trie = StrideTrie::from_table(&table, strides).unwrap();
        let flat = FlatStrideTrie::from_stride(&trie);
        let mut out = vec![None; batch.len()];
        trie.lookup_batch(&batch, &mut out);
        let mut flat_out = vec![None; batch.len()];
        flat.lookup_batch(&batch, &mut flat_out);
        for (i, &ip) in batch.iter().enumerate() {
            let expect = trie.lookup(ip);
            prop_assert_eq!(out[i], expect, "stride ip {:#010x}", ip);
            prop_assert_eq!(flat_out[i], expect, "flat stride ip {:#010x}", ip);
            prop_assert_eq!(flat.lookup(ip), expect, "flat scalar ip {:#010x}", ip);
        }
    }

    #[test]
    fn jump_batch_matches_scalar_and_table_oracle(
        table in arb_table(64, 0), // default routes allowed (/0 reachable)
        batch in arb_batch(),
    ) {
        let jump = JumpTrie::from_table(&table);
        for &ip in &batch {
            prop_assert_eq!(jump.lookup(ip), table.lookup(ip), "jump scalar ip {:#010x}", ip);
        }
    }

    #[test]
    fn jump_matches_flat_oracle_without_default_route(
        table in arb_table(64, 1), // no default route — misses must stay misses
        batch in arb_batch(),
    ) {
        let pushed = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&table));
        let flat = FlatTrie::from_leaf_pushed(&pushed);
        let jump = JumpTrie::from_leaf_pushed(&pushed);
        for &ip in &batch {
            prop_assert_eq!(jump.lookup(ip), flat.lookup(ip), "jump scalar ip {:#010x}", ip);
        }
    }

    #[test]
    fn merged_jump_batch_matches_scalar_per_vn(
        tables in prop::collection::vec(arb_table(32, 0), 1..5),
        batch in arb_batch(),
    ) {
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let jump = JumpTrie::from_merged(&merged);
        for vnid in 0..tables.len() {
            for &ip in &batch {
                let expect = merged.lookup(vnid, ip);
                prop_assert_eq!(jump.lookup_vn(vnid, ip), expect, "jump vn {} ip {:#010x}", vnid, ip);
            }
        }
    }

    #[test]
    fn flat_from_unibit_batch_matches_table_oracle(
        table in arb_table(64, 1), // no default route
        batch in arb_batch(),
    ) {
        let flat = FlatTrie::from_unibit(&UnibitTrie::from_table(&table));
        let mut out = vec![None; batch.len()];
        flat.lookup_batch(&batch, &mut out);
        for (i, &ip) in batch.iter().enumerate() {
            prop_assert_eq!(out[i], table.lookup(ip), "ip {:#010x}", ip);
        }
    }
}

/// Deterministic anchor: every variant agrees on the same empty batch
/// (no panics, no writes) and on a shared paper-scale batch.
#[test]
fn all_variants_handle_empty_and_paper_scale_batches() {
    let table = vr_net::synth::TableSpec::paper_worst_case(7)
        .generate()
        .unwrap();
    let unibit = UnibitTrie::from_table(&table);
    let pushed = LeafPushedTrie::from_unibit(&unibit);
    let flat = FlatTrie::from_leaf_pushed(&pushed);
    let stride = StrideTrie::from_table(&table, &[8, 8, 8, 8]).unwrap();
    let flat_stride = FlatStrideTrie::from_stride(&stride);
    let jump = JumpTrie::from_leaf_pushed(&pushed);
    let merged = MergedTrie::from_tables(std::slice::from_ref(&table)).unwrap();
    let merged_pushed = merged.leaf_pushed();

    // Empty batches are no-ops everywhere.
    unibit.lookup_batch(&[], &mut []);
    pushed.lookup_batch(&[], &mut []);
    flat.lookup_batch(&[], &mut []);
    stride.lookup_batch(&[], &mut []);
    flat_stride.lookup_batch(&[], &mut []);
    merged.lookup_batch(0, &[], &mut []);
    merged_pushed.lookup_batch(0, &[], &mut []);

    let batch: Vec<u32> = table
        .prefixes()
        .flat_map(|p| [p.addr(), p.addr() | 0x3F, p.addr().wrapping_sub(1)])
        .collect();
    let mut out = vec![None; batch.len()];
    let mut checked = 0usize;
    for (label, result) in [
        ("unibit", {
            unibit.lookup_batch(&batch, &mut out);
            out.clone()
        }),
        ("leaf-pushed", {
            pushed.lookup_batch(&batch, &mut out);
            out.clone()
        }),
        ("flat", {
            flat.lookup_batch(&batch, &mut out);
            out.clone()
        }),
        ("stride", {
            stride.lookup_batch(&batch, &mut out);
            out.clone()
        }),
        ("flat-stride", {
            flat_stride.lookup_batch(&batch, &mut out);
            out.clone()
        }),
        ("jump", batch.iter().map(|&ip| jump.lookup(ip)).collect()),
        ("merged", {
            merged.lookup_batch(0, &batch, &mut out);
            out.clone()
        }),
        ("merged-pushed", {
            merged_pushed.lookup_batch(0, &batch, &mut out);
            out.clone()
        }),
    ] {
        for (i, &ip) in batch.iter().enumerate() {
            assert_eq!(result[i], table.lookup(ip), "{label} ip {ip:#010x}");
            checked += 1;
        }
    }
    assert!(checked > 10_000, "must cover a paper-scale probe set");
}

/// Edge lengths the direct-index front end must get right: a /0 default
/// route (fills every root bucket), /16 prefixes (exactly the jump
/// width), and /32 host routes (deepest possible sub-trie walk).
#[test]
fn jump_handles_length_extremes() {
    let table = RoutingTable::from_entries([
        RouteEntry::new(Ipv4Prefix::must(0, 0), 1),
        RouteEntry::new(Ipv4Prefix::must(0x0A00_0000, 8), 2),
        RouteEntry::new(Ipv4Prefix::must(0x0A14_0000, 16), 3),
        RouteEntry::new(Ipv4Prefix::must(0x0A14_001E, 32), 4),
        RouteEntry::new(Ipv4Prefix::must(0xC0A8_0100, 24), 5),
    ]);
    let jump = JumpTrie::from_table(&table);
    let probes: &[(u32, Option<NextHop>)] = &[
        (0x0101_0101, Some(1)), // default route only
        (0x0A01_0000, Some(2)), // /8
        (0x0A14_FFFF, Some(3)), // /16 exactly at the jump width
        (0x0A14_001E, Some(4)), // /32 host route
        (0x0A14_001F, Some(3)), // one off the host route falls back to /16
        (0xC0A8_01FF, Some(5)), // /24 below the jump width
        (0xC0A8_0200, Some(1)), // adjacent /24 misses back to default
    ];
    for &(ip, expect) in probes {
        assert_eq!(table.lookup(ip), expect, "oracle ip {ip:#010x}");
        assert_eq!(jump.lookup(ip), expect, "scalar ip {ip:#010x}");
    }
}
