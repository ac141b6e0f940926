//! The independent reference every served answer is checked against.
//!
//! The reference LPM probes all 33 prefix lengths, longest first, with
//! exact-match `RoutingTable::get` on a mirror of the tables. It shares
//! no code with the trie, the service or the wire layer. During churn
//! the mirror advances batch by batch in acked-generation order, so a
//! lookup tagged with generation `g` is compared against the tables of
//! the newest acked generation at or below `g`.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::system::{
    apply_to_mirror, covering_prefix, covers, exact, scan_lookup, update_target, NextHop, Packet,
    RouteUpdate, RoutingTable,
};

/// 33-probe exact-match longest-prefix match.
#[must_use]
pub fn lpm(table: &RoutingTable, ip: u32) -> Option<NextHop> {
    (0..=32u8)
        .rev()
        .find_map(|len| exact(table, &covering_prefix(ip, len)))
}

/// FNV-1a over a frame's answers; a response is recorded as this hash
/// so the timed phase keeps 24 bytes per frame instead of every answer.
#[must_use]
pub fn results_hash(results: &[Option<NextHop>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        let word = r.map_or(u32::MAX, u32::from);
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The mirror tables plus memoised answers. The mirror borrows the
/// base tables until the first update; from then on answers are memoised
/// per packet, and an update drops exactly the memoised answers its
/// prefix covers, the only ones it can change.
pub struct Reference<'a> {
    mirror: Cow<'a, [RoutingTable]>,
    memo: HashMap<Packet, Option<NextHop>>,
    frame_hashes: HashMap<u32, u64>,
}

impl<'a> Reference<'a> {
    #[must_use]
    pub fn new(base: &'a [RoutingTable]) -> Self {
        Self {
            mirror: Cow::Borrowed(base),
            memo: HashMap::new(),
            frame_hashes: HashMap::new(),
        }
    }

    pub fn apply(&mut self, update: &RouteUpdate) {
        apply_to_mirror(self.mirror.to_mut(), update);
        let (vn, prefix) = update_target(update);
        self.memo
            .retain(|&(v, dst), _| v != vn || !covers(&prefix, dst));
        self.frame_hashes.clear();
    }

    pub fn answer(&mut self, (vn, dst): Packet) -> Option<NextHop> {
        let table = self.mirror.get(usize::from(vn))?;
        if let Cow::Borrowed(_) = self.mirror {
            // Before any update every frame's hash is cached for good,
            // so a per-packet memo would only cost memory.
            return lpm(table, dst);
        }
        *self
            .memo
            .entry((vn, dst))
            .or_insert_with(|| lpm(table, dst))
    }

    /// Hash of the reference answers for frame number `id`.
    pub fn frame_hash(&mut self, id: u32, packets: &[Packet]) -> u64 {
        if let Some(&h) = self.frame_hashes.get(&id) {
            return h;
        }
        let answers: Vec<Option<NextHop>> = packets.iter().map(|&p| self.answer(p)).collect();
        let h = results_hash(&answers);
        self.frame_hashes.insert(id, h);
        h
    }
}

/// One lookup frame answered during the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct LookupRecord {
    /// Index into the frame pool.
    pub frame: u32,
    /// Generation the response was served from.
    pub generation: u64,
    /// `results_hash` of the answers received.
    pub hash: u64,
}

/// One update batch the server acknowledged.
#[derive(Debug, Clone)]
pub struct AckRecord {
    /// Generation the ack reported.
    pub generation: u64,
    /// The batch as sent.
    pub updates: Vec<RouteUpdate>,
}

/// Advances `reference` through the acked batches in generation order
/// and checks every lookup record against it. Returns the number of
/// frames whose answers differ from the reference. `reference` must
/// start at the generation-0 tables the records' server started from.
#[must_use]
pub fn verify(
    reference: &mut Reference,
    frames: &[Vec<Packet>],
    lookups: &[LookupRecord],
    acks: &[AckRecord],
) -> usize {
    let mut order: Vec<&LookupRecord> = lookups.iter().collect();
    order.sort_by_key(|r| r.generation);
    let mut acked: Vec<&AckRecord> = acks.iter().collect();
    acked.sort_by_key(|a| a.generation);
    let mut next_ack = 0;
    let mut mismatches = 0;
    for record in order {
        while next_ack < acked.len() && acked[next_ack].generation <= record.generation {
            for update in &acked[next_ack].updates {
                reference.apply(update);
            }
            next_ack += 1;
        }
        let Some(packets) = frames.get(record.frame as usize) else {
            mismatches += 1;
            continue;
        };
        if reference.frame_hash(record.frame, packets) != record.hash {
            mismatches += 1;
        }
    }
    mismatches
}

/// Compares the reference against the tables' own linear-scan LPM on
/// `packets`; returns the number of disagreements.
#[must_use]
pub fn spot_check(tables: &[RoutingTable], packets: &[Packet]) -> usize {
    packets
        .iter()
        .filter(|&&(vn, dst)| {
            let table = &tables[usize::from(vn)];
            lpm(table, dst) != scan_lookup(table, dst)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{table_from, VnId};

    /// xorshift64*: a dependency-free generator for test inputs.
    fn rng(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn random_table(state: &mut u64, routes: usize) -> RoutingTable {
        let routes: Vec<(u32, u8, NextHop)> = (0..routes)
            .map(|_| {
                // Cluster addresses under a few /8s so prefixes nest.
                let addr = ((rng(state) % 4) as u32) << 24 | (rng(state) as u32 & 0x00FF_FFFF);
                let len = (rng(state) % 33) as u8;
                (addr, len, (rng(state) % 16) as NextHop)
            })
            .collect();
        table_from(&routes)
    }

    #[test]
    fn reference_lpm_agrees_with_the_table_scan_on_random_tables() {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        for routes in [0, 1, 5, 50, 400] {
            let tables = vec![
                random_table(&mut state, routes),
                random_table(&mut state, routes),
            ];
            let probes: Vec<Packet> = (0..2000)
                .map(|_| {
                    let dst = ((rng(&mut state) % 5) as u32) << 24 | (rng(&mut state) as u32 >> 8);
                    ((rng(&mut state) % 2) as VnId, dst)
                })
                .collect();
            assert_eq!(spot_check(&tables, &probes), 0, "{routes} routes");
        }
    }

    #[test]
    fn default_route_and_host_routes_resolve() {
        let t = table_from(&[(0, 0, 7), (0x0A00_0000, 8, 1), (0x0A01_0203, 32, 2)]);
        assert_eq!(lpm(&t, 0x0A01_0203), Some(2));
        assert_eq!(lpm(&t, 0x0A01_0204), Some(1));
        assert_eq!(lpm(&t, 0x0B00_0000), Some(7));
        assert_eq!(lpm(&table_from(&[]), 1), None);
    }

    fn two_tables() -> Vec<RoutingTable> {
        vec![
            table_from(&[(0x0A00_0000, 8, 1)]),
            table_from(&[(0x0A00_0000, 8, 2)]),
        ]
    }

    #[test]
    fn verify_flags_a_wrong_answer() {
        let base = two_tables();
        let frames = vec![vec![(0, 0x0A00_0001), (1, 0x0B00_0000)]];
        let right = results_hash(&[Some(1), None]);
        let wrong = results_hash(&[Some(2), None]);
        let record = |hash| LookupRecord {
            frame: 0,
            generation: 0,
            hash,
        };
        let check =
            |records: &[LookupRecord]| verify(&mut Reference::new(&base), &frames, records, &[]);
        assert_eq!(check(&[record(right)]), 0);
        assert_eq!(check(&[record(right), record(wrong)]), 1);
    }

    #[test]
    fn verify_follows_acked_generations() {
        let base = two_tables();
        let frames = vec![vec![(0, 0x0A01_0000)]];
        let ack = AckRecord {
            generation: 3,
            updates: vec![RouteUpdate::Announce {
                vnid: 0,
                prefix: covering_prefix(0x0A01_0000, 16),
                next_hop: 9,
            }],
        };
        let at = |generation, nh| LookupRecord {
            frame: 0,
            generation,
            hash: results_hash(&[Some(nh)]),
        };
        let acks = [ack];
        let check =
            |records: &[LookupRecord]| verify(&mut Reference::new(&base), &frames, records, &acks);
        // Before the ack the /8 answers; from its generation on the /16.
        assert_eq!(check(&[at(2, 1), at(3, 9), at(7, 9)]), 0);
        assert_eq!(check(&[at(3, 1)]), 1);
        assert_eq!(check(&[at(1, 9)]), 1);
        // The base tables themselves are never touched.
        assert_eq!(lpm(&base[0], 0x0A01_0000), Some(1));
    }
}
