//! Criterion: longest-prefix-match throughput — scalar pointer-chasing
//! tries vs the stage-lockstep `lookup_batch` path vs the flat
//! level-ordered layouts, against the linear-scan oracle, on paper-scale
//! tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vr_net::synth::TableSpec;
use vr_trie::{FlatStrideTrie, FlatTrie, JumpTrie, LeafPushedTrie, StrideTrie, UnibitTrie};

fn bench_lookup(c: &mut Criterion) {
    let table = TableSpec::paper_worst_case(2012).generate().unwrap();
    let trie = UnibitTrie::from_table(&table);
    let pushed = LeafPushedTrie::from_unibit(&trie);
    let flat = FlatTrie::from_leaf_pushed(&pushed);
    let stride = StrideTrie::from_table(&table, &[8, 8, 8, 8]).unwrap();
    let flat_stride = FlatStrideTrie::from_stride(&stride);
    let jump = JumpTrie::from_leaf_pushed(&pushed);
    let probes: Vec<u32> = table
        .prefixes()
        .map(|p| p.addr() ^ 0x5A5A)
        .take(1024)
        .collect();

    let mut group = c.benchmark_group("lookup");
    group.throughput(Throughput::Elements(probes.len() as u64));

    group.bench_function("unibit_trie", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &ip in &probes {
                if trie.lookup(black_box(ip)).is_some() {
                    acc += 1;
                }
            }
            acc
        })
    });

    group.bench_function("leaf_pushed_trie", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &ip in &probes {
                if pushed.lookup(black_box(ip)).is_some() {
                    acc += 1;
                }
            }
            acc
        })
    });

    group.bench_function("flat_trie", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &ip in &probes {
                if flat.lookup(black_box(ip)).is_some() {
                    acc += 1;
                }
            }
            acc
        })
    });

    group.bench_function("stride_trie", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &ip in &probes {
                if stride.lookup(black_box(ip)).is_some() {
                    acc += 1;
                }
            }
            acc
        })
    });

    group.bench_function("flat_stride_trie", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &ip in &probes {
                if flat_stride.lookup(black_box(ip)).is_some() {
                    acc += 1;
                }
            }
            acc
        })
    });

    group.bench_function("jump_trie", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &ip in &probes {
                if jump.lookup(black_box(ip)).is_some() {
                    acc += 1;
                }
            }
            acc
        })
    });

    // The O(n)-per-lookup oracle, on a reduced probe set to keep the bench
    // short — the point is the orders-of-magnitude gap.
    let few: Vec<u32> = probes.iter().copied().take(32).collect();
    group.throughput(Throughput::Elements(few.len() as u64));
    group.bench_function("linear_scan_oracle", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &ip in &few {
                if table.lookup(black_box(ip)).is_some() {
                    acc += 1;
                }
            }
            acc
        })
    });

    group.finish();

    // Stage-lockstep batched path: the whole probe set in one call,
    // one level of the trie advanced per pass over the batch.
    let mut out = vec![None; probes.len()];
    let mut batched = c.benchmark_group("lookup_batch");
    batched.throughput(Throughput::Elements(probes.len() as u64));

    batched.bench_function("unibit_trie", |b| {
        b.iter(|| {
            trie.lookup_batch(black_box(&probes), &mut out);
            out.iter().filter(|nh| nh.is_some()).count()
        })
    });
    batched.bench_function("leaf_pushed_trie", |b| {
        b.iter(|| {
            pushed.lookup_batch(black_box(&probes), &mut out);
            out.iter().filter(|nh| nh.is_some()).count()
        })
    });
    batched.bench_function("flat_trie", |b| {
        b.iter(|| {
            flat.lookup_batch(black_box(&probes), &mut out);
            out.iter().filter(|nh| nh.is_some()).count()
        })
    });
    batched.bench_function("stride_trie", |b| {
        b.iter(|| {
            stride.lookup_batch(black_box(&probes), &mut out);
            out.iter().filter(|nh| nh.is_some()).count()
        })
    });
    batched.bench_function("flat_stride_trie", |b| {
        b.iter(|| {
            flat_stride.lookup_batch(black_box(&probes), &mut out);
            out.iter().filter(|nh| nh.is_some()).count()
        })
    });

    // Batch-size sensitivity on the flat layout: how wide does the batch
    // need to be before the per-level slab scans amortise?
    for width in [8usize, 32, 128, 512] {
        batched.throughput(Throughput::Elements(probes.len() as u64));
        batched.bench_with_input(
            BenchmarkId::new("flat_trie_width", width),
            &width,
            |b, &width| {
                b.iter(|| {
                    let mut hits = 0usize;
                    for chunk in probes.chunks(width) {
                        let slot = &mut out[..chunk.len()];
                        flat.lookup_batch(black_box(chunk), slot);
                        hits += slot.iter().filter(|nh| nh.is_some()).count();
                    }
                    hits
                })
            },
        );
    }

    batched.finish();
}

criterion_group!(benches, bench_lookup);
criterion_main!(benches);
