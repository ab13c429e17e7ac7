//! Criterion micro-bench: LR-cache probe/reserve/fill throughput under
//! a Zipf reference stream — the per-cycle operation the simulator
//! models as the single cache port.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spal_cache::{BatchProbe, LrCache, LrCacheConfig, Origin, ProbeResult};
use spal_traffic::locality::{LocalityModel, LocalitySampler};

fn zipf_addresses(n: usize, distinct: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = LocalitySampler::new(LocalityModel::Zipf { alpha: 1.1 }, distinct);
    (0..n)
        .map(|_| (sampler.next_index(&mut rng) as u32).wrapping_mul(2654435761))
        .collect()
}

fn bench_probe_fill(c: &mut Criterion) {
    let addrs = zipf_addresses(8192, 20_000, 3);
    let mut group = c.benchmark_group("lr_cache");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    for (name, blocks) in [("1K", 1024usize), ("4K", 4096), ("8K", 8192)] {
        group.bench_function(format!("probe_fill_{name}"), |b| {
            let mut cache: LrCache<u16> = LrCache::new(LrCacheConfig::paper(blocks));
            b.iter(|| {
                let mut hits = 0u32;
                for &a in &addrs {
                    match cache.probe(black_box(a)) {
                        ProbeResult::Hit { .. } => hits += 1,
                        _ => {
                            let _ = cache.fill(a, 1, Origin::Loc);
                        }
                    }
                }
                hits
            })
        });
    }
    // The full miss path with reservation and waiting-entry completion.
    group.bench_function("reserve_fill_cycle", |b| {
        let mut cache: LrCache<u16> = LrCache::new(LrCacheConfig::paper(4096));
        b.iter(|| {
            for &a in &addrs[..1024] {
                if matches!(cache.probe(a), ProbeResult::Miss) {
                    let _ = cache.reserve(a);
                    let _ = cache.fill(a, 1, Origin::Rem);
                }
            }
        })
    });
    group.finish();
}

/// The miss path as the dataplane worker drives it: `probe_batch`
/// over a 256-address burst that hits ≈ never, then one `fill` per
/// lane. Addresses are pseudo-random (which set, and which way of it
/// is oldest, is what the real stream cannot predict either) and the
/// cache starts full, so every lane reserves by evicting a complete
/// block to the victim cache. The hit-path arms above bypass all of
/// this.
fn bench_miss_path(c: &mut Criterion) {
    const BURST: usize = 256;
    let mut group = c.benchmark_group("lr_cache");
    group.throughput(Throughput::Elements(BURST as u64));
    group.bench_function("miss_path_probe_batch_fill", |b| {
        let mut cache: LrCache<Option<u16>> = LrCache::new(LrCacheConfig::paper(4096));
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u32
        };
        for _ in 0..2 * 4096 {
            let _ = cache.fill(next(), Some(1), Origin::Loc);
        }
        let mut burst = vec![0u32; BURST];
        let mut lanes = Vec::with_capacity(BURST);
        b.iter(|| {
            for a in burst.iter_mut() {
                *a = next();
            }
            lanes.clear();
            cache.probe_batch(black_box(&burst), &mut lanes);
            for &a in &burst {
                let _ = cache.fill(a, Some(1), Origin::Loc);
            }
            lanes.len()
        })
    });
    group.finish();
}

/// The hit path as the dataplane worker drives it: 256-address bursts
/// of a Zipf stream the warmed β = 4K cache hits ≈ 0.9 of the time,
/// hits tallied (count and a next-hop sum), the lanes that did not hit
/// filled once their burst is done. `hit_path_probe_each` consumes each
/// lane in the sink, as `admit_own` does; `hit_path_probe_batch` is the
/// same stream through the collected vector and a second pass over it,
/// so what the round trip through memory costs stays visible.
fn bench_hit_path(c: &mut Criterion) {
    const BURST: usize = 256;
    let addrs = zipf_addresses(64 * BURST, 40_000, 5);
    let warmed = || {
        let mut cache: LrCache<Option<u16>> = LrCache::new(LrCacheConfig::paper(4096));
        for &a in &addrs {
            if !matches!(cache.probe(a), ProbeResult::Hit { .. }) {
                let _ = cache.fill(a, Some(1), Origin::Loc);
            }
        }
        cache
    };
    let checksum = |hop: Option<u16>| hop.map_or(0, |h| h as u64 + 1);
    let mut group = c.benchmark_group("lr_cache");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_function("hit_path_probe_each", |b| {
        let mut cache = warmed();
        let mut misses: Vec<u32> = Vec::with_capacity(BURST);
        b.iter(|| {
            let (mut hits, mut hop_sum) = (0u64, 0u64);
            for burst in addrs.chunks(BURST) {
                misses.clear();
                cache.probe_each(black_box(burst), |i, lane| match lane {
                    BatchProbe::Hit { value, .. } => {
                        hits += 1;
                        hop_sum += checksum(value);
                    }
                    _ => misses.push(i as u32),
                });
                for &i in &misses {
                    let _ = cache.fill(burst[i as usize], Some(1), Origin::Loc);
                }
            }
            (hits, hop_sum)
        })
    });
    group.bench_function("hit_path_probe_batch", |b| {
        let mut cache = warmed();
        let mut lanes = Vec::with_capacity(BURST);
        b.iter(|| {
            let (mut hits, mut hop_sum) = (0u64, 0u64);
            for burst in addrs.chunks(BURST) {
                lanes.clear();
                cache.probe_batch(black_box(burst), &mut lanes);
                for (i, lane) in lanes.iter().enumerate() {
                    match *lane {
                        BatchProbe::Hit { value, .. } => {
                            hits += 1;
                            hop_sum += checksum(value);
                        }
                        _ => {
                            let _ = cache.fill(burst[i], Some(1), Origin::Loc);
                        }
                    }
                }
            }
            (hits, hop_sum)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_probe_fill, bench_miss_path, bench_hit_path);
criterion_main!(benches);
