//! Per-layer numbers, taken from outside the program: counter windows
//! read through the public accessors, and timings of calls into each
//! layer's public functions.

use std::time::{Duration, Instant};

use cilkm_core::library::SumMonoid;
use cilkm_core::{InstrumentSnapshot, Reducer, ReducerPool};
use cilkm_graph::Bag;
use cilkm_obs::metrics::{fine_bucket_lower_bound, FineHistogramSnapshot, FINE_BUCKETS};
use cilkm_runtime::deque::{deque, Steal};
use cilkm_runtime::PoolStats;
use cilkm_spa::{SpaMapBox, ViewPair, VIEWS_PER_MAP};
use cilkm_tlmm::stats::CrossingSnapshot;
use cilkm_tlmm::{PageArena, TlmmRegion};

use crate::stats::{median, ns_per_op, timed};
use crate::workloads::wait_parked;

/// Everything a counter window reads from one pool.
pub struct Snapshot {
    pub pool: PoolStats,
    pub core: InstrumentSnapshot,
    pub transferal_fine: FineHistogramSnapshot,
    pub tlmm: CrossingSnapshot,
}

impl Snapshot {
    /// Reads `pool`'s public counters.
    pub fn take(pool: &ReducerPool) -> Snapshot {
        Snapshot {
            pool: pool.stats(),
            core: pool.instrument(),
            transferal_fine: pool.overhead_histograms().transferal_fine,
            tlmm: pool.domain().arena_handle().crossings().snapshot(),
        }
    }

    /// The counters accumulated since `before`; `deque_hwm` stays the
    /// high-water mark so far.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        let (a, b) = (&self.pool, &before.pool);
        Snapshot {
            pool: PoolStats {
                steals: a.steals - b.steals,
                failed_steals: a.failed_steals - b.failed_steals,
                jobs_executed: a.jobs_executed - b.jobs_executed,
                inline_joins: a.inline_joins - b.inline_joins,
                stolen_joins: a.stolen_joins - b.stolen_joins,
                steal_attempts: a.steal_attempts - b.steal_attempts,
                parks: a.parks - b.parks,
                wakes: a.wakes - b.wakes,
                deque_hwm: a.deque_hwm,
            },
            core: self.core.since(&before.core),
            transferal_fine: self.transferal_fine.since(&before.transferal_fine),
            tlmm: self.tlmm.since(&before.tlmm),
        }
    }
}

/// The `q`-quantile of a fine histogram, interpolated linearly inside
/// the bucket that holds it (the histogram alone is exact to a bucket).
pub fn fine_quantile(h: &FineHistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q * h.count as f64;
    let mut seen = 0.0;
    for (i, &b) in h.buckets.iter().enumerate() {
        let b = b as f64;
        if b > 0.0 && seen + b >= target {
            let lo = fine_bucket_lower_bound(i) as f64;
            let hi = if i + 1 < FINE_BUCKETS {
                fine_bucket_lower_bound(i + 1) as f64
            } else {
                lo
            };
            return lo + (hi - lo) * ((target - seen) / b).clamp(0.0, 1.0);
        }
        seen += b;
    }
    fine_bucket_lower_bound(FINE_BUCKETS - 1) as f64
}

/// Sizes for the layer timings, taken from the traced run's counts.
#[derive(Copy, Clone, Debug)]
pub struct Sizes {
    /// Mean views per transferred SPA page.
    pub views_per_page: usize,
    /// Mean pages per `pmap_scatter`/`pmap` call.
    pub pages_per_map: usize,
    /// Mean pages allocated per steal.
    pub pallocs_per_steal: usize,
    /// Elements per bag in the bag timings.
    pub bag: usize,
    /// Deque depth in the deque timings.
    pub deque_depth: usize,
}

/// `PageArena::palloc`, per page, allocating `pages` pages before
/// freeing them again (only the allocations are timed).
pub fn palloc_ns(pages: usize) -> f64 {
    let arena = PageArena::new();
    let rounds = (4096 / pages).max(4);
    let mut descs = Vec::with_capacity(pages);
    ns_per_op((rounds * pages) as u64, || {
        let mut dt = Duration::ZERO;
        for _ in 0..rounds {
            dt += timed(|| {
                for _ in 0..pages {
                    descs.push(arena.palloc());
                }
            })
            .1;
            for pd in descs.drain(..) {
                arena.pfree(pd);
            }
        }
        dt
    })
}

/// `TlmmRegion::pmap_scatter`, per page, at `pages` pages per call,
/// alternating between two sets of descriptors.
pub fn pmap_scatter_ns(pages: usize) -> f64 {
    let arena = std::sync::Arc::new(PageArena::new());
    let mut region = TlmmRegion::new(std::sync::Arc::clone(&arena));
    let sets: Vec<Vec<(usize, cilkm_tlmm::PageDesc)>> = (0..2)
        .map(|_| (0..pages).map(|p| (p, arena.palloc())).collect())
        .collect();
    let calls = (4096 / pages).clamp(8, 1024);
    let ns = ns_per_op((calls * pages) as u64, || {
        timed(|| {
            for c in 0..calls {
                region.pmap_scatter(&sets[c % 2]);
            }
        })
        .1
    });
    let unmap: Vec<_> = (0..pages).map(|p| (p, cilkm_tlmm::PD_NULL)).collect();
    region.pmap_scatter(&unmap);
    for set in sets {
        for (_, pd) in set {
            arena.pfree(pd);
        }
    }
    ns
}

/// SPA-map timings at `views` views per map: `insert`, `get`, and
/// `drain_into` (each per view).
pub fn spa_ns(views: usize) -> (f64, f64, f64) {
    let views = views.clamp(1, VIEWS_PER_MAP);
    // A working set of 64 source and 64 destination maps (the most pages
    // a steal train transfers per steal), cycled enough times that one
    // sample handles a few thousand views.
    const MAPS: usize = 64;
    let rounds = (4096 / (MAPS * views)).max(1);
    let src: Vec<SpaMapBox> = (0..MAPS).map(|_| SpaMapBox::new()).collect();
    let dst: Vec<SpaMapBox> = (0..MAPS).map(|_| SpaMapBox::new()).collect();
    // Spread the views over the page the way slot allocation spreads a
    // workload's reducers: evenly, in index order.
    let idx: Vec<usize> = (0..views).map(|v| v * VIEWS_PER_MAP / views).collect();
    let mut target = [0u64; 2];
    let pair = ViewPair {
        view: target.as_mut_ptr() as *mut u8,
        monoid: target.as_ptr() as *const u8,
    };
    let ops = (rounds * MAPS * views) as u64;
    let fill = |m: &SpaMapBox| {
        for &i in &idx {
            m.as_ref().insert(i, pair);
        }
    };
    let insert = ns_per_op(ops, || {
        let mut dt = Duration::ZERO;
        for _ in 0..rounds {
            dt += timed(|| src.iter().for_each(fill)).1;
            src.iter().for_each(|m| m.as_ref().clear_all());
        }
        dt
    });
    src.iter().for_each(fill);
    let get = ns_per_op(ops, || {
        timed(|| {
            for _ in 0..rounds {
                for m in &src {
                    for &i in &idx {
                        std::hint::black_box(m.as_ref().get(i));
                    }
                }
            }
        })
        .1
    });
    let drain = ns_per_op(ops, || {
        let mut dt = Duration::ZERO;
        for _ in 0..rounds {
            dt += timed(|| {
                for (s, d) in src.iter().zip(&dst) {
                    std::hint::black_box(s.as_ref().drain_into(d.as_ref()));
                }
            })
            .1;
            for (s, d) in src.iter().zip(&dst) {
                d.as_ref().clear_all();
                fill(s);
            }
        }
        dt
    });
    src.iter().for_each(|m| m.as_ref().clear_all());
    (insert, get, drain)
}

/// Deque timings, uncontended on one thread: a push/pop pair, and one
/// steal, each per operation at a depth of `depth` items.
pub fn deque_ns(depth: usize) -> (f64, f64) {
    let (owner, stealer) = deque();
    let mut item = 0u8;
    let p = &mut item as *mut u8 as *mut ();
    let rounds = (4096 / depth).max(16);
    let push_pop = ns_per_op((rounds * depth) as u64, || {
        timed(|| {
            for _ in 0..rounds {
                for _ in 0..depth {
                    owner.push(p);
                }
                for _ in 0..depth {
                    std::hint::black_box(owner.pop());
                }
            }
        })
        .1
    });
    let steal = ns_per_op((rounds * depth) as u64, || {
        let mut dt = Duration::ZERO;
        for _ in 0..rounds {
            for _ in 0..depth {
                owner.push(p);
            }
            let t0 = Instant::now();
            for _ in 0..depth {
                assert!(matches!(stealer.steal(), Steal::Success(_)));
            }
            dt += t0.elapsed();
        }
        dt
    });
    (push_pop, steal)
}

/// Round trip of an empty `ReducerPool::run`, in microseconds, starting
/// as every job does: with the workers of both pools parked. (Back to
/// back, a run finds the workers still spinning or already parked by
/// chance, and the median moved 4× between processes.)
pub fn region_us(pool: &ReducerPool, other: &ReducerPool) -> f64 {
    let samples: Vec<f64> = (0..103)
        .map(|_| {
            wait_parked(other);
            wait_parked(pool);
            timed(|| pool.run(|| ())).1.as_nanos() as f64 / 1e3
        })
        .skip(3)
        .collect();
    median(&samples)
}

/// A tight `Reducer::add` loop on one worker over `reducers` reducers
/// (rounded up to a power of two), in ns per lookup.
pub fn lookup_ns(pool: &ReducerPool, other: &ReducerPool, reducers: usize) -> f64 {
    let n = reducers.next_power_of_two();
    let rs: Vec<Reducer<SumMonoid<u64>>> = (0..n)
        .map(|_| Reducer::new(pool, SumMonoid::new(), 0))
        .collect();
    const LOOKUPS: usize = 1 << 20;
    wait_parked(other);
    let per_op = |_: usize| {
        let dt = pool.run(|| {
            timed(|| {
                for i in 0..LOOKUPS {
                    rs[i & (n - 1)].add(1);
                }
            })
            .1
        });
        dt.as_nanos() as f64 / LOOKUPS as f64
    };
    let samples: Vec<f64> = (0..14).map(per_op).skip(3).collect();
    let total: u64 = rs.iter().map(|r| r.take()).sum();
    assert_eq!(total, 14 * LOOKUPS as u64, "lookup timing lost updates");
    median(&samples)
}

/// `Bag::insert` per element into a bag growing to `n`, and
/// `Bag::union` of two bags of `min(n, 4096)` elements, per union (its
/// cost grows with the logarithm of the size only, and building larger
/// pairs for every sample would take seconds).
pub fn bag_ns(n: usize) -> (f64, f64) {
    let n = n.max(1);
    let insert = ns_per_op(n as u64, || {
        let mut bag = Bag::new();
        let dt = timed(|| {
            for v in 0..n as u32 {
                bag.insert(v);
            }
        })
        .1;
        std::hint::black_box(bag.len());
        dt
    });
    let m = n.min(4096);
    let unions = (1 << 16) / m.max(256);
    let union = ns_per_op(unions as u64, || {
        let mut pairs: Vec<(Bag<u32>, Bag<u32>)> = (0..unions)
            .map(|u| {
                let (mut a, mut b) = (Bag::new(), Bag::new());
                // Sizes vary around `m` so the carry chains vary too.
                for v in 0..(m + u) as u32 {
                    a.insert(v);
                    b.insert(v);
                }
                (a, b)
            })
            .collect();
        let dt = timed(|| {
            for (a, b) in pairs.iter_mut() {
                a.union(std::mem::take(b));
            }
        })
        .1;
        std::hint::black_box(pairs.len());
        dt
    });
    (insert, union)
}
