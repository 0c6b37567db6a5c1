//! The four workloads, their seeded inputs, and the two backend arms.
//!
//! A *job* is the unit that is timed. Each arm owns a [`ReducerPool`] of
//! [`WORKERS`] workers; the arms take turns job by job, and before a job
//! starts every worker of both pools is parked, so only one arm's
//! workers are ever runnable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cilkm_core::library::SumMonoid;
use cilkm_core::{Backend, Monoid, Reducer, ReducerPool};
use cilkm_graph::{gen, pbfs, Graph};
use cilkm_runtime::{join, parallel_for};
use cilkm_spa::VIEWS_PER_MAP;
use cilkm_tlmm::PageArena;

use crate::check::{self, Affine, UNREACHED};
use crate::stats::splitmix;

/// Workers per pool: the 2 CPUs of the reference host, so one arm's
/// pool never asks for more runnable threads than there are CPUs.
pub const WORKERS: usize = 2;
/// The arms, in the order their metrics are named.
pub const ARMS: [Backend; 2] = [Backend::Mmap, Backend::Hypermap];

/// Untimed, checked jobs per arm after set-up.
const WARMUP_JOBS: usize = 3;

/// add-n: reducers, lookups per job, and the paper's large grain (§8).
const ADDN_REDUCERS: usize = 1024;
const ADDN_LOOKUPS: usize = 1 << 22;
const ADDN_GRAIN: usize = 8192;

/// PBFS: RMAT with Graph500 skew, 2^18 vertices, 16 arcs per vertex.
const PBFS_SCALE: u32 = 18;
const PBFS_ARCS_PER_VERTEX: usize = 16;
const PBFS_GRAIN: usize = 64;

/// Steal trains: regions per job, phases per region, and iterations per
/// phase. With a small-grain `parallel_for` the number of steals per
/// phase was random and job times spread over 10×; each phase is one
/// `join` of two halves, and the second half is always stolen.
const TRAIN_REGIONS: usize = 4;
const TRAIN_PHASES: usize = 8;
const TRAIN_ITERS: usize = 16384;
/// Longest a phase's first half waits for a thief to take the second
/// half before it runs anyway; only a pool with no idle worker reaches it.
const THIEF_WAIT: Duration = Duration::from_secs(1);
/// `steal_dense`: every slot of about four SPA pages is touched, so a
/// stolen strand leaves pages far above the exchange threshold.
const DENSE_REDUCERS: usize = 1024;
/// `steal_sparse`: four reducers on each of 64 pages are touched, so no
/// strand can leave a page at the exchange threshold (8) and every
/// transferal copies views.
const SPARSE_PAGES: usize = 64;
const SPARSE_PER_PAGE: usize = 4;

/// The workloads the benchmark knows.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Lookup-bound add-n passes.
    AddN,
    /// PBFS traversals of an RMAT graph.
    Pbfs,
    /// Steal trains whose transferals exchange pages.
    StealDense,
    /// Steal trains whose transferals copy views.
    StealSparse,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "addn" => Kind::AddN,
            "pbfs" => Kind::Pbfs,
            "steal_dense" => Kind::StealDense,
            "steal_sparse" => Kind::StealSparse,
            _ => return None,
        })
    }
}

/// What a job hands to its check.
pub enum Output {
    /// The job's results live in its reducers.
    InReducers,
    /// A BFS: distances and the layer count.
    Bfs(Vec<u32>, u32),
}

/// One workload's inputs and per-arm reducers.
pub trait Workload: Sync {
    /// Runs one job on arm `arm` (timed by the caller).
    fn run(&self, arm: usize, pool: &ReducerPool) -> Output;
    /// Checks the job's output and resets the arm for the next job.
    fn check(&self, arm: usize, out: Output) -> bool;
    /// The same job as a plain serial loop with no pool; checks itself.
    fn serial(&self) -> bool;
    /// Reducers the job looks up (sizes the lookup timing).
    fn reducers(&self) -> usize;
    /// SPA pages those reducers' slots span.
    fn pages(&self) -> usize;
    /// Arcs a job traverses, its layers, and the mean vertices per
    /// layer (BFS only).
    fn bfs_shape(&self) -> Option<(u64, u64, u64)> {
        None
    }
}

/// Blocks until every worker of `pool` is parked on its sleep gate, or
/// 200 ms pass.
pub fn wait_parked(pool: &ReducerPool) {
    let deadline = Instant::now() + Duration::from_millis(200);
    let n = pool.num_threads() as u64;
    loop {
        let s = pool.stats();
        if s.parks.saturating_sub(s.wakes) >= n || Instant::now() >= deadline {
            return;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Both arms' pools and one workload.
pub struct Bench {
    /// One pool per arm, indexed like [`ARMS`].
    pub pools: Vec<ReducerPool>,
    /// The workload's inputs and reducers.
    pub work: Box<dyn Workload>,
    arena: Arc<PageArena>,
}

/// One timed job.
pub struct JobRecord {
    /// Wall time of the job.
    pub ms: f64,
    /// Whether its output passed the check.
    pub ok: bool,
}

impl Bench {
    /// Set-up as `setup_s` measures it: inputs, pools, reducers, and
    /// warm-up jobs. Returns the bench and whether every warm-up job
    /// passed its check.
    pub fn setup(kind: Kind, seed: u64) -> (Bench, bool) {
        let pools: Vec<ReducerPool> = ARMS.iter().map(|&b| ReducerPool::new(WORKERS, b)).collect();
        let arena = Arc::clone(pools[0].domain().arena_handle());
        let work: Box<dyn Workload> = match kind {
            Kind::AddN => Box::new(AddN::new(seed, &pools)),
            Kind::Pbfs => Box::new(Pbfs::new(seed)),
            Kind::StealDense => Box::new(Train::new(seed, &pools, false)),
            Kind::StealSparse => Box::new(Train::new(seed, &pools, true)),
        };
        let bench = Bench { pools, work, arena };
        let mut ok = true;
        for _ in 0..WARMUP_JOBS {
            for arm in 0..ARMS.len() {
                ok &= bench.job(arm).ok;
            }
        }
        (bench, ok)
    }

    /// Runs, times and checks one job on `arm`, after parking every
    /// worker of both arms.
    pub fn job(&self, arm: usize) -> JobRecord {
        for p in &self.pools {
            wait_parked(p);
        }
        let t0 = Instant::now();
        let out = self.work.run(arm, &self.pools[arm]);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = self.work.check(arm, out);
        JobRecord { ms, ok }
    }

    /// Drops reducers and pools; true if the memory-mapped arm's arena
    /// then holds no page.
    pub fn teardown(self) -> bool {
        let Bench { pools, work, arena } = self;
        drop(work);
        drop(pools);
        check::check_no_live_pages(&arena)
    }
}

/// Distinct SPA pages holding the slots of `rs`.
fn pages_spanned<M: Monoid>(rs: &[Reducer<M>]) -> usize {
    let pages: std::collections::BTreeSet<u32> =
        rs.iter().map(|r| r.slot() / VIEWS_PER_MAP as u32).collect();
    pages.len()
}

/// `addn`: iteration `i` adds `i + offset` into reducer `i mod 1024`.
struct AddN {
    offset: u64,
    reducers: Vec<Vec<Reducer<SumMonoid<u64>>>>,
}

impl AddN {
    fn new(seed: u64, pools: &[ReducerPool]) -> AddN {
        AddN {
            offset: splitmix(seed) >> 44,
            reducers: pools
                .iter()
                .map(|p| {
                    (0..ADDN_REDUCERS)
                        .map(|_| Reducer::new(p, SumMonoid::new(), 0))
                        .collect()
                })
                .collect(),
        }
    }
}

impl Workload for AddN {
    fn run(&self, arm: usize, pool: &ReducerPool) -> Output {
        let rs = &self.reducers[arm];
        let off = self.offset;
        pool.run(|| {
            parallel_for(0..ADDN_LOOKUPS, ADDN_GRAIN, &|r| {
                for i in r {
                    rs[i & (ADDN_REDUCERS - 1)].add(i as u64 + off);
                }
            })
        });
        Output::InReducers
    }

    fn check(&self, arm: usize, _: Output) -> bool {
        let totals: Vec<u64> = self.reducers[arm].iter().map(|r| r.take()).collect();
        check::check_addn(&totals, ADDN_LOOKUPS as u64, self.offset)
    }

    fn serial(&self) -> bool {
        let mut t = vec![0u64; ADDN_REDUCERS];
        for i in 0..ADDN_LOOKUPS {
            let v = &mut t[i & (ADDN_REDUCERS - 1)];
            *v = v.wrapping_add(i as u64 + self.offset);
        }
        let t = std::hint::black_box(t);
        check::check_addn(&t, ADDN_LOOKUPS as u64, self.offset)
    }

    fn reducers(&self) -> usize {
        ADDN_REDUCERS
    }

    fn pages(&self) -> usize {
        pages_spanned(&self.reducers[0])
    }
}

/// `pbfs`: one traversal of a seeded RMAT graph from vertex 0, which the
/// generator keeps attached to the main component.
struct Pbfs {
    g: Graph,
    /// Arcs out of reached vertices, layers, and vertices per layer.
    shape: (u64, u64, u64),
}

const PBFS_SOURCE: u32 = 0;

impl Pbfs {
    fn new(seed: u64) -> Pbfs {
        let arcs = PBFS_ARCS_PER_VERTEX << PBFS_SCALE;
        let g = gen::rmat(PBFS_SCALE, arcs, 0.57, 0.19, 0.19, splitmix(seed));
        let dist = serial_bfs(&g, PBFS_SOURCE);
        let reached: Vec<u32> = (0..g.num_vertices() as u32)
            .filter(|&u| dist[u as usize] != UNREACHED)
            .collect();
        let edges = reached.iter().map(|&u| g.degree(u) as u64).sum();
        let layers = reached.iter().map(|&u| dist[u as usize]).max().unwrap_or(0) + 1;
        Pbfs {
            shape: (edges, layers as u64, reached.len() as u64 / layers as u64),
            g,
        }
    }
}

/// A queue-based BFS in the benchmark's own code (the serial control).
fn serial_bfs(g: &Graph, source: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHED; g.num_vertices()];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHED {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

fn layer_count(dist: &[u32]) -> u32 {
    dist.iter()
        .filter(|&&d| d != UNREACHED)
        .max()
        .map_or(0, |&d| d + 1)
}

impl Workload for Pbfs {
    fn run(&self, _arm: usize, pool: &ReducerPool) -> Output {
        let rep = pbfs(pool, &self.g, PBFS_SOURCE, PBFS_GRAIN);
        Output::Bfs(rep.distances, rep.layers)
    }

    fn check(&self, _arm: usize, out: Output) -> bool {
        match out {
            Output::Bfs(dist, layers) => {
                check::check_bfs(&self.g, PBFS_SOURCE, &dist) && layers == layer_count(&dist)
            }
            Output::InReducers => false,
        }
    }

    fn serial(&self) -> bool {
        let dist = serial_bfs(&self.g, PBFS_SOURCE);
        check::check_bfs(&self.g, PBFS_SOURCE, &dist)
    }

    fn reducers(&self) -> usize {
        1
    }

    fn pages(&self) -> usize {
        1
    }

    fn bfs_shape(&self) -> Option<(u64, u64, u64)> {
        Some(self.shape)
    }
}

/// Composition of affine maps as a reducer: non-commutative, so a fold
/// out of order changes the result.
struct AffineMonoid;

impl Monoid for AffineMonoid {
    type View = Affine;

    fn identity(&self) -> Affine {
        (1, 0)
    }

    fn reduce(&self, left: &mut Affine, right: Affine) {
        *left = check::compose(*left, right);
    }
}

/// `steal_dense` / `steal_sparse`: a job is [`TRAIN_REGIONS`] short
/// regions of [`TRAIN_PHASES`] phases each; in phase `p` (counted over
/// the whole job), iteration `i` composes `maps[p·N + i]` onto touched
/// reducer `i mod k`. Each phase is one [`join_stolen`] of its two
/// halves, so each phase pays exactly one steal, and the stolen half
/// touches every touched reducer.
struct Train {
    maps: Vec<Affine>,
    expected: Vec<Affine>,
    /// Per arm, the touched reducers in touch order.
    touched: Vec<Vec<Reducer<AffineMonoid>>>,
    /// Per arm, reducers allocated only to spread the touched ones over
    /// SPA pages; kept alive so their slots stay taken.
    _spacers: Vec<Vec<Reducer<AffineMonoid>>>,
}

impl Train {
    fn new(seed: u64, pools: &[ReducerPool], sparse: bool) -> Train {
        let maps: Vec<Affine> = (0..(TRAIN_REGIONS * TRAIN_PHASES * TRAIN_ITERS) as u64)
            .map(|j| {
                let h = splitmix(seed ^ splitmix(j));
                (h | 1, splitmix(h))
            })
            .collect();
        let (mut touched, mut spacers) = (Vec::new(), Vec::new());
        for p in pools {
            let (t, s) = if sparse {
                sparse_reducers(p)
            } else {
                dense_reducers(p)
            };
            touched.push(t);
            spacers.push(s);
        }
        let k = touched[0].len();
        Train {
            expected: check::serial_train(&maps, TRAIN_ITERS, k),
            maps,
            touched,
            _spacers: spacers,
        }
    }
}

/// Touches all [`DENSE_REDUCERS`] reducers in slot order, so consecutive
/// iterations land on consecutive slots of the same SPA page.
fn dense_reducers(pool: &ReducerPool) -> (Vec<Reducer<AffineMonoid>>, Vec<Reducer<AffineMonoid>>) {
    let mut rs: Vec<_> = (0..DENSE_REDUCERS)
        .map(|_| Reducer::new(pool, AffineMonoid, (1, 0)))
        .collect();
    rs.sort_by_key(|r| r.slot());
    (rs, Vec::new())
}

/// Fills [`SPARSE_PAGES`] pages of slots and touches the first
/// [`SPARSE_PER_PAGE`] reducers of each page, page by page in turn, so
/// consecutive iterations land on different pages.
fn sparse_reducers(pool: &ReducerPool) -> (Vec<Reducer<AffineMonoid>>, Vec<Reducer<AffineMonoid>>) {
    let all: Vec<_> = (0..SPARSE_PAGES * VIEWS_PER_MAP)
        .map(|_| Reducer::new(pool, AffineMonoid, (1, 0)))
        .collect();
    let mut by_page: std::collections::BTreeMap<u32, Vec<Reducer<AffineMonoid>>> =
        std::collections::BTreeMap::new();
    for r in all {
        by_page
            .entry(r.slot() / VIEWS_PER_MAP as u32)
            .or_default()
            .push(r);
    }
    let mut chosen: Vec<std::vec::IntoIter<Reducer<AffineMonoid>>> = Vec::new();
    let mut spacers = Vec::new();
    for (_, mut page) in by_page {
        page.sort_by_key(|r| r.slot());
        if page.len() >= SPARSE_PER_PAGE && chosen.len() < SPARSE_PAGES {
            let rest = page.split_off(SPARSE_PER_PAGE);
            spacers.extend(rest);
            chosen.push(page.into_iter());
        } else {
            spacers.extend(page);
        }
    }
    assert_eq!(
        chosen.len(),
        SPARSE_PAGES,
        "fresh pool hands out dense slots"
    );
    let mut touched = Vec::with_capacity(SPARSE_PAGES * SPARSE_PER_PAGE);
    for _ in 0..SPARSE_PER_PAGE {
        for page in chosen.iter_mut() {
            touched.push(page.next().expect("SPARSE_PER_PAGE reducers per page"));
        }
    }
    (touched, spacers)
}

/// Runs `left` and `right` as the two branches of one `join`, holding
/// `left` back until another worker has taken `right`. A phase then pays
/// one steal however the host schedules the thief: left to chance, a
/// thief whose CPU the host held back stole less and its jobs ran faster.
fn join_stolen(left: impl FnOnce() + Send, right: impl FnOnce() + Send) {
    let taken = AtomicBool::new(false);
    join(
        || {
            let t0 = Instant::now();
            while !taken.load(Ordering::Acquire) && t0.elapsed() < THIEF_WAIT {
                std::hint::spin_loop();
            }
            left()
        },
        || {
            taken.store(true, Ordering::Release);
            right()
        },
    );
}

impl Workload for Train {
    fn run(&self, arm: usize, pool: &ReducerPool) -> Output {
        let rs = &self.touched[arm];
        let mask = rs.len() - 1;
        for region in self.maps.chunks(TRAIN_PHASES * TRAIN_ITERS) {
            pool.run(|| {
                for phase in region.chunks(TRAIN_ITERS) {
                    let fold = |r: std::ops::Range<usize>| {
                        for i in r {
                            let m = phase[i];
                            rs[i & mask].update(|v| *v = check::compose(*v, m));
                        }
                    };
                    join_stolen(
                        || fold(0..TRAIN_ITERS / 2),
                        || fold(TRAIN_ITERS / 2..TRAIN_ITERS),
                    );
                }
            });
        }
        Output::InReducers
    }

    fn check(&self, arm: usize, _: Output) -> bool {
        // Take every view, even after a mismatch, so the next job starts
        // from the identity.
        let got: Vec<Affine> = self.touched[arm].iter().map(|r| r.take()).collect();
        check::check_train(&got, &self.expected)
    }

    fn serial(&self) -> bool {
        let got = check::serial_train(&self.maps, TRAIN_ITERS, self.expected.len());
        check::check_train(std::hint::black_box(&got), &self.expected)
    }

    fn reducers(&self) -> usize {
        self.expected.len()
    }

    fn pages(&self) -> usize {
        pages_spanned(&self.touched[0])
    }
}
