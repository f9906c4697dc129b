//! DHF-prime generation, the bit-packed cube kernel vs the scalar
//! reference, and cold vs cached minimization, on the paper's four DIFFEQ
//! controllers plus synthetic wide-cube instances.
//!
//! The `primes/walk` group times the whole DHF-prime walk
//! (`dhf_primes_with_stats`, packed planes and blocked-raise masks) against
//! the straightforward reference walk (`primes::reference`, one
//! `is_dhf_implicant` per raise attempt), on the required cubes of every
//! DIFFEQ controller spec. Both walks are asserted to return the same primes
//! in the same order and the same stats before anything is timed.
//!
//! The `kernel/*` group times the DHF-implicant validity check — the
//! off-set intersection and privileged-cube tests of `is_dhf_implicant`,
//! which the reference walk issues per raise attempt and the minimizer
//! still uses to vet finished primes — once with the two-plane packed
//! [`Cube`] and once with the element-wise [`ScalarCube`] reference
//! (`adcs-hfmin` feature `scalar-ref`). Both kernels are asserted to agree
//! before anything is timed, and the packed kernel is asserted at least 2x
//! faster on the DIFFEQ controller set.
//! The `cache/*` group times a full controller minimization from scratch
//! against a warm `MinimizeCache` lookup.
//!
//! Run with `cargo bench --bench hfmin`; results are recorded in
//! EXPERIMENTS.md. A name filter (`-- primes`) skips the set-up and gates
//! of every group it cannot select, not just their timing loops.

use adcs::MinimizeCache;
use adcs_bench::run_diffeq_flow;
use adcs_hfmin::cover::Cover;
use adcs_hfmin::cube::scalar::ScalarCube;
use adcs_hfmin::cube::{Cube, CubeVal};
use adcs_hfmin::primes::{self, dhf_primes_with_stats};
use adcs_hfmin::spec::FunctionSpec;
use adcs_hfmin::{controller_specs, synthesize, SynthOptions};
use adcs_xbm::XbmMachine;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One DHF-prime-style instance: candidate pool, off-set, privileged
/// pairs — the three cube sets `is_dhf_implicant` walks. For a spec, the
/// pool is its required cubes: the seeds of the DHF-prime walk.
struct KernelInstance {
    pool: Vec<Cube>,
    off: Cover,
    privileged: Vec<(Cube, Cube)>,
}

impl KernelInstance {
    fn from_spec(spec: &FunctionSpec) -> Self {
        let pool = spec.required_cubes();
        KernelInstance {
            off: spec.off_cover(),
            privileged: spec.privileged_cubes(),
            pool,
        }
    }

    fn to_scalar(&self) -> ScalarKernelInstance {
        let s = |c: &Cube| ScalarCube::new((0..c.width()).map(|i| c.get(i)).collect());
        ScalarKernelInstance {
            pool: self.pool.iter().map(s).collect(),
            off: self.off.iter().map(s).collect(),
            privileged: self.privileged.iter().map(|(t, a)| (s(t), s(a))).collect(),
        }
    }

    /// The packed kernel: counts off-set hits and privileged violations
    /// for every pool cube — exactly the checks DHF-prime expansion
    /// performs per candidate.
    fn run(&self) -> u64 {
        let mut n = 0u64;
        for c in &self.pool {
            n += self.off.iter().filter(|o| c.intersects(o)).count() as u64;
            n += self
                .privileged
                .iter()
                .filter(|(t, a)| c.intersects(t) && !c.contains(a))
                .count() as u64;
        }
        n
    }
}

struct ScalarKernelInstance {
    pool: Vec<ScalarCube>,
    off: Vec<ScalarCube>,
    privileged: Vec<(ScalarCube, ScalarCube)>,
}

impl ScalarKernelInstance {
    fn run(&self) -> u64 {
        let mut n = 0u64;
        for c in &self.pool {
            n += self.off.iter().filter(|o| c.intersects(o)).count() as u64;
            n += self
                .privileged
                .iter()
                .filter(|(t, a)| c.intersects(t) && !c.contains(a))
                .count() as u64;
        }
        n
    }
}

fn diffeq_machines() -> Vec<XbmMachine> {
    let out = run_diffeq_flow().expect("flow");
    out.controllers.iter().map(|c| c.machine.clone()).collect()
}

fn diffeq_instances() -> Vec<KernelInstance> {
    diffeq_machines()
        .iter()
        .flat_map(|m| {
            let problem = controller_specs(m, SynthOptions::default()).expect("specs");
            problem
                .specs
                .iter()
                .map(|(_, spec)| KernelInstance::from_spec(spec))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Deterministic xorshift so the synthetic instances are reproducible.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A synthetic instance whose cubes straddle the 64-variable word
/// boundary: `width` > 64 forces every kernel op onto the multi-word
/// (spilled) path.
fn wide_instance(width: usize, cubes: usize, seed: u64) -> KernelInstance {
    let mut rng = XorShift(seed);
    fn cube(rng: &mut XorShift, width: usize, fixed_percent: u64) -> Cube {
        Cube::new(
            (0..width)
                .map(|_| {
                    let r = rng.next();
                    if r % 100 < fixed_percent {
                        if r & 1 << 32 != 0 {
                            CubeVal::One
                        } else {
                            CubeVal::Zero
                        }
                    } else {
                        CubeVal::Dash
                    }
                })
                .collect(),
        )
    }
    let pool: Vec<Cube> = (0..cubes).map(|_| cube(&mut rng, width, 30)).collect();
    let off: Cover = (0..cubes).map(|_| cube(&mut rng, width, 60)).collect();
    let privileged: Vec<(Cube, Cube)> = (0..cubes / 2)
        .map(|_| {
            let t = cube(&mut rng, width, 20);
            // The "required sub-cube" of a privileged pair is contained in
            // its transition cube; mirror that by fixing more variables.
            let mut a = t.clone();
            for i in 0..width {
                if a.get(i) == CubeVal::Dash && rng.next().is_multiple_of(3) {
                    a = a.with(i, CubeVal::Zero);
                }
            }
            (t, a)
        })
        .collect();
    KernelInstance {
        pool,
        off,
        privileged,
    }
}

/// Measures `f` over `iters` runs and returns the elapsed wall time.
fn time_kernel(iters: u32, mut f: impl FnMut() -> u64) -> Duration {
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..iters {
        acc = acc.wrapping_add(f());
    }
    black_box(acc);
    start.elapsed()
}

fn bench_cube_kernel(c: &mut Criterion) {
    if c.selects("hfmin/kernel_diffeq") {
        bench_kernel_diffeq(c);
    }
    if c.selects("hfmin/kernel_wide130") {
        bench_kernel_wide(c);
    }
}

fn bench_kernel_diffeq(c: &mut Criterion) {
    let packed = diffeq_instances();
    let scalar: Vec<ScalarKernelInstance> = packed.iter().map(|i| i.to_scalar()).collect();

    // Correctness gate: both kernels must count identically.
    for (p, s) in packed.iter().zip(&scalar) {
        assert_eq!(p.run(), s.run(), "packed and scalar kernels disagree");
    }

    // Headline speedup on the DIFFEQ controller set (warm-up pass first so
    // neither side pays cold-cache costs).
    let iters = 200;
    time_kernel(10, || packed.iter().map(|i| i.run()).sum());
    time_kernel(10, || scalar.iter().map(|i| i.run()).sum());
    let tp = time_kernel(iters, || packed.iter().map(|i| i.run()).sum());
    let ts = time_kernel(iters, || scalar.iter().map(|i| i.run()).sum());
    let speedup = ts.as_secs_f64() / tp.as_secs_f64();
    println!(
        "hfmin kernel DIFFEQ: packed {tp:?} vs scalar {ts:?} over {iters} iters -> {speedup:.1}x"
    );
    assert!(
        speedup >= 2.0,
        "packed kernel only {speedup:.2}x faster than scalar"
    );

    let mut grp = c.benchmark_group("hfmin/kernel_diffeq");
    grp.sample_size(20).measurement_time(Duration::from_secs(4));
    grp.bench_function("packed", |b| {
        b.iter(|| black_box(packed.iter().map(|i| i.run()).sum::<u64>()))
    });
    grp.bench_function("scalar", |b| {
        b.iter(|| black_box(scalar.iter().map(|i| i.run()).sum::<u64>()))
    });
    grp.finish();
}

/// Synthetic wide instances: >64 variables exercises the multi-word path
/// that no paper controller reaches.
fn bench_kernel_wide(c: &mut Criterion) {
    let wide_packed: Vec<KernelInstance> = (0..4)
        .map(|i| wide_instance(130, 48, 0x9e3779b97f4a7c15 ^ i))
        .collect();
    let wide_scalar: Vec<ScalarKernelInstance> =
        wide_packed.iter().map(|i| i.to_scalar()).collect();
    for (p, s) in wide_packed.iter().zip(&wide_scalar) {
        assert_eq!(p.run(), s.run(), "wide kernels disagree");
    }
    let mut grp = c.benchmark_group("hfmin/kernel_wide130");
    grp.sample_size(20).measurement_time(Duration::from_secs(4));
    grp.bench_function("packed", |b| {
        b.iter(|| black_box(wide_packed.iter().map(|i| i.run()).sum::<u64>()))
    });
    grp.bench_function("scalar", |b| {
        b.iter(|| black_box(wide_scalar.iter().map(|i| i.run()).sum::<u64>()))
    });
    grp.finish();
}

fn bench_minimize_cache(c: &mut Criterion) {
    if !c.selects("hfmin/minimize") {
        return;
    }
    // The paper's four controllers plus the Figure-8 example's three, so
    // the cache sees a mixed working set. (Larger non-paper designs such
    // as the biquad cascade extract controllers whose exact hazard-free
    // minimization does not finish in bench time — see EXPERIMENTS.md.)
    let mut machines = diffeq_machines();
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../designs/figure8.adcs"),
    )
    .expect("figure8 design");
    let p = adcs_cdfg::parse::parse_program(&text).expect("parse");
    {
        use adcs::channel::ChannelMap;
        use adcs::extract::{extract, ExtractOptions};
        let ch = ChannelMap::per_arc(&p.cdfg).expect("channels");
        let ex = extract(&p.cdfg, &ch, &ExtractOptions::default()).expect("extract");
        machines.extend(ex.controllers.into_iter().map(|c| c.machine));
    }

    let opts = SynthOptions::default();
    // Raw extracted (untransformed) controllers are not all hazard-free
    // realizable; keep the ones that synthesize so cold/cached time the
    // same work.
    let total = machines.len();
    machines.retain(|m| synthesize(m, opts).is_ok());
    println!(
        "hfmin cache working set: {} of {total} controllers synthesize",
        machines.len()
    );

    let cache = MinimizeCache::new();
    for m in &machines {
        // Warm pass; also pins that cached and fresh results agree.
        let (cached, _) = cache.synthesize(m, opts).expect("synth");
        let fresh = synthesize(m, opts).expect("synth");
        assert_eq!(
            (
                cached.products_single_output(),
                cached.literals_single_output()
            ),
            (
                fresh.products_single_output(),
                fresh.literals_single_output()
            ),
            "{}: cached result diverged",
            m.name()
        );
    }

    let mut grp = c.benchmark_group("hfmin/minimize");
    grp.sample_size(10).measurement_time(Duration::from_secs(8));
    grp.bench_function("cold", |b| {
        b.iter(|| {
            for m in &machines {
                black_box(synthesize(m, opts).expect("synth"));
            }
        })
    });
    grp.bench_function("cached", |b| {
        b.iter(|| {
            for m in &machines {
                black_box(cache.synthesize(m, opts).expect("synth"));
            }
        })
    });
    grp.finish();
    println!(
        "hfmin cache: {} entries, {} hits / {} misses after timing",
        cache.len(),
        cache.hits(),
        cache.misses()
    );
}

fn bench_primes_walk(c: &mut Criterion) {
    if !c.selects("primes/walk") {
        return;
    }
    let mut instances = diffeq_instances();
    instances.retain(|i| !i.pool.is_empty());
    let packed = || {
        instances
            .iter()
            .map(|i| dhf_primes_with_stats(&i.pool, &i.off, &i.privileged))
            .collect::<Vec<_>>()
    };
    let reference = || {
        instances
            .iter()
            .map(|i| primes::reference::dhf_primes_with_stats(&i.pool, &i.off, &i.privileged))
            .collect::<Vec<_>>()
    };

    // Correctness gate: same primes in the same order, same stats.
    let p = packed();
    assert_eq!(p, reference(), "packed and reference walks disagree");
    let primes: usize = p.iter().flatten().map(|(p, _)| p.len()).sum();
    println!(
        "hfmin primes walk DIFFEQ: {} specs, {primes} primes",
        instances.len()
    );

    let mut grp = c.benchmark_group("primes/walk");
    grp.sample_size(10).measurement_time(Duration::from_secs(8));
    grp.bench_function("packed", |b| b.iter(|| black_box(packed())));
    grp.bench_function("reference", |b| b.iter(|| black_box(reference())));
    grp.finish();
}

criterion_group!(
    benches,
    bench_primes_walk,
    bench_cube_kernel,
    bench_minimize_cache
);
criterion_main!(benches);
