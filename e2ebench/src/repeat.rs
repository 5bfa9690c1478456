//! `jit-repeat`: two closed-loop clients draw Zipf-skewed modules that are
//! all warm in the memory cache, then restarts: a fresh service on the same
//! disk directory, with an empty memory cache, replays the same draws.
//!
//! The hit path skips codegen (hash, lookup, clone; after a restart also
//! disk load and validate), so a codegen change must show no change here.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpde_core::codegen::{CompileOptions, CompiledModule};
use tpde_core::diskcache::{DiskCache, DiskCacheConfig};
use tpde_core::rng::Xoshiro256;
use tpde_core::service::{Request, ServiceBackend, ServiceConfig};
use tpde_core::timing::ServiceStats;
use tpde_llvm::backend::LlvmServiceBackend;
use tpde_llvm::fuzz::{buffers_equal, gen_module};
use tpde_llvm::ir::Module;
use tpde_llvm::{
    compile_service, compile_x64, LlvmCompileService, ModuleRequest, ServiceBackendKind,
};

use crate::aot::AotModule;
use crate::stats::{median, percentile, us, Tally};
use crate::trace::Tracer;

/// Exponent of the Zipf popularity law over the modules: 0.99, the default
/// Zipfian constant of the YCSB request generator (Cooper et al.,
/// "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010).
const ZIPF_S: f64 = 0.99;
/// Seeded small modules drawn besides the 18 SPEC-like ones.
const SMALL_MODULES: usize = 200;
/// Length of the draw sequence; the clients cycle through it.
const DRAWS: usize = 1 << 16;
/// Draws replayed after each restart, by one client so a first touch
/// never waits on the other client's hold of the disk tier's index lock;
/// enough draws to touch nearly every module.
const REPLAY: usize = 3000;
/// Share of the phase spent replaying restarts; the warm phase gets the rest.
const RESTART_SHARE: f64 = 0.3;

struct Item {
    module: Arc<Module>,
    reference: CompiledModule,
}

/// The modules in popularity order, the draw sequence and the pre-warmed
/// service.
pub struct RepeatSetup {
    items: Vec<Item>,
    draws: Vec<u32>,
    svc: LlvmCompileService,
    /// The service's statistics right after the pre-warm.
    prewarmed: ServiceStats,
    dir: PathBuf,
    budget_s: f64,
    /// Seconds the pre-warm took (part of set-up).
    pub prewarm_s: f64,
    /// Share of the draws that pick a SPEC-like module.
    pub spec_share: f64,
}

fn service(dir: &Path) -> LlvmCompileService {
    compile_service(ServiceConfig {
        workers: 2,
        cache_capacity: 1024,
        disk_cache: Some(DiskCacheConfig::new(dir)),
        ..ServiceConfig::default()
    })
}

fn request(item: &Item) -> Request<LlvmServiceBackend> {
    Request::new(ModuleRequest::new(
        Arc::clone(&item.module),
        ServiceBackendKind::TpdeX64,
    ))
}

/// Builds the popularity ranking and the draw sequence, computes the
/// one-shot references, and pre-warms a service on the fresh disk
/// directory `dir` so every module is in its memory cache and on disk.
pub fn setup(
    seed: u64,
    spec: &[AotModule],
    budget_s: f64,
    dir: &Path,
    tally: &Tally,
) -> RepeatSetup {
    let mut rng = Xoshiro256::new(seed ^ 0x004e_9ea7);
    let small: Vec<Module> = (0..SMALL_MODULES)
        .map(|_| gen_module(rng.next_u64()))
        .collect();
    // The SPEC-like modules take the hottest ranks, in a fixed order: under
    // Zipf 0.99 over 218 modules they get about 58% of the draws, so the
    // median hit is a hit on a SPEC-like module and `hit_p50_us` carries
    // its hashing cost. The order must not depend on the seed, or which
    // module is hottest, and with it the latencies, would.
    let mut spec: Vec<&AotModule> = spec.iter().collect();
    spec.sort_by(|a, b| a.name.cmp(&b.name));
    let n_spec = spec.len();
    let modules = spec
        .into_iter()
        .map(|m| Arc::clone(&m.module))
        .chain(small.into_iter().map(Arc::new));
    let items: Vec<Item> = modules
        .map(|module| {
            let reference =
                compile_x64(&module, &CompileOptions::default()).expect("reference compile");
            Item { module, reference }
        })
        .collect();
    let cdf: Vec<f64> = (0..items.len())
        .scan(0.0, |acc, r| {
            *acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
            Some(*acc)
        })
        .collect();
    let norm = cdf[cdf.len() - 1];
    let draws = (0..DRAWS)
        .map(|_| {
            let u = rng.below(1 << 30) as f64 / (1u64 << 30) as f64 * norm;
            cdf.partition_point(|&c| c <= u).min(items.len() - 1) as u32
        })
        .collect::<Vec<u32>>();
    let spec_share =
        draws.iter().filter(|&&d| (d as usize) < n_spec).count() as f64 / draws.len() as f64;
    let t = Instant::now();
    let svc = service(dir);
    let tickets: Vec<_> = items.iter().map(|item| svc.submit(request(item))).collect();
    for (i, (item, ticket)) in items.iter().zip(tickets).enumerate() {
        let resp = ticket.wait();
        match &resp.module {
            Ok(m) => tally.check(buffers_equal(&m.buf, &item.reference.buf), || {
                format!("pre-warm of module {i}: bytes differ from the one-shot compile")
            }),
            Err(e) => tally.refused(|| format!("pre-warm of module {i}: {e}")),
        }
    }
    RepeatSetup {
        items,
        draws,
        prewarmed: svc.stats(),
        svc,
        dir: dir.to_path_buf(),
        budget_s,
        prewarm_s: t.elapsed().as_secs_f64(),
        spec_share,
    }
}

/// End-to-end and service-level results of the repeat phase, accumulated
/// over its slices.
#[derive(Default)]
pub struct RepeatOut {
    pub hit_us: Vec<f64>,
    pub restart_disk_us: Vec<f64>,
    /// Memory-cache hit ratio of the warm service since the pre-warm.
    pub hit_ratio: f64,
    warm_done: usize,
    warm_s: f64,
    disk_hits: u64,
    disk_reached: u64,
}

/// `n` clients replay `draws[c], draws[c + n], ...` (cycling) until
/// `deadline` or `limit` requests; returns the latency samples of the
/// requests `keep` selects, and the number of requests completed.
#[allow(clippy::too_many_arguments)]
fn clients(
    n: usize,
    svc: &LlvmCompileService,
    s: &RepeatSetup,
    deadline: Instant,
    limit: usize,
    span: &'static str,
    keep: fn(&tpde_core::timing::RequestTiming) -> bool,
    tracer: &Tracer,
    tally: &Tally,
) -> (Vec<f64>, usize) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n as u32)
            .map(|c| {
                scope.spawn(move || {
                    let mut log = tracer.log(30 + c);
                    let (mut lat, mut done) = (Vec::new(), 0);
                    let mut k = c as usize;
                    // At least one request per client, however short the budget.
                    while k < limit && (done == 0 || Instant::now() < deadline) {
                        let item = &s.items[s.draws[k % s.draws.len()] as usize];
                        let t = Instant::now();
                        let resp = log.span(span, k as u64, |_| svc.compile(request(item)));
                        let dt = us(t.elapsed());
                        match &resp.module {
                            Ok(m) => {
                                tally.check(buffers_equal(&m.buf, &item.reference.buf), || {
                                    format!(
                                        "repeat draw {k}: bytes differ from the one-shot compile"
                                    )
                                });
                                if keep(&resp.timing) {
                                    lat.push(dt);
                                }
                            }
                            Err(e) => tally.refused(|| format!("repeat draw {k}: {e}")),
                        }
                        done += 1;
                        k += n;
                    }
                    (lat, done)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut done = 0;
        for h in handles {
            let (lat, n) = h.join().expect("repeat client panicked");
            all.extend_from_slice(&lat);
            done += n;
        }
        (all, done)
    })
}

impl RepeatOut {
    /// Runs `1/n` of the phase: the warm clients for their share of it,
    /// then restarts until the slice's budget is spent.
    pub fn run_slice(&mut self, s: &RepeatSetup, n: usize, tracer: &Tracer, tally: &Tally) {
        let budget_s = s.budget_s / n as f64;
        let warm_s = budget_s * (1.0 - RESTART_SHARE);
        let start = Instant::now();
        let (hit_us, done) = clients(
            2,
            &s.svc,
            s,
            start + Duration::from_secs_f64(warm_s),
            usize::MAX,
            "repeat.request",
            |_| true,
            tracer,
            tally,
        );
        self.warm_s += start.elapsed().as_secs_f64();
        self.warm_done += done;
        self.hit_us.extend(hit_us);
        let (before, after) = (&s.prewarmed, s.svc.stats());
        let keyed =
            (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
        self.hit_ratio = (after.cache_hits - before.cache_hits) as f64 / keyed.max(1) as f64;

        let deadline = Instant::now() + Duration::from_secs_f64(budget_s - warm_s);
        loop {
            let svc = service(&s.dir);
            let (lat, _) = clients(
                1,
                &svc,
                s,
                deadline,
                REPLAY,
                "repeat.restart_request",
                |t| t.disk_hit,
                tracer,
                tally,
            );
            let st = svc.stats();
            self.disk_hits += st.disk_hits;
            self.disk_reached += st.disk_hits + st.disk_misses;
            self.restart_disk_us.extend(lat);
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    /// Warm requests per second over all slices.
    pub fn mps(&self) -> f64 {
        self.warm_done as f64 / self.warm_s
    }

    pub fn disk_hit_ratio(&self) -> f64 {
        self.disk_hits as f64 / self.disk_reached.max(1) as f64
    }

    pub fn hit_p50_us(&self) -> f64 {
        median(&mut self.hit_us.clone())
    }

    pub fn hit_p99_us(&self) -> f64 {
        percentile(&mut self.hit_us.clone(), 99.0)
    }

    pub fn restart_p50_us(&self) -> f64 {
        median(&mut self.restart_disk_us.clone())
    }
}

/// Per-layer costs of the hit path, measured by calling each layer
/// directly on the drawn modules: content hash, response clone, and the
/// disk tier's load and artifact size.
pub struct RepeatProbes {
    pub content_hash_us: f64,
    pub response_clone_us: f64,
    pub load_us_p50: f64,
    pub bytes_per_artifact: f64,
}

pub fn probes(s: &RepeatSetup, tracer: &Tracer, tally: &Tally) -> RepeatProbes {
    let mut log = tracer.log(40);
    let (mut hash_us, mut clone_us) = (Vec::new(), Vec::new());
    for (k, &d) in s.draws.iter().take(4096).enumerate() {
        let item = &s.items[d as usize];
        let t = Instant::now();
        let h = log.span("ir.content_hash", k as u64, |_| item.module.content_hash());
        hash_us.push(us(t.elapsed()));
        std::hint::black_box(h);
        let t = Instant::now();
        let c = log.span("service.response_clone", k as u64, |_| {
            item.reference.clone()
        });
        clone_us.push(us(t.elapsed()));
        std::hint::black_box(c);
    }
    let disk = DiskCache::open(DiskCacheConfig::new(&s.dir)).expect("repeat disk cache");
    let mut load_us = Vec::new();
    for (i, item) in s.items.iter().enumerate() {
        let key = LlvmServiceBackend
            .request_key(&ModuleRequest::new(
                Arc::clone(&item.module),
                ServiceBackendKind::TpdeX64,
            ))
            .expect("x64 requests are cacheable");
        let t = Instant::now();
        let m = log.span("diskcache.load", i as u64, |_| disk.load(key));
        load_us.push(us(t.elapsed()));
        let ok = m.is_some_and(|m| buffers_equal(&m.buf, &item.reference.buf));
        tally.check(ok, || {
            format!("load probe {i}: missing or different artifact")
        });
    }
    RepeatProbes {
        content_hash_us: median(&mut hash_us),
        response_clone_us: median(&mut clone_us),
        load_us_p50: median(&mut load_us),
        bytes_per_artifact: disk.total_bytes() as f64 / disk.artifact_count().max(1) as f64,
    }
}
