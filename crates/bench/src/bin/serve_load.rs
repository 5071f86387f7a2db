//! Deterministic open-loop load generator for the serving layer.
//!
//! Builds a voltage-tier ladder, starts a [`SparkXdService`] and drives
//! it through two phases of a seeded arrival trace:
//!
//! 1. **paced** — a Poisson arrival stream at ~60% of the offline batched
//!    capacity, for honest p50/p95/p99 queueing latency;
//! 2. **saturation** — the whole request set submitted as a burst, for
//!    peak serving throughput, compared against the offline
//!    [`BatchEvaluator`] on the same model.
//!
//! The serving path rides the same `run_batch` fast path as the offline
//! engine, so saturation throughput must stay within 20% of offline —
//! the binary exits non-zero when it does not (the CI sanity floor), and
//! appends a report row to `$GITHUB_STEP_SUMMARY` when running in
//! Actions.
//!
//! Usage: `cargo run --release -p sparkxd-bench --bin serve_load`
//!
//! | env | meaning | default |
//! |---|---|---|
//! | `SPARKXD_SERVE_SCALE` | `demo` or `n400` | `demo` |
//! | `SPARKXD_SERVE_REQUESTS` | requests per phase | 400 (demo) / 256 (n400) |
//! | `SPARKXD_SERVE_SEED` | trace + device seed | 42 |

use sparkxd_bench::{append_job_summary, telemetry_summary, TextTable};
use sparkxd_core::pipeline::{DatasetKind, PipelineConfig};
use sparkxd_core::{TierBuilder, TierSet};
use sparkxd_data::{Dataset, SynthDigits, SyntheticSource};
use sparkxd_serve::{
    arrival_trace, replay_open_loop, LoadSpec, MetricsSnapshot, RoutePolicy, ServiceConfig,
    SparkXdService,
};
use sparkxd_snn::engine::{busy_peak, env_usize_override, BatchEvaluator, DEFAULT_BATCH};
use sparkxd_snn::{DiehlCookNetwork, SnnConfig, WorkerPool};
use std::fmt::Display;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which model scale the soak runs at.
#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Demo,
    N400,
}

impl FromStr for Scale {
    type Err = &'static str;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw {
            "demo" => Ok(Scale::Demo),
            "n400" => Ok(Scale::N400),
            _ => Err("expected demo|n400"),
        }
    }
}

/// Reads knob `var`, `default` when unset. Anything unparsable is a hard
/// error (exit 2), unlike the engine knobs: a CI typo must fail the job,
/// not silently soak the wrong configuration under a green check.
fn strict_knob<T>(var: &str, default: T) -> T
where
    T: FromStr,
    T::Err: Display,
{
    match std::env::var(var) {
        Err(_) => default,
        Ok(raw) => raw.trim().parse().unwrap_or_else(|err| {
            eprintln!("serve_load: unparsable {var}={raw:?} ({err})");
            std::process::exit(2);
        }),
    }
}

impl Scale {
    fn label(self) -> &'static str {
        match self {
            Scale::Demo => "demo",
            Scale::N400 => "n400",
        }
    }
}

/// Builds the tier ladder for the chosen scale.
///
/// Demo runs the full flow (baseline + Algorithm 1) on a small network;
/// N400 trains briefly (the nightly recipe) and builds tiers around the
/// pre-trained model at the paper's typical `BER_th` of 1e-4 — this is a
/// serving soak, not an accuracy experiment.
fn build_tiers(scale: Scale, seed: u64) -> TierSet {
    match scale {
        Scale::Demo => {
            let config = PipelineConfig {
                neurons: 40,
                timesteps: 40,
                train_samples: 120,
                test_samples: 60,
                baseline_epochs: 2,
                ..PipelineConfig::small_demo(seed)
            };
            TierBuilder::new(config).build().expect("demo tier ladder")
        }
        Scale::N400 => {
            let config = PipelineConfig {
                train_samples: 48,
                test_samples: 32,
                timesteps: 50,
                ..PipelineConfig::paper_network(400, DatasetKind::Digits, seed)
            };
            let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(400).with_timesteps(50));
            net.train_epoch(&SynthDigits.generate(48, seed ^ 0xDA7A), 2);
            TierBuilder::new(config)
                .build_from_model(&net, 1e-4)
                .expect("n400 tier ladder")
        }
    }
}

/// Offline batched throughput (samples/sec, best of `reps`) of `tier`'s
/// model on `data` — the comparator the serving path must track.
fn offline_samples_per_sec(tiers: &TierSet, data: &Dataset, reps: usize) -> f64 {
    let params = &tiers.tiers[0].params;
    let eval = BatchEvaluator::from_env().with_batch(DEFAULT_BATCH);
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(eval.spike_counts(params, data, 0x0FF));
        best = best.min(t.elapsed().as_secs_f64());
    }
    data.len() as f64 / best
}

/// Runs one phase: fresh service, replay, drain, shutdown. Returns the
/// final snapshot and the completion throughput (completed / wall from
/// first submit to last response).
fn run_phase(
    tiers: &TierSet,
    config: ServiceConfig,
    data: &Dataset,
    spec: &LoadSpec,
) -> (MetricsSnapshot, f64) {
    let (service, responses) = SparkXdService::start(tiers.tiers.clone(), config);
    let t0 = Instant::now();
    let outcome = replay_open_loop(&service, data, arrival_trace(spec, data.len()).as_slice());
    let snapshot = service.shutdown();
    let wall = t0.elapsed();
    let drained = responses.iter().count() as u64;
    assert_eq!(drained, snapshot.completed, "every completion is delivered");
    assert_eq!(
        outcome.accepted, snapshot.completed,
        "admitted requests must all be answered"
    );
    let throughput = snapshot.completed as f64 / wall.as_secs_f64();
    (snapshot, throughput)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median dispatch-to-first-kernel latency (ns) of a 4-way fan-out: the
/// time from initiating the dispatch to the first *helper* thread (the
/// caller excluded — it enters its own share immediately in both modes)
/// beginning a job body. `use_pool: false` measures the pre-pool
/// behaviour — fresh `thread::scope` spawns per dispatch, the tax the
/// serve layer used to pay once per dispatched batch; `true` dispatches
/// onto the warm process-global [`WorkerPool`], where a dispatch is a
/// queue push + condvar wake. Job bodies sleep briefly so helpers get
/// scheduled (and observed) even on a single-core host.
fn dispatch_first_kernel_ns(use_pool: bool, reps: usize) -> u64 {
    let caller = std::thread::current().id();
    let mut samples = Vec::with_capacity(reps);
    // Warm-up dispatches: fault in the pool's threads (first pool use
    // spawns them — steady-state serving is what the number is for).
    for rep in 0..reps + 2 {
        let first = AtomicU64::new(u64::MAX);
        let t0 = Instant::now();
        let job = |_: usize| {
            if std::thread::current().id() != caller {
                let ns = t0.elapsed().as_nanos() as u64;
                first.fetch_min(ns, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        if use_pool {
            WorkerPool::global().run(4, 3, &job);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| job(0));
                }
                job(0);
            });
        }
        let observed = first.load(Ordering::Relaxed);
        if rep >= 2 && observed != u64::MAX {
            samples.push(observed);
        }
    }
    samples.sort_unstable();
    samples.get(samples.len() / 2).copied().unwrap_or(0)
}

fn main() {
    let scale = strict_knob("SPARKXD_SERVE_SCALE", Scale::Demo);
    let seed = strict_knob("SPARKXD_SERVE_SEED", 42u64);
    let requests = env_usize_override("SPARKXD_SERVE_REQUESTS").unwrap_or(match scale {
        Scale::Demo => 400,
        Scale::N400 => 256,
    });

    println!(
        "serve_load: scale {}, seed {seed}, {requests} requests/phase",
        scale.label()
    );
    let t0 = Instant::now();
    let tiers = build_tiers(scale, seed);
    println!(
        "tier ladder built in {:.1?} ({} tiers, {} skipped, BER_th {:.0e})",
        t0.elapsed(),
        tiers.tiers.len(),
        tiers.skipped.len(),
        tiers.ber_th
    );
    let mut tier_table = TextTable::new(vec![
        "tier".into(),
        "Vdd".into(),
        "device BER".into(),
        "est. accuracy".into(),
        "DRAM pass".into(),
        "pass latency".into(),
    ]);
    for (i, tier) in tiers.tiers.iter().enumerate() {
        tier_table.row(vec![
            format!("{i}"),
            format!("{:.3} V", tier.v_supply.0),
            format!("{:.1e}", tier.operating_ber),
            format!("{:.1}%", tier.accuracy_estimate * 100.0),
            format!("{:.4} mJ", tier.dram_pass_mj),
            format!("{:.1} us", tier.dram_pass_ns / 1e3),
        ]);
    }
    println!("{}", tier_table.render());

    let data = SynthDigits.generate(64, seed ^ 0x10AD);
    let offline = offline_samples_per_sec(&tiers, &data, 3);
    println!("offline batched comparator : {offline:8.1} samples/s");

    // Fan-out dispatch latency, before/after the persistent pool: fresh
    // scoped-thread spawns (the pre-pool engine, paid once per dispatched
    // batch) vs a queue push onto the warm worker pool.
    let spawn_ns = dispatch_first_kernel_ns(false, 25);
    let pool_ns = dispatch_first_kernel_ns(true, 25);
    let dispatch_gain = spawn_ns as f64 / (pool_ns.max(1)) as f64;
    println!(
        "dispatch-to-first-kernel   : scoped spawn {:8.1} us -> warm pool {:8.1} us ({:.1}x)",
        spawn_ns as f64 / 1e3,
        pool_ns as f64 / 1e3,
        dispatch_gain
    );

    let policy_mix = vec![
        RoutePolicy::AccuracyFloor(0.5),
        RoutePolicy::EnergyBudget(tiers.tiers[0].dram_pass_mj * 1.2),
        RoutePolicy::DeadlineSlack(tiers.tiers[tiers.tiers.len() - 1].dram_pass_ns),
        RoutePolicy::AccuracyFloor(0.0),
    ];
    let service_config = ServiceConfig::from_env()
        .with_max_wait(Duration::from_millis(2))
        .with_queue_bound(requests.max(1024))
        .with_spike_seed(seed ^ 0x5E7E);

    // Phase 1: paced at ~60% of offline capacity — queueing latency.
    let paced_spec = LoadSpec {
        requests,
        rate_per_sec: (offline * 0.6).max(1.0),
        seed: seed ^ 0xACE1,
        policy_mix: policy_mix.clone(),
    };
    let (paced, paced_rps) = run_phase(&tiers, service_config, &data, &paced_spec);
    println!(
        "paced    ({:7.1} req/s): p50 {:7.2} ms  p95 {:7.2} ms  p99 {:7.2} ms  ({} done, {} rejected)",
        paced_spec.rate_per_sec,
        ms(paced.p50_ns),
        ms(paced.p95_ns),
        ms(paced.p99_ns),
        paced.completed,
        paced.rejected
    );

    // Phase 2: saturation burst — peak completion throughput.
    let burst_spec = LoadSpec {
        requests,
        rate_per_sec: f64::INFINITY,
        seed: seed ^ 0xB57,
        policy_mix,
    };
    let (burst, burst_rps) = run_phase(&tiers, service_config, &data, &burst_spec);
    let ratio = burst_rps / offline.max(f64::MIN_POSITIVE);
    println!(
        "saturate ({paced_rps:7.1} paced): {burst_rps:8.1} samples/s  ({ratio:.2}x offline batched)"
    );

    let mut phase_table = TextTable::new(vec![
        "tier".into(),
        "paced hits".into(),
        "burst hits".into(),
        "burst batches".into(),
        "burst DRAM energy".into(),
    ]);
    for i in 0..tiers.tiers.len() {
        phase_table.row(vec![
            format!("{i} ({:.3} V)", tiers.tiers[i].v_supply.0),
            format!("{}", paced.per_tier[i].hits),
            format!("{}", burst.per_tier[i].hits),
            format!("{}", burst.per_tier[i].batches),
            format!("{:.4} mJ", burst.tier_energy_mj[i]),
        ]);
    }
    println!("{}", phase_table.render());
    println!(
        "burst DRAM energy/request  : {:.4} mJ (one pass amortised per chunk)",
        burst.energy_per_request_mj()
    );

    // Pool occupancy over the whole soak: peak concurrently-busy engine
    // workers and total pooled dispatches (the global pool serves both
    // phases plus the comparator, so these are run-wide numbers).
    let pool_peak = busy_peak();
    let pool_dispatches = WorkerPool::global().dispatches();
    println!(
        "pool occupancy             : busy peak {pool_peak} workers, {pool_dispatches} dispatches"
    );

    let per_tier_energy = tiers
        .tiers
        .iter()
        .enumerate()
        .map(|(i, t)| {
            format!(
                "{:.3}V: {} hits / {:.3} mJ",
                t.v_supply.0, burst.per_tier[i].hits, burst.tier_energy_mj[i]
            )
        })
        .collect::<Vec<_>>()
        .join(" · ");
    append_job_summary(&format!(
        "### Serving soak ({})\n\n\
         | metric | value |\n|---|---|\n\
         | paced p50 / p95 / p99 | {:.2} / {:.2} / {:.2} ms |\n\
         | saturation throughput | {burst_rps:.1} samples/s ({ratio:.2}x offline batched {offline:.1}) |\n\
         | dispatch-to-first-kernel | scoped spawn {:.1} us → warm pool {:.1} us ({dispatch_gain:.1}x) |\n\
         | per-tier energy (burst) | {per_tier_energy} |\n\
         | pool occupancy | busy peak {pool_peak} workers, {pool_dispatches} dispatches |\n\
         | rejected (paced / burst) | {} / {} |",
        scale.label(),
        ms(paced.p50_ns),
        ms(paced.p95_ns),
        ms(paced.p99_ns),
        spawn_ns as f64 / 1e3,
        pool_ns as f64 / 1e3,
        paced.rejected,
        burst.rejected,
    ));

    // Observation only (SPARKXD_TELEMETRY=counters|spans): routing and
    // engine counters for the soak, appended to the job summary too.
    if let Some(summary) = telemetry_summary() {
        println!("telemetry:\n{summary}");
        append_job_summary(&format!("\n```\n{summary}```\n"));
    }

    // Sanity floor last, so a tripped bound never discards the report the
    // diagnosis needs: serving rides the same run_batch fast path, so at
    // saturation it must stay within 20% of the offline batched engine.
    assert!(
        ratio >= 0.8,
        "serving throughput fell out of band: {burst_rps:.1} vs offline {offline:.1} ({ratio:.2}x < 0.8x)"
    );
    println!("serve_load check: OK");
}
