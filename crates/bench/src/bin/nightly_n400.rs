//! Nightly scale guard: one paper-scale (N400) pipeline end to end, an
//! engine-throughput measurement (reference `run_sample` vs batched read
//! path), and a drive-kernel scale sweep up to the paper's largest
//! network (N3600, reference vs untiled vs serial-tiled vs tiled+AVX2 vs
//! intra-parallel-tiled).
//!
//! The per-PR suite runs demo-sized networks; scale-dependent regressions
//! (mapping capacity at real column counts, accuracy collapse at N400,
//! runtime blow-ups, the drive slab falling out of cache at N3600) only
//! show at paper scale. The scheduled nightly workflow runs this binary;
//! it exits non-zero when a sanity bound or a perf gate is violated, and
//! every gate prints the numbers it compares. Throughput numbers are also
//! appended to the GitHub Actions job summary when `GITHUB_STEP_SUMMARY`
//! is set.
//!
//! Usage: `cargo run -p sparkxd-bench --release --bin nightly_n400`
//! (`SPARKXD_NIGHTLY_SEED` overrides the default device seed of 42).

use sparkxd_bench::{append_job_summary, telemetry_summary};
use sparkxd_core::energy_eval::EnergyEvaluation;
use sparkxd_core::mapping::{BaselineMapping, MappingPolicy};
use sparkxd_core::pipeline::{DatasetKind, PipelineConfig, SparkXdPipeline};
use sparkxd_core::trace_gen::columns_for_words;
use sparkxd_data::Dataset;
use sparkxd_data::{SynthDigits, SyntheticSource};
use sparkxd_dram::{DramConfig, DramModel};
use sparkxd_error::ErrorProfile;
use sparkxd_snn::engine::{busy_peak, sample_rng, BatchEvaluator, DEFAULT_BATCH, DEFAULT_TILE};
use sparkxd_snn::kernels::avx2_supported;
use sparkxd_snn::WeightPrecision;
use sparkxd_snn::{
    DiehlCookNetwork, IntraChoice, KernelChoice, NetworkParams, RunState, SnnConfig, WorkerPool,
};
use sparkxd_telemetry as telemetry;

/// Best wall time, in seconds, of each pass over `reps` rounds. The
/// passes are **interleaved** round-robin rather than measured back to
/// back: on a shared machine throughput drifts by tens of percent over
/// seconds, and sequential measurement folds that drift into whichever
/// pass ran last.
fn interleaved_best<T>(passes: &[T], reps: usize, run: impl Fn(&T)) -> Vec<f64> {
    let mut best = vec![f64::MAX; passes.len()];
    for _ in 0..reps.max(1) {
        for (slot, pass) in best.iter_mut().zip(passes) {
            let t = std::time::Instant::now();
            run(pass);
            *slot = slot.min(t.elapsed().as_secs_f64());
        }
    }
    best
}

/// One inference pass over `data`: through `eval`, or with `None` through
/// the reference `NetworkParams::run_sample` per image (portable kernel,
/// single thread).
fn inference_pass(eval: Option<BatchEvaluator>, params: &NetworkParams, data: &Dataset) {
    let Some(eval) = eval else {
        let mut state = RunState::for_params(params).with_kernel(KernelChoice::Scalar);
        for (i, (image, _)) in data.iter().enumerate() {
            let mut rng = sample_rng(0x7A, i as u64);
            std::hint::black_box(params.run_sample(&mut state, image.pixels(), &mut rng)).unwrap();
        }
        return;
    };
    std::hint::black_box(eval.spike_counts(params, data, 0x7A));
}

/// A briefly trained network of `n_neurons` and `samples` test images.
fn trained(n_neurons: usize, train: usize, samples: usize) -> (NetworkParams, Dataset) {
    let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(n_neurons).with_timesteps(50));
    net.train_epoch(&SynthDigits.generate(train, 1), 2);
    (net.into_params(), SynthDigits.generate(samples, 7))
}

/// Reference vs batched (and machine-parallel batched) inference
/// throughput on a briefly trained N400 model; returns
/// `(reference, batched, parallel)` in samples/sec.
fn measure_throughput() -> (f64, f64, f64) {
    let (params, data) = trained(400, 48, 64);
    let serial = BatchEvaluator::with_threads(1).with_batch(DEFAULT_BATCH);
    let parallel = BatchEvaluator::from_env().with_batch(DEFAULT_BATCH);
    let best = interleaved_best(&[None, Some(serial), Some(parallel)], 3, |&eval| {
        inference_pass(eval, &params, &data)
    });
    let sps = |secs: f64| data.len() as f64 / secs;
    (sps(best[0]), sps(best[1]), sps(best[2]))
}

/// One network size of the drive-kernel sweep, in samples/sec.
struct KernelRow {
    n_neurons: usize,
    /// `run_sample`, the reference read path.
    reference: f64,
    /// One `usize::MAX` tile, portable kernel.
    untiled: f64,
    /// Default tiles, portable kernel, one sweep job.
    tiled: f64,
    /// Tiled on the AVX2 kernel; `None` off AVX2 hosts.
    tiled_avx2: Option<f64>,
    /// Tiled with the intra-chunk split; `None` when not measured.
    tiled_intra: Option<f64>,
}

/// Measures every [`KernelRow`] configuration on a briefly trained
/// network of `n_neurons`. The engine rows pin `KernelChoice::Scalar`
/// *and* `IntraChoice::Off` (except the row each varies) so they stay
/// comparable across hosts regardless of what `auto` resolves to. Sample
/// counts shrink as the network grows so the sweep stays in budget.
fn measure_kernels(n_neurons: usize, samples: usize, intra_workers: usize) -> KernelRow {
    let (params, data) = trained(n_neurons, 24, samples);
    let tiled = BatchEvaluator::with_threads(1)
        .with_batch(DEFAULT_BATCH)
        .with_kernel(KernelChoice::Scalar)
        .with_intra(IntraChoice::Off);
    let untiled = tiled.with_tile(usize::MAX);
    let avx2 = tiled.with_kernel(KernelChoice::Avx2);
    let intra = tiled.with_intra(IntraChoice::Workers(intra_workers));
    let mut passes = vec![None, Some(untiled), Some(tiled)];
    if avx2_supported() {
        passes.push(Some(avx2));
    }
    if intra_workers > 1 {
        passes.push(Some(intra));
    }
    let mut sps = interleaved_best(&passes, 4, |&eval| inference_pass(eval, &params, &data))
        .into_iter()
        .map(|secs| data.len() as f64 / secs);
    KernelRow {
        n_neurons,
        reference: sps.next().unwrap(),
        untiled: sps.next().unwrap(),
        tiled: sps.next().unwrap(),
        tiled_avx2: avx2_supported().then(|| sps.next().unwrap()),
        tiled_intra: (intra_workers > 1).then(|| sps.next().unwrap()),
    }
}

/// Measures DRAM trace replay throughput (accesses/sec, best of `reps`)
/// on the N400 weight-image trace: per-access reference path vs the
/// compressed batch path. Returns `(per_access, compressed)`.
fn measure_replay_throughput(reps: usize) -> (f64, f64) {
    let config = DramConfig::lpddr3_1600_4gb();
    let flat = ErrorProfile::uniform(0.0, config.geometry.total_subarrays());
    let n_columns = columns_for_words(784 * 400, config.geometry.col_bytes, WeightPrecision::Fp32);
    let mapping = BaselineMapping
        .map(n_columns, &config.geometry, &flat, f64::MAX)
        .expect("device holds the N400 image");
    let compressed = mapping.read_trace();
    let expanded = compressed.expand();
    let accesses = expanded.len() as f64;

    let mut best_per_access = f64::MAX;
    let mut best_compressed = f64::MAX;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        std::hint::black_box(DramModel::new(config.clone()).replay(&expanded).stats);
        best_per_access = best_per_access.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        std::hint::black_box(
            DramModel::new(config.clone())
                .replay_compressed(&compressed)
                .stats,
        );
        best_compressed = best_compressed.min(t.elapsed().as_secs_f64());
    }
    (accesses / best_per_access, accesses / best_compressed)
}

/// One N400 weight-image pass at one storage format.
struct PrecisionPass {
    precision: WeightPrecision,
    columns: usize,
    trace_ops: usize,
    pass_mj: f64,
    pass_ns: f64,
}

/// One N400 weight-image pass per storage format on the accurate-DRAM
/// baseline mapping: columns, compressed-trace ops and replay-priced
/// energy/latency. Deterministic (no timing) — this sweep measures
/// *traffic*, the kernel sweeps above measure speed.
fn measure_precision_sweep() -> Vec<PrecisionPass> {
    let config = DramConfig::lpddr3_1600_4gb();
    let flat = ErrorProfile::uniform(0.0, config.geometry.total_subarrays());
    [
        WeightPrecision::Fp32,
        WeightPrecision::Int16,
        WeightPrecision::Int8,
    ]
    .into_iter()
    .map(|precision| {
        let columns = columns_for_words(784 * 400, config.geometry.col_bytes, precision);
        let mapping = BaselineMapping
            .map(columns, &config.geometry, &flat, f64::MAX)
            .expect("device holds the packed N400 image")
            .with_precision(precision);
        let energy = EnergyEvaluation::evaluate(&config, &mapping);
        PrecisionPass {
            precision,
            columns,
            trace_ops: mapping.read_trace().num_ops(),
            pass_mj: energy.total_mj(),
            pass_ns: energy.runtime_ns(),
        }
    })
    .collect()
}

/// Measures the cost of the telemetry instrumentation on the serial
/// tiled N3600 sweep: spans mode (every counter, gauge, histogram and
/// span live) against off mode (one relaxed atomic load per site),
/// interleaved like the kernel sweep. Returns `(off, spans)` samples/sec.
fn measure_telemetry_overhead(samples: usize, reps: usize) -> (f64, f64) {
    let (params, data) = trained(3600, 24, samples);
    let eval = BatchEvaluator::with_threads(1)
        .with_batch(DEFAULT_BATCH)
        .with_kernel(KernelChoice::Scalar)
        .with_intra(IntraChoice::Off);
    let modes = [telemetry::Mode::Off, telemetry::Mode::Spans];
    let best = interleaved_best(&modes, reps, |&mode| {
        telemetry::set_mode(mode);
        inference_pass(Some(eval), &params, &data);
        // Drain the span-event buffer between passes so repeated
        // spans-mode passes never hit the bounded-buffer overflow.
        telemetry::reset();
    });
    telemetry::set_mode(telemetry::Mode::Off);
    (data.len() as f64 / best[0], data.len() as f64 / best[1])
}

/// Fails the run unless `ratio >= floor`, printing both either way.
fn gate(what: &str, ratio: f64, floor: f64) {
    println!("gate {what}: {ratio:.3}x (floor {floor}x)");
    assert!(ratio >= floor, "{what}: {ratio:.3}x is below {floor}x");
}

fn main() {
    let seed = std::env::var("SPARKXD_NIGHTLY_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(42);
    let config = PipelineConfig::paper_network(400, DatasetKind::Digits, seed);
    println!(
        "nightly N400 pipeline: {} train / {} test samples, {} timesteps, device seed {seed}",
        config.train_samples, config.test_samples, config.timesteps
    );
    // Spans on for the pipeline leg: the nightly uploads a Chrome trace
    // of the full N400 run (all seven stage spans plus the pool and DRAM
    // replay spans beneath them). Observation only — and switched off
    // again below before anything the perf gates time.
    telemetry::set_mode(telemetry::Mode::Spans);
    let t0 = std::time::Instant::now();
    let outcome = SparkXdPipeline::new(config)
        .run()
        .expect("N400 pipeline must complete");
    println!(
        "baseline accuracy        : {:.2}%",
        outcome.baseline_accuracy * 100.0
    );
    println!(
        "improved clean accuracy  : {:.2}%",
        outcome.improved_clean_accuracy * 100.0
    );
    println!(
        "accuracy @ operating pt  : {:.2}%",
        outcome.accuracy_at_operating_point * 100.0
    );
    println!(
        "max tolerable BER        : {:.1e} (target met: {})",
        outcome.max_tolerable_ber, outcome.target_met
    );
    println!(
        "operating point          : {:.3} V @ BER {:.1e}",
        outcome.operating_voltage.0, outcome.operating_ber
    );
    let saving = outcome.energy.saving_fraction_vs_baseline();
    println!("DRAM energy saving       : {:.1}%", saving * 100.0);
    println!(
        "throughput speed-up      : {:.3}x",
        outcome.energy.speedup()
    );
    let pipeline_wall = t0.elapsed();
    println!("wall time                : {pipeline_wall:.1?}");

    // Dump the pipeline leg's spans: a chrome://tracing-loadable file
    // (uploaded as a nightly artifact) plus the summary table.
    const TRACE_PATH: &str = "NIGHTLY_N400_trace.json";
    match telemetry::write_chrome_trace(std::path::Path::new(TRACE_PATH)) {
        Ok(n) => println!("wrote {TRACE_PATH} ({n} span events)"),
        Err(e) => eprintln!("warning: could not write {TRACE_PATH}: {e}"),
    }
    if let Some(summary) = telemetry_summary() {
        println!("telemetry (pipeline leg):\n{summary}");
        append_job_summary(&format!(
            "### Telemetry (N400 pipeline, spans mode)\n\n```\n{summary}```\n\
             Chrome trace: `NIGHTLY_N400_trace.json` artifact.\n"
        ));
    }
    // Telemetry off (and drained) for everything the perf gates time, so
    // the throughput numbers stay comparable night to night and with the
    // pre-telemetry history.
    telemetry::set_mode(telemetry::Mode::Off);
    telemetry::reset();

    // Sanity bounds that demo scale cannot check.
    assert!(
        outcome.mapping.columns == 784 * 400 / 4,
        "N400 weight image must need {} columns, mapped {}",
        784 * 400 / 4,
        outcome.mapping.columns
    );
    assert_eq!(outcome.mapping.policy, "sparkxd");
    assert!(
        outcome.baseline_accuracy > 0.2,
        "N400 baseline accuracy collapsed: {}",
        outcome.baseline_accuracy
    );
    assert!(
        (0.05..0.60).contains(&saving),
        "energy saving {saving} left the plausible band"
    );
    assert!(
        outcome.energy.speedup() > 0.9,
        "throughput regressed: {}",
        outcome.energy.speedup()
    );

    // Engine throughput: the reference `run_sample` vs the batched
    // engine (B = DEFAULT_BATCH), single worker, plus the machine-parallel
    // batched figure.
    let (reference, batched, parallel) = measure_throughput();
    let ratio = batched / reference.max(f64::MIN_POSITIVE);
    println!("inference throughput (N400, samples/sec):");
    println!("  run_sample (1 thread)             : {reference:8.1}");
    println!(
        "  batched  (1 thread, B={DEFAULT_BATCH})          : {batched:8.1}  ({ratio:.2}x run_sample)"
    );
    println!("  batched  (machine threads, B={DEFAULT_BATCH})   : {parallel:8.1}");

    // Drive-kernel scale sweep from the pipeline's N400 up to the paper's
    // largest network. At N3600 the [B × n] membrane slabs are far out of
    // L1; the tiled sweep keeps each [B × tile] drive strip L1-resident,
    // the AVX2 kernel rides the same tiles with 8-lane bodies, and the
    // intra split fans the tiles of each timestep out across pool workers
    // (all bit-identical by construction). The intra row runs at
    // min(4, host cores) workers, pinned explicitly, and is skipped only
    // on single-core hosts where a 1-worker pin IS the serial sweep.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let intra_workers = host_cores.min(4);
    let sweep: Vec<KernelRow> = [(400usize, 64usize), (1600, 32), (3600, 16)]
        .into_iter()
        .map(|(n, samples)| measure_kernels(n, samples, intra_workers))
        .collect();
    let cell = |v: Option<f64>| v.map_or("n/a".into(), |v| format!("{v:.1}"));
    let sweep_rows: String = sweep
        .iter()
        .map(|r| {
            format!(
                "| N{} | {:.1} | {:.1} | {:.1} | {} | {} |\n",
                r.n_neurons,
                r.reference,
                r.untiled,
                r.tiled,
                cell(r.tiled_avx2),
                cell(r.tiled_intra),
            )
        })
        .collect();
    let sweep_table = format!(
        "| network | run_sample | untiled | tiled | tiled+avx2 | tiled+intra |\n\
         |---|---|---|---|---|---|\n{sweep_rows}"
    );
    println!(
        "drive kernels (1 thread, B={DEFAULT_BATCH}, tile {DEFAULT_TILE}, \
         intra {intra_workers} workers, samples/sec):\n{sweep_table}"
    );

    // DRAM replay throughput: per-access reference vs compressed batch
    // path on the 78,400-column N400 weight-image trace.
    let (replay_per_access, replay_compressed) = measure_replay_throughput(3);
    let replay_ratio = replay_compressed / replay_per_access.max(f64::MIN_POSITIVE);
    println!("DRAM replay throughput (N400 trace, accesses/sec):");
    println!("  per-access                        : {replay_per_access:12.0}");
    println!(
        "  compressed                        : {replay_compressed:12.0}  ({replay_ratio:.1}x per-access)"
    );

    // Storage-precision sweep: the packed int8/int16 N400 images against
    // the FP32 image, on the accurate-DRAM baseline mapping.
    let precisions = measure_precision_sweep();
    println!("storage precision sweep (N400 image pass, accurate DRAM):");
    for row in &precisions {
        println!(
            "  {:<6} {:>9} bytes  {:>6} columns  {:>5} trace ops  {:.4} mJ  {:.0} ns",
            row.precision.label(),
            784 * 400 * row.precision.bytes_per_word(),
            row.columns,
            row.trace_ops,
            row.pass_mj,
            row.pass_ns
        );
    }

    // Telemetry overhead: spans-mode instrumentation sits only at coarse
    // seams (per run_batch call, per replay — never per timestep), so the
    // serial tiled N3600 sweep must keep essentially all of its
    // telemetry-off throughput.
    let (telem_off, telem_spans) = measure_telemetry_overhead(16, 4);
    let telem_ratio = telem_spans / telem_off.max(f64::MIN_POSITIVE);
    println!("telemetry overhead (N3600 serial tiled, samples/sec):");
    println!("  telemetry off                     : {telem_off:8.1}");
    println!("  telemetry spans                   : {telem_spans:8.1}  ({telem_ratio:.3}x off)");

    // Pool occupancy across every leg above (the global pool serves the
    // pipeline, the machine-parallel throughput row and the intra sweep).
    let pool_peak = busy_peak();
    let pool_dispatches = WorkerPool::global().dispatches();
    println!(
        "pool occupancy             : busy peak {pool_peak} workers, {pool_dispatches} dispatches"
    );

    append_job_summary(&format!(
        "### Nightly N400\n\n\
         | metric | value |\n|---|---|\n\
         | baseline accuracy | {:.2}% |\n\
         | accuracy @ operating point | {:.2}% |\n\
         | DRAM energy saving | {:.1}% |\n\
         | wall time (pipeline) | {:.1?} |\n\
         | run_sample throughput (1 thread) | {reference:.1} samples/s |\n\
         | batched throughput (1 thread, B={DEFAULT_BATCH}) | {batched:.1} samples/s ({ratio:.2}x run_sample) |\n\
         | batched throughput (machine threads, B={DEFAULT_BATCH}) | {parallel:.1} samples/s |\n\
         | DRAM replay, per-access | {replay_per_access:.0} accesses/s |\n\
         | DRAM replay, compressed | {replay_compressed:.0} accesses/s ({replay_ratio:.1}x per-access) |\n\
         | telemetry overhead (spans, N3600 tiled) | {telem_ratio:.3}x off |\n\
         | pool occupancy | busy peak {pool_peak} workers, {pool_dispatches} dispatches |\n\n\
         ### Drive kernels (1 thread, B={DEFAULT_BATCH}, tile {DEFAULT_TILE}, \
         intra {intra_workers} workers, samples/s)\n\n{sweep_table}",
        outcome.baseline_accuracy * 100.0,
        outcome.accuracy_at_operating_point * 100.0,
        saving * 100.0,
        pipeline_wall,
    ));

    // Perf gates last, so a tripped bound never discards the summary the
    // diagnosis needs.
    gate("compressed replay vs per-access", replay_ratio, 2.0);
    // Packed-image traffic: the int8 N400 image must replay in at most
    // 0.3x the FP32 trace's op count (quarter the columns, with
    // row-activation overhead bounded) and cost proportionally less.
    let (fp32, int8) = (&precisions[0], &precisions[2]);
    let ops_ratio = int8.trace_ops as f64 / fp32.trace_ops as f64;
    let energy_ratio = int8.pass_mj / fp32.pass_mj;
    println!("gate int8 vs fp32 N400 pass: ops {ops_ratio:.3}x, energy {energy_ratio:.3}x (ceiling 0.3x)");
    assert!(ops_ratio <= 0.3, "int8 replay ops {ops_ratio:.3}x fp32");
    assert!(
        energy_ratio < 0.3,
        "int8 pass energy {energy_ratio:.3}x fp32"
    );
    // N3600 floors. The batched tiled path sustains ~1.5-1.6x the
    // run_sample reference on the reference container (interleaved
    // best-of-4); 1.35x leaves margin for runner noise while still
    // catching a real regression. Tiling itself is a wash against the
    // untiled sweep on large-L2 parts and only pays on L1-constrained
    // cores, so it gets a no-catastrophic-regression floor.
    let n3600 = sweep.last().expect("sweep covers N3600");
    gate(
        "tiled vs run_sample at N3600",
        n3600.tiled / n3600.reference,
        1.35,
    );
    gate(
        "tiled vs untiled at N3600",
        n3600.tiled / n3600.untiled,
        0.8,
    );
    // AVX2 over the portable kernel: ~1.15-1.26x on the reference
    // container; 1.10x still catches the SIMD path losing its advantage.
    match n3600.tiled_avx2 {
        Some(avx2) => gate("AVX2 vs portable at N3600", avx2 / n3600.tiled, 1.10),
        None => println!("AVX2 gate skipped: host reports no AVX2"),
    }
    // Intra split over one job: at 4 workers the per-timestep tile
    // fan-out must clearly beat the serial sweep (1.4x of the ideal 4x,
    // leaving room for the barrier and the serial commit/inhibition
    // tail). An oversubscribed pin measures context switching, not
    // occupancy, so the gate needs 4 real cores.
    match n3600.tiled_intra {
        Some(intra) if intra_workers >= 4 => {
            gate("intra vs one job at N3600", intra / n3600.tiled, 1.4)
        }
        Some(intra) => println!(
            "intra gate skipped: host has {host_cores} cores, need 4 \
             (measured {:.2}x at {intra_workers} workers)",
            intra / n3600.tiled
        ),
        None => println!("intra gate skipped: single-core host"),
    }
    gate("telemetry spans vs off at N3600", telem_ratio, 0.97);
    println!("nightly N400-N3600 check: OK");
}
