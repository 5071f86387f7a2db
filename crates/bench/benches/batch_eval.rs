//! Execution-engine throughput: the reference `run_sample` vs the batched
//! engine, serial vs parallel sharding, so the engine's speedups are
//! tracked in the bench trajectory alongside the per-component numbers.
//!
//! The `n400_*` group is the ROADMAP's hot-path acceptance check: the
//! batched path (`run_batch` summing precomputed effective-weight rows)
//! at B ∈ {1, 2, 4, 8} against the reference `run_sample` (re-applying
//! the synapse read rule to every stored weight on every access — exactly
//! the pre-split behaviour), all on one thread. Throughput is
//! reported as samples/sec via the group's `Throughput::Elements`.
//!
//! The `n3600_*` group is the paper-scale tiling + kernel + occupancy
//! check: at N3600 the `[B × n_neurons]` drive slab outgrows L1, so the
//! batched sweep is compared untiled (one `usize::MAX`-wide tile — the
//! pre-tiling behaviour) against the default cache-sized neuron tiles,
//! and the tiled sweep is additionally run once per compute kernel
//! (portable scalar vs AVX2, when the host has it) plus once with the
//! intra-chunk tile fan-out across pool workers, so the SIMD and
//! occupancy wins are tracked in the same trajectory. The serial rows
//! pin `IntraChoice::Off` so they stay serial even when a multi-core
//! runner's `auto` would claim helpers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sparkxd_data::{Dataset, SynthDigits, SyntheticSource};
use sparkxd_snn::engine::{sample_rng, BatchEvaluator, DEFAULT_BATCH, DEFAULT_TILE};
use sparkxd_snn::kernels::avx2_supported;
use sparkxd_snn::{
    DiehlCookNetwork, IntraChoice, KernelChoice, NetworkParams, RunState, SnnConfig,
};
use std::time::Duration;

/// Spike counts of every sample through the reference `run_sample`.
fn run_sample_counts(params: &NetworkParams, data: &Dataset, seed: u64) -> Vec<Vec<u32>> {
    let mut state = RunState::for_params(params);
    (0..data.len())
        .map(|i| {
            let mut rng = sample_rng(seed, i as u64);
            params
                .run_sample(&mut state, data.get(i).0.pixels(), &mut rng)
                .unwrap()
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    // Demo-scale evaluation workload: N100 x 100 samples x 50 timesteps,
    // trained so the weight image has realistic sparsity.
    let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(100).with_timesteps(50));
    let train = SynthDigits.generate(40, 1);
    net.train_epoch(&train, 2);
    let data = SynthDigits.generate(100, 3);
    let params = net.into_params();
    let labeler = BatchEvaluator::with_threads(1).label_neurons(&params, &data, 4);

    let mut g = c.benchmark_group("batch_eval");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .throughput(Throughput::Elements(data.len() as u64));

    g.bench_function("run_sample_serial_n100_s100", |b| {
        b.iter(|| run_sample_counts(&params, &data, 5))
    });

    g.bench_function(
        format!("evaluate_batched{DEFAULT_BATCH}_serial_n100_s100"),
        |b| {
            let eval = BatchEvaluator::with_threads(1).with_batch(DEFAULT_BATCH);
            b.iter(|| eval.evaluate(&params, &data, &labeler, 5))
        },
    );

    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    g.bench_function(
        format!("evaluate_batched{DEFAULT_BATCH}_parallel{hw}_n100_s100"),
        |b| {
            let eval = BatchEvaluator::with_threads(hw).with_batch(DEFAULT_BATCH);
            b.iter(|| eval.evaluate(&params, &data, &labeler, 5))
        },
    );
    g.finish();

    // Paper-scale read path: N400, single worker, run_sample vs batched, on a
    // (briefly) trained model — the image the pipeline actually evaluates.
    let mut net_n400 = DiehlCookNetwork::new(SnnConfig::for_neurons(400).with_timesteps(50));
    net_n400.train_epoch(&SynthDigits.generate(48, 1), 2);
    let params_n400 = net_n400.into_params();
    let data_n400 = SynthDigits.generate(48, 7);
    let mut g = c.benchmark_group("batch_eval_n400");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .throughput(Throughput::Elements(data_n400.len() as u64));

    g.bench_function("run_sample_serial_n400", |b| {
        b.iter(|| run_sample_counts(&params_n400, &data_n400, 9))
    });

    // The engine across batch sizes around `DEFAULT_BATCH`, so the
    // default's per-sample advantage over B = 1 stays measured.
    for batch in [1, 2, DEFAULT_BATCH, 8] {
        g.bench_function(format!("spike_counts_batched{batch}_serial_n400"), |b| {
            let eval = BatchEvaluator::with_threads(1).with_batch(batch);
            b.iter(|| eval.spike_counts(&params_n400, &data_n400, 9))
        });
    }
    g.finish();

    // Paper-scale drive tiling: N3600 batched, single worker, one giant
    // tile (the pre-tiling sweep) vs the default tile width.
    let mut net_n3600 = DiehlCookNetwork::new(SnnConfig::for_neurons(3600).with_timesteps(50));
    net_n3600.train_epoch(&SynthDigits.generate(24, 1), 2);
    let params_n3600 = net_n3600.into_params();
    let data_n3600 = SynthDigits.generate(16, 11);
    let mut g = c.benchmark_group("batch_eval_n3600");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(6))
        .throughput(Throughput::Elements(data_n3600.len() as u64));

    // The untiled/tiled pair stays pinned to the portable kernel so the
    // tiling win is measured on its own axis across hosts; the AVX2 row
    // (skipped off-x86_64/AVX2) isolates the SIMD win on top of tiling.
    g.bench_function(
        format!("spike_counts_untiled_batched{DEFAULT_BATCH}_serial_n3600"),
        |b| {
            let eval = BatchEvaluator::with_threads(1)
                .with_batch(DEFAULT_BATCH)
                .with_tile(usize::MAX)
                .with_kernel(KernelChoice::Scalar)
                .with_intra(IntraChoice::Off);
            b.iter(|| eval.spike_counts(&params_n3600, &data_n3600, 9))
        },
    );

    g.bench_function(
        format!("spike_counts_tiled{DEFAULT_TILE}_batched{DEFAULT_BATCH}_serial_n3600"),
        |b| {
            let eval = BatchEvaluator::with_threads(1)
                .with_batch(DEFAULT_BATCH)
                .with_tile(DEFAULT_TILE)
                .with_kernel(KernelChoice::Scalar)
                .with_intra(IntraChoice::Off);
            b.iter(|| eval.spike_counts(&params_n3600, &data_n3600, 9))
        },
    );

    if avx2_supported() {
        g.bench_function(
            format!("spike_counts_tiled{DEFAULT_TILE}_avx2_batched{DEFAULT_BATCH}_serial_n3600"),
            |b| {
                let eval = BatchEvaluator::with_threads(1)
                    .with_batch(DEFAULT_BATCH)
                    .with_tile(DEFAULT_TILE)
                    .with_kernel(KernelChoice::Avx2)
                    .with_intra(IntraChoice::Off);
                b.iter(|| eval.spike_counts(&params_n3600, &data_n3600, 9))
            },
        );
    }

    // Intra-chunk tile fan-out at min(4, host cores) pool workers,
    // pinned explicitly (an oversubscribed pin on a small host measures
    // the overhead floor, which is also worth tracking).
    let intra_workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    if intra_workers > 1 {
        g.bench_function(
            format!(
                "spike_counts_tiled{DEFAULT_TILE}_intra{intra_workers}_batched{DEFAULT_BATCH}_n3600"
            ),
            |b| {
                let eval = BatchEvaluator::with_threads(1)
                    .with_batch(DEFAULT_BATCH)
                    .with_tile(DEFAULT_TILE)
                    .with_kernel(KernelChoice::Scalar)
                    .with_intra(IntraChoice::Workers(intra_workers));
                b.iter(|| eval.spike_counts(&params_n3600, &data_n3600, 9))
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
