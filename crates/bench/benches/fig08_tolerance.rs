//! Criterion bench for Fig. 8: one tolerance-curve measurement (micro net).
use criterion::{criterion_group, criterion_main, Criterion};
use sparkxd_core::tolerance::analyze_tolerance;
use sparkxd_data::{SynthDigits, SyntheticSource};
use sparkxd_error::ErrorModel;
use sparkxd_snn::{DiehlCookNetwork, SnnConfig, WeightPrecision};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig08_tolerance");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let train = SynthDigits.generate(30, 1);
    let test = SynthDigits.generate(10, 2);
    let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(20).with_timesteps(20));
    net.train_epoch(&train, 3);
    let labeler = net.label_neurons(&train, 4);
    g.bench_function("tolerance_curve_micro", |b| {
        b.iter(|| {
            analyze_tolerance(
                &mut net,
                &labeler,
                &test,
                &[1e-5, 1e-3],
                ErrorModel::Model0,
                1,
                7,
                WeightPrecision::Fp32,
            )
            .points()
            .len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
