//! Training's encode-ahead feed on two configured workers, where a pool
//! helper is free to encode while the caller trains: `train_epoch_with`
//! against the serial order, and panics on either side that must
//! propagate instead of hanging the pool latch.
//!
//! Every test pins `SPARKXD_THREADS=2` (the same value, so concurrent
//! tests in this binary cannot disturb each other) and runs under a
//! watchdog, so a hang fails the test instead of stalling the suite.

use sparkxd_data::{Dataset, SynthDigits, SyntheticSource};
use sparkxd_snn::{DiehlCookNetwork, SnnConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// Runs `body` on two configured workers, failing if it does not finish
/// within a minute.
fn on_two_threads<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    std::env::set_var("SPARKXD_THREADS", "2");
    let (done, wait) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(body());
    });
    wait.recv_timeout(Duration::from_secs(60))
        .expect("finished without hanging")
}

fn net() -> DiehlCookNetwork {
    DiehlCookNetwork::new(SnnConfig::for_neurons(30).with_timesteps(20))
}

fn data() -> Dataset {
    SynthDigits.generate(70, 2)
}

#[test]
fn train_epoch_with_equals_train_epoch_then_side() {
    let (serial, with_side) = on_two_threads(|| {
        let (train, test) = (data(), SynthDigits.generate(20, 3));
        let mut first = net();
        first.train_epoch(&train, 5);
        let snapshot = first.clone();
        let side = || snapshot.evaluate(&test, &snapshot.label_neurons(&train, 6), 7);

        let mut serial = first.clone();
        let spikes = serial.train_epoch(&train, 9);
        let accuracy = side();

        let mut overlapped = first;
        let (spikes_with, accuracy_with) = overlapped.train_epoch_with(&train, 9, side);
        (
            (serial, spikes, accuracy),
            (overlapped, spikes_with, accuracy_with),
        )
    });
    assert_eq!(serial.1, with_side.1, "spike totals");
    assert_eq!(serial.2.to_bits(), with_side.2.to_bits(), "side result");
    assert_eq!(serial.0, with_side.0, "trained networks");
}

#[test]
fn an_image_size_mismatch_panics_instead_of_hanging() {
    let message = on_two_threads(|| {
        let mut config = SnnConfig::for_neurons(10).with_timesteps(10);
        config.n_inputs = 100;
        let mut mismatched = DiehlCookNetwork::new(config);
        let err = catch_unwind(AssertUnwindSafe(|| mismatched.train_epoch(&data(), 1)))
            .expect_err("a 784-pixel image does not fit 100 inputs");
        // The pool is released: a well-formed epoch still trains.
        net().train_epoch(&data(), 1);
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    });
    assert!(message.contains("input size"), "{message}");
}

#[test]
fn a_panic_in_side_propagates_after_training() {
    let trained = on_two_threads(|| {
        let mut trained = net();
        let before = trained.clone();
        let err = catch_unwind(AssertUnwindSafe(|| {
            trained.train_epoch_with(&data(), 1, || -> u32 { panic!("side failed") })
        }));
        assert!(err.is_err(), "the side's panic reaches the caller");
        trained != before
    });
    assert!(trained, "training ran to the end before the panic surfaced");
}
