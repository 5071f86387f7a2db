//! Encode-ahead for STDP training: Poisson-encodes an epoch's samples on
//! a pool helper while the calling thread trains.
//!
//! A sample's spike train depends only on its pixels and on the epoch RNG,
//! which the samples draw from in dataset order. So encoding can run ahead
//! of training as long as *one* party at a time advances that RNG, in
//! order — which is what the encoder cursor guarantees:
//!
//! * The cursor (epoch RNG, next sample index, plan scratch) sits behind a
//!   lock. Whoever holds it encodes the next sample; it is never skipped
//!   or reordered, so every spike train is bit-identical to encoding the
//!   epoch serially.
//! * The producer ([`Feed::produce`], run on one pool helper) encodes into
//!   a bounded ring of [`SpikeTrain`] slots and parks when the ring is
//!   full. The slots are allocated by [`Feed::new`] on the caller.
//! * The trainer ([`Feed::take`]) swaps a ready slot's buffers with its
//!   own. When its sample is not ready and the cursor is free, it encodes
//!   the sample itself, so a single configured thread, a busy helper or a
//!   helper that has not woken yet never stalls training.
//! * [`Feed::close`] (through the trainer's [`CloseOnDrop`] guard, which
//!   also runs on unwind) makes the producer exit, so the pool latch is
//!   always released.

use crate::coding::PoissonEncoder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkxd_data::Dataset;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

/// Samples the ring holds ahead of the trainer. Encoding a sample costs
/// well under training one, so a short ring keeps the producer ahead; it
/// also keeps the per-epoch allocation small. A 32-deep ring (≈ 0.45 MB
/// per epoch at N400) made the pipeline's peak RSS vary by up to 5 MB
/// from run to run through heap fragmentation; 8 deep it does not.
const DEPTH: usize = 8;

/// Active-entry capacity reserved per timestep in each slot, so the
/// buffers rarely grow after the caller allocates them.
const ENTRIES_PER_STEP: usize = 32;

/// One sample's encoded spike train: timestep `t`'s active input lines
/// are `active[steps[t]..steps[t + 1]]`, in ascending order.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SpikeTrain {
    steps: Vec<usize>,
    active: Vec<u32>,
}

impl SpikeTrain {
    fn with_capacity(timesteps: usize) -> Self {
        Self {
            steps: Vec::with_capacity(timesteps + 1),
            active: Vec::with_capacity(timesteps * ENTRIES_PER_STEP),
        }
    }

    /// The input lines active at timestep `t`.
    #[inline]
    pub(crate) fn step(&self, t: usize) -> &[u32] {
        &self.active[self.steps[t]..self.steps[t + 1]]
    }

    /// Encodes `timesteps` steps of `pixels`, drawing from `rng` exactly
    /// as [`PoissonEncoder::encode_planned_step`] would step by step.
    pub(crate) fn encode(
        &mut self,
        encoder: &PoissonEncoder,
        pixels: &[f32],
        timesteps: usize,
        rng: &mut StdRng,
        plan: &mut Vec<(u32, u32)>,
    ) {
        encoder.plan(pixels, plan);
        self.steps.clear();
        self.active.clear();
        self.steps.push(0);
        for _ in 0..timesteps {
            encoder.encode_planned_append(plan, rng, &mut self.active);
            self.steps.push(self.active.len());
        }
    }
}

/// The encoder cursor: the epoch RNG, the next sample to encode, and the
/// plan scratch. Holding its lock is the right to encode.
struct Cursor {
    rng: StdRng,
    next: usize,
    plan: Vec<(u32, u32)>,
}

/// One epoch's encode-ahead feed. Shared by reference between the trainer
/// (the caller) and the producer (one pool helper).
pub(crate) struct Feed<'a> {
    dataset: &'a Dataset,
    encoder: PoissonEncoder,
    timesteps: usize,
    slots: Vec<Mutex<SpikeTrain>>,
    cursor: Mutex<Cursor>,
    /// Samples encoded so far (a prefix of the dataset). Stored with
    /// `Release` after the sample's slot is written, loaded with `Acquire`
    /// before the trainer reads the slot.
    encoded: AtomicUsize,
    /// Samples the trainer has taken so far; slot `k % depth` is free for
    /// sample `k` once `consumed > k - depth`. `SeqCst`, like `wake_at`
    /// and `closed`, for the parking handshake (see `park`).
    consumed: AtomicUsize,
    /// Set once the trainer stops; the producer then exits.
    closed: AtomicBool,
    /// While the producer is parked: the `consumed` count that wakes it
    /// (half the ring free). `usize::MAX` otherwise.
    wake_at: AtomicUsize,
    gate: Mutex<()>,
    space: Condvar,
}

impl<'a> Feed<'a> {
    /// A feed over `dataset` whose epoch RNG is seeded by `seed`. Allocates
    /// the ring on the calling thread.
    pub(crate) fn new(
        dataset: &'a Dataset,
        encoder: PoissonEncoder,
        timesteps: usize,
        seed: u64,
    ) -> Self {
        let depth = DEPTH.min(dataset.len()).max(1);
        Self {
            dataset,
            encoder,
            timesteps,
            slots: (0..depth)
                .map(|_| Mutex::new(SpikeTrain::with_capacity(timesteps)))
                .collect(),
            cursor: Mutex::new(Cursor {
                rng: StdRng::seed_from_u64(seed),
                next: 0,
                plan: Vec::new(),
            }),
            encoded: AtomicUsize::new(0),
            consumed: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            wake_at: AtomicUsize::new(usize::MAX),
            gate: Mutex::new(()),
            space: Condvar::new(),
        }
    }

    /// The dataset the feed encodes.
    pub(crate) fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// A spike-train buffer sized like the ring's slots, for the trainer.
    pub(crate) fn train_buffer(&self) -> SpikeTrain {
        SpikeTrain::with_capacity(self.timesteps)
    }

    /// Moves sample `k`'s spike train into `train` (whose old buffers go
    /// back to the ring). Samples must be taken in order, from one thread.
    /// Returns `true` when the trainer encoded the sample itself.
    ///
    /// # Panics
    ///
    /// Panics if an encoder panicked while holding the cursor.
    pub(crate) fn take(&self, k: usize, train: &mut SpikeTrain) -> bool {
        let mut spins = 0u32;
        loop {
            if self.encoded.load(Ordering::Acquire) > k {
                let mut slot = self.slots[k % self.slots.len()]
                    .lock()
                    .expect("spike-train slot");
                std::mem::swap(train, &mut slot);
                drop(slot);
                self.release(k + 1);
                return false;
            }
            match self.cursor.try_lock() {
                Ok(mut cursor) => {
                    debug_assert!(cursor.next >= k, "samples are taken in order");
                    if cursor.next == k {
                        self.encode_next(&mut cursor, train);
                        drop(cursor);
                        self.release(k + 1);
                        return true;
                    }
                    // The producer published sample k before letting go.
                }
                Err(TryLockError::WouldBlock) => {
                    // The producer is encoding: the sample is moments away.
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                Err(TryLockError::Poisoned(_)) => panic!("spike encoder panicked"),
            }
        }
    }

    /// The producer: encodes samples into the ring until the epoch is
    /// fully encoded or the feed is closed, parking while the ring is
    /// full. Runs on a pool helper; returns at once if the feed is
    /// already closed.
    pub(crate) fn produce(&self) {
        let depth = self.slots.len();
        while !self.closed.load(Ordering::SeqCst) {
            // A poisoned cursor means the trainer panicked mid-encode.
            let Ok(mut cursor) = self.cursor.lock() else {
                return;
            };
            let k = cursor.next;
            if k >= self.dataset.len() {
                return;
            }
            if k >= self.consumed.load(Ordering::SeqCst) + depth {
                drop(cursor);
                self.park(k - depth / 2);
                continue;
            }
            let mut slot = self.slots[k % depth].lock().expect("spike-train slot");
            self.encode_next(&mut cursor, &mut slot);
        }
    }

    /// Closes the feed: the producer stops at its next check and a parked
    /// producer wakes.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _gate = self.gate();
        self.space.notify_all();
    }

    /// The parking gate. It guards no data, only the check-then-wait
    /// against a notify, so a poisoned gate is as good as a healthy one
    /// (and closing from `Drop` never panics).
    fn gate(&self) -> MutexGuard<'_, ()> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Encodes the cursor's next sample into `train` and publishes it.
    fn encode_next(&self, cursor: &mut Cursor, train: &mut SpikeTrain) {
        let Cursor { rng, next, plan } = cursor;
        let (image, _) = self.dataset.get(*next);
        train.encode(&self.encoder, image.pixels(), self.timesteps, rng, plan);
        *next += 1;
        self.encoded.store(*next, Ordering::Release);
    }

    /// Records that the trainer has taken `consumed` samples, waking a
    /// parked producer once enough of the ring is free.
    fn release(&self, consumed: usize) {
        self.consumed.store(consumed, Ordering::SeqCst);
        if consumed >= self.wake_at.load(Ordering::SeqCst) {
            let _gate = self.gate();
            self.space.notify_one();
        }
    }

    /// Parks the producer until the trainer has taken `wake_at` samples
    /// or the feed closes. `wake_at` is published before `consumed` is
    /// re-read (both sequentially consistent, mirrored in `release`), so
    /// a wakeup cannot be lost.
    fn park(&self, wake_at: usize) {
        let mut gate = self.gate();
        self.wake_at.store(wake_at, Ordering::SeqCst);
        while !self.closed.load(Ordering::SeqCst) && self.consumed.load(Ordering::SeqCst) < wake_at
        {
            gate = self
                .space
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.wake_at.store(usize::MAX, Ordering::SeqCst);
    }
}

/// Closes a [`Feed`] when dropped, including on unwind, so the producer
/// always exits.
pub(crate) struct CloseOnDrop<'f, 'a>(pub(crate) &'f Feed<'a>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkxd_data::{SynthDigits, SyntheticSource};

    /// The spike trains of a serial epoch: one RNG threaded in order.
    fn serial_trains(data: &Dataset, timesteps: usize, seed: u64) -> Vec<SpikeTrain> {
        let encoder = PoissonEncoder::standard();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Vec::new();
        data.iter()
            .map(|(image, _)| {
                let mut train = SpikeTrain::default();
                train.encode(&encoder, image.pixels(), timesteps, &mut rng, &mut plan);
                train
            })
            .collect()
    }

    #[test]
    fn spike_train_steps_match_the_step_encoder() {
        let data = SynthDigits.generate(3, 5);
        let trains = serial_trains(&data, 20, 9);
        let encoder = PoissonEncoder::standard();
        let mut rng = StdRng::seed_from_u64(9);
        let (mut plan, mut active) = (Vec::new(), Vec::new());
        for (train, (image, _)) in trains.iter().zip(data.iter()) {
            encoder.plan(image.pixels(), &mut plan);
            for t in 0..20 {
                encoder.encode_planned_step(&plan, &mut rng, &mut active);
                let step: Vec<usize> = train.step(t).iter().map(|&i| i as usize).collect();
                assert_eq!(step, active, "t={t}");
            }
        }
    }

    #[test]
    fn inline_takes_match_serial_encoding() {
        // No producer at all: the trainer encodes every sample itself.
        let data = SynthDigits.generate(40, 3);
        let feed = Feed::new(&data, PoissonEncoder::standard(), 15, 77);
        let mut train = feed.train_buffer();
        for (k, want) in serial_trains(&data, 15, 77).iter().enumerate() {
            assert!(feed.take(k, &mut train), "sample {k} encoded inline");
            assert_eq!(&train, want, "sample {k}");
        }
    }

    #[test]
    fn produced_takes_match_serial_encoding() {
        // A producer that runs first fills the ring; the trainer drains
        // it and the producer refills it, more than once round the ring.
        let data = SynthDigits.generate(100, 4);
        let feed = Feed::new(&data, PoissonEncoder::standard(), 10, 5);
        let want = serial_trains(&data, 10, 5);
        std::thread::scope(|scope| {
            scope.spawn(|| feed.produce());
            let _close = CloseOnDrop(&feed);
            let mut train = feed.train_buffer();
            for (k, want) in want.iter().enumerate() {
                feed.take(k, &mut train);
                assert_eq!(&train, want, "sample {k}");
            }
        });
    }

    #[test]
    fn closing_releases_a_parked_producer() {
        let data = SynthDigits.generate(3 * DEPTH, 4);
        let feed = Feed::new(&data, PoissonEncoder::standard(), 5, 5);
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| feed.produce());
            // Wait until the ring is full and the producer parks.
            while feed.wake_at.load(Ordering::SeqCst) == usize::MAX {
                std::thread::yield_now();
            }
            feed.close();
            producer.join().expect("producer exits");
        });
        assert_eq!(feed.encoded.load(Ordering::SeqCst), DEPTH);
    }

    #[test]
    fn a_closed_feed_produces_nothing() {
        let data = SynthDigits.generate(4, 4);
        let feed = Feed::new(&data, PoissonEncoder::standard(), 5, 5);
        feed.close();
        feed.produce();
        assert_eq!(feed.encoded.load(Ordering::SeqCst), 0);
    }
}
