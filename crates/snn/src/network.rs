//! The unsupervised SNN architecture of paper Fig. 4(a): a Poisson-coded
//! input layer fully connected to an excitatory LIF layer with lateral
//! inhibition (winner-take-all competition) and STDP learning.
//!
//! The execution core is split into two halves so inference can run on many
//! threads at once:
//!
//! * [`NetworkParams`] — everything that is *frozen* during inference:
//!   configuration, the synaptic [`StoredWeights`] (the DRAM image), the
//!   derived [`EffectivePlane`] (the read-side view, rebuilt once per
//!   corruption instance) and the adaptive thresholds. Shared by reference
//!   across worker threads.
//! * [`RunState`] / [`BatchState`] — per-run scratch (membrane potentials,
//!   refractory timers, drive/fired buffers). Each worker owns one and
//!   reuses it across samples.
//!
//! Two inference entry points exist: [`NetworkParams::run_sample`], the
//! scalar reference path that reads [`StoredWeights`] through the synapse
//! rule on every access (exactly the pre-split behaviour), and
//! [`NetworkParams::run_batch`], which presents B samples together: their
//! spike trains are drawn in lockstep, and the neurons are swept in
//! cache-sized tiles (`SPARKXD_TILE`), each sample's drive summed in
//! registers over its live [`EffectivePlane`] rows and integrated while
//! hot, so the resident working set stays L1-sized at the paper's N3600.
//! Per-sample RNG streams keep the two **bit-identical** for any batch
//! size and tile width.
//!
//! Both paths execute their hot inner loops (drive accumulation, LIF lane
//! integration, the inhibition sweep) through the runtime-dispatched
//! [`Kernel`] layer — one portable body per kernel, compiled for the
//! baseline ISA or for x86_64 AVX2, selected by `SPARKXD_KERNEL` /
//! [`BatchState::with_kernel`] / [`RunState::with_kernel`] — whose lanes
//! compute the exact scalar IEEE sequence, so the kernel choice never
//! changes results either.
//!
//! [`DiehlCookNetwork`] composes the parameters with the STDP learning
//! state and keeps the training-facing API (`train_epoch`, `run_sample`
//! with `learn = true`); its inference entry points (`evaluate`,
//! `label_neurons`) delegate to the
//! [`BatchEvaluator`]. Training shares the
//! planned encoder and the kernel layer too: depression and the drive
//! read are one fused kernel row pass, the LIF integrate/fire/inhibit
//! step runs on the same SoA lanes and kernels as `run_batch`, and column
//! normalisation runs through the kernels, with results bit-identical to
//! the plain per-access loop. While the stored weights are clean, the
//! STDP passes run the kernels' clean-store variants, and an epoch's
//! Poisson encoding runs ahead on a pool helper (see
//! [`DiehlCookNetwork::train_epoch`]); neither changes a bit.

use crate::coding::PoissonEncoder;
use crate::engine::{BatchEvaluator, IntraChoice};
use crate::eval::NeuronLabeler;
use crate::feed::{CloseOnDrop, Feed, SpikeTrain};
use crate::kernels::{Kernel, KernelChoice, LifLanes};
use crate::neuron::LifConfig;
use crate::stdp::{StdpConfig, StdpState};
use crate::synapse::{EffectivePlane, StoredWeights};
use crate::SnnError;
use rand::rngs::StdRng;
use sparkxd_data::Dataset;
use std::ops::Range;
use std::slice;
use std::time::{Duration, Instant};

/// Complete configuration of a [`DiehlCookNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnnConfig {
    /// Number of input lines (pixels); 784 for 28×28 images.
    pub n_inputs: usize,
    /// Number of excitatory neurons (the paper's N400…N3600).
    pub n_neurons: usize,
    /// Timesteps each sample is presented for.
    pub timesteps: usize,
    /// Simulation timestep (ms).
    pub dt_ms: f32,
    /// Neuron parameters.
    pub lif: LifConfig,
    /// Plasticity parameters.
    pub stdp: StdpConfig,
    /// Input spike encoder.
    pub encoder: PoissonEncoder,
    /// Lateral inhibition strength (mV per competing spike).
    pub inhibition_mv: f32,
    /// Per-neuron input-weight normalisation target.
    pub norm_target: f32,
    /// Maximum synaptic weight.
    pub w_max: f32,
    /// Clamp weight reads to `[0, w_max]` (bounded hardware synapse).
    /// Disabling exposes raw FP32 corruption (paper's MSB observation).
    pub clamp_reads: bool,
    /// Hard winner-take-all: at most one neuron (the one with the largest
    /// threshold margin) fires per timestep, sharpening specialisation.
    pub hard_wta: bool,
    /// Seed for weight initialisation.
    pub weight_seed: u64,
}

impl SnnConfig {
    /// Configuration for a network with `n_neurons` excitatory neurons and
    /// 784 inputs, with Diehl & Cook style defaults.
    pub fn for_neurons(n_neurons: usize) -> Self {
        Self {
            n_inputs: sparkxd_data::IMAGE_PIXELS,
            n_neurons,
            timesteps: 100,
            dt_ms: 1.0,
            lif: LifConfig::excitatory(),
            stdp: StdpConfig::standard(),
            encoder: PoissonEncoder::standard(),
            inhibition_mv: 50.0,
            norm_target: 78.0,
            w_max: 1.0,
            clamp_reads: true,
            hard_wta: false,
            weight_seed: 0xD1EC,
        }
    }

    /// Sets the presentation window (builder style).
    pub fn with_timesteps(mut self, timesteps: usize) -> Self {
        self.timesteps = timesteps;
        self
    }

    /// Sets the weight-initialisation seed (builder style).
    pub fn with_weight_seed(mut self, seed: u64) -> Self {
        self.weight_seed = seed;
        self
    }

    /// Enables or disables clamped weight reads (builder style).
    pub fn with_clamp_reads(mut self, clamp: bool) -> Self {
        self.clamp_reads = clamp;
        self
    }
}

/// The immutable half of a network during inference: configuration,
/// synaptic storage plus its derived read plane, and the adaptive
/// thresholds learned during training.
///
/// Inference is a pure function of `(params, sample, rng)` — see
/// [`NetworkParams::run_sample`] / [`NetworkParams::run_batch`] — so a
/// `&NetworkParams` can be shared by any number of worker threads, each
/// driving its own scratch.
///
/// Every mutation path ([`set_weights`](Self::set_weights),
/// [`swap_weights_rows`](Self::swap_weights_rows),
/// [`with_weights_mut`](Self::with_weights_mut)) restores the invariant
/// that the plane is a fresh derivation of the store, so readers never see
/// a stale plane.
///
/// `clone_from` reuses the destination's weight, plane and threshold
/// buffers, so a snapshot refreshed once per training step costs a copy,
/// not an allocation.
#[derive(Debug, PartialEq)]
pub struct NetworkParams {
    config: SnnConfig,
    weights: StoredWeights,
    plane: EffectivePlane,
    thetas: Vec<f32>,
}

impl Clone for NetworkParams {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            weights: self.weights.clone(),
            plane: self.plane.clone(),
            thetas: self.thetas.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.config.clone_from(&source.config);
        self.weights.clone_from(&source.weights);
        self.plane.clone_from(&source.plane);
        self.thetas.clone_from(&source.thetas);
    }
}

impl NetworkParams {
    /// Fresh parameters with randomly initialised weights and zeroed
    /// adaptive thresholds.
    pub fn new(config: SnnConfig) -> Self {
        let weights = StoredWeights::random(
            config.n_inputs,
            config.n_neurons,
            config.w_max,
            config.weight_seed,
        );
        let plane = EffectivePlane::build(&weights, config.clamp_reads);
        let thetas = vec![0.0; config.n_neurons];
        Self {
            config,
            weights,
            plane,
            thetas,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SnnConfig {
        &self.config
    }

    /// The stored synaptic weights (the data SparkXD maps into DRAM).
    pub fn weights(&self) -> &StoredWeights {
        &self.weights
    }

    /// The derived read-side plane the batched hot path consumes.
    pub fn effective_plane(&self) -> &EffectivePlane {
        &self.plane
    }

    /// Replaces the weight matrix (e.g. with a corrupted copy), rebuilding
    /// the whole effective plane.
    ///
    /// # Panics
    ///
    /// Panics if the shape does not match the configuration.
    pub fn set_weights(&mut self, weights: StoredWeights) {
        assert_eq!(weights.inputs(), self.config.n_inputs, "input count");
        assert_eq!(weights.neurons(), self.config.n_neurons, "neuron count");
        self.weights = weights;
        self.rebuild_plane();
    }

    /// Swaps the stored image with `other` and re-derives only the given
    /// plane rows — the corrupt-and-swap fast path: the caller guarantees
    /// the two images differ in no rows other than `rows` (extra rows are
    /// merely wasted work). Swapping back with the same row set restores
    /// both the store and the plane exactly.
    ///
    /// # Panics
    ///
    /// Panics if `other`'s shape does not match the configuration.
    pub fn swap_weights_rows(&mut self, other: &mut StoredWeights, rows: &[usize]) {
        assert_eq!(other.inputs(), self.config.n_inputs, "input count");
        assert_eq!(other.neurons(), self.config.n_neurons, "neuron count");
        std::mem::swap(&mut self.weights, other);
        self.plane.rebuild_rows(&self.weights, rows);
        debug_assert!(
            self.plane.is_consistent_with(&self.weights),
            "swap_weights_rows caller listed too few touched rows"
        );
    }

    /// Runs `mutate` on the raw DRAM image (e.g. an in-place error
    /// injection), then rebuilds the whole effective plane.
    pub fn with_weights_mut<R>(&mut self, mutate: impl FnOnce(&mut StoredWeights) -> R) -> R {
        let out = mutate(&mut self.weights);
        self.rebuild_plane();
        out
    }

    /// Re-derives the full plane from the store in place (training
    /// mutates storage directly and calls this once per sample/epoch
    /// boundary).
    fn rebuild_plane(&mut self) {
        self.plane.rebuild_all(&self.weights);
    }

    /// Adaptive-threshold values per neuron.
    pub fn thetas(&self) -> &[f32] {
        &self.thetas
    }

    /// Presents one image for `config.timesteps` steps without learning.
    ///
    /// This is the reference path that [`run_batch`](Self::run_batch)
    /// is proven against, not an engine path: it reads the stored weights
    /// through the synapse rule on every access (no [`EffectivePlane`],
    /// no lockstep encoding, no tiles) and shares its drive and LIF step
    /// with training. The invariance suite, the serving
    /// offline check and the benchmark's correctness check all compare
    /// against it, so it must stay independent of `run_batch`.
    ///
    /// `state` is reset at entry, so any (correctly sized) scratch can be
    /// reused across samples and threads; `self` is untouched. Returns
    /// the per-neuron spike counts.
    ///
    /// # Errors
    ///
    /// [`SnnError::InputSizeMismatch`] if `pixels` does not match the
    /// configured input size.
    pub fn run_sample(
        &self,
        state: &mut RunState,
        pixels: &[f32],
        rng: &mut StdRng,
    ) -> Result<Vec<u32>, SnnError> {
        check_input_size(&self.config, pixels)?;
        let mut counts = vec![0u32; self.config.n_neurons];
        state.begin_sample(&self.config, &self.thetas);
        let kernel = state.kernel.unwrap_or_else(crate::engine::kernel);
        for _ in 0..self.config.timesteps {
            self.config
                .encoder
                .encode_step(pixels, rng, &mut state.active);
            state.accumulate_drive(&self.config, &self.weights, kernel);
            state.lif_step(&self.config, kernel, &mut counts);
        }
        Ok(counts)
    }

    /// Presents a chunk of `samples` together for `config.timesteps`
    /// steps without learning, one RNG stream per sample. This is the
    /// engine's one inference path, for every batch size including 1.
    ///
    /// Each timestep has three phases:
    ///
    /// * **Encode.** Every sample's spike train is drawn from its
    ///   presentation plan, the chunk's streams in lockstep
    ///   ([`PoissonEncoder::encode_planned_chunk`](crate::coding::PoissonEncoder::encode_planned_chunk)).
    ///   Rows whose effective fan-out is all zero still draw, but never
    ///   fire, so each sample's active list holds only live rows.
    /// * **Sweep.** The neurons are swept in tiles. Per tile and sample,
    ///   [`Kernel::sum_rows`] sums the sample's active rows' tile slices
    ///   into a `[tile]` drive block with the partial sums in registers,
    ///   and the tile's membrane lanes are integrated while the drive is
    ///   hot, so the resident working set is the tile, not the full
    ///   population.
    /// * **Fire.** Firing resolution and lateral inhibition run per
    ///   sample over the full population (hard WTA and inhibition
    ///   strength are global decisions).
    ///
    /// The tile width comes from [`BatchState::with_tile`] if pinned, else
    /// the `SPARKXD_TILE` override / [`DEFAULT_TILE`](crate::engine::DEFAULT_TILE)
    /// (via [`tile_width`](crate::engine::tile_width)), clamped into
    /// `[1, n_neurons]`.
    ///
    /// The tiles are split into contiguous range-jobs, one per intra-chunk
    /// worker ([`BatchState::with_intra`] / `SPARKXD_INTRA`). One job runs
    /// inline on the caller; more run on the persistent
    /// [`WorkerPool`](crate::engine::WorkerPool), each with its own drive
    /// block and disjoint neuron lanes, and the pool call is the barrier
    /// before the firing pass. There is one job when fewer than two tiles
    /// exist or the global thread budget is exhausted.
    ///
    /// Because sample `b` only ever consumes `rngs[b]`, each drive lane
    /// adds the sample's rows in the same ascending order onto the same
    /// `+0.0` as [`run_sample`](Self::run_sample) (skipping only rows of
    /// zeros, which change no bit of a sum that starts at `+0.0`), and
    /// each membrane lane's arithmetic is independent of the tile
    /// partition, the returned spike counts are **bit-identical to
    /// `run_sample`** with the same RNG, for any batch size, tile width,
    /// job count and kernel.
    ///
    /// Telemetry records one `engine.run_batch` span and a few counters
    /// per call; in spans mode it also adds each phase's wall time to
    /// `engine.phase_{encode,sweep,fire}_ns`, once per call.
    ///
    /// # Errors
    ///
    /// [`SnnError::InputSizeMismatch`] if any sample does not match the
    /// configured input size.
    ///
    /// # Panics
    ///
    /// Panics if `samples` and `rngs` have different lengths.
    pub fn run_batch(
        &self,
        state: &mut BatchState,
        samples: &[&[f32]],
        rngs: &mut [StdRng],
    ) -> Result<Vec<Vec<u32>>, SnnError> {
        assert_eq!(samples.len(), rngs.len(), "one RNG stream per sample");
        for pixels in samples {
            check_input_size(&self.config, pixels)?;
        }
        let b_count = samples.len();
        let n = self.config.n_neurons;
        let mut counts = vec![vec![0u32; n]; b_count];
        if b_count == 0 {
            return Ok(counts);
        }
        state.begin_batch(&self.config, &self.thetas, b_count);
        let tile = state
            .tile
            .unwrap_or_else(crate::engine::tile_width)
            .min(n.max(1))
            .max(1);
        let kernel = state.kernel.unwrap_or_else(crate::engine::kernel);
        // Resolve the sweep's job count once per presented chunk: the
        // intra-chunk workers claim their share of the global thread
        // budget for the duration of the call (released on return), and
        // the tile list is pre-split into contiguous ranges — one
        // deterministic range-job per worker slot. Fewer than two tiles,
        // `off`, or an exhausted budget leave one job on the caller.
        let n_tiles = n.div_ceil(tile);
        let intra = state.intra.unwrap_or_else(crate::engine::intra_choice);
        let (intra_workers, _intra_budget) = crate::engine::intra_workers_for(intra, n_tiles);
        let tile_jobs = crate::engine::chunk_ranges(n_tiles, intra_workers);
        let jobs = tile_jobs.len();
        // Observation only, and counter-cheap on purpose: one span and
        // a handful of adds per presented chunk (never per timestep —
        // the tile total is `timesteps × n_tiles` computed up front).
        let _span = sparkxd_telemetry::span!("engine.run_batch");
        sparkxd_telemetry::counter_add!("engine.batch_calls", 1);
        sparkxd_telemetry::counter_add!("engine.samples", b_count);
        sparkxd_telemetry::counter_add!("engine.timesteps", self.config.timesteps);
        sparkxd_telemetry::counter_add!("engine.tiles_swept", self.config.timesteps * n_tiles);
        if jobs > 1 {
            sparkxd_telemetry::counter_add!("engine.intra_fanouts", 1);
            sparkxd_telemetry::gauge_max!("engine.intra_workers", jobs);
        }
        // Per-pixel spike thresholds are a pure function of the sample:
        // compute them once per presentation instead of once per timestep.
        // A dead row keeps its draw, so every stream stays aligned with
        // `run_sample`, but a zero threshold never accepts it: its zeros
        // would change no drive bit, so it is filtered here once instead
        // of on every timestep.
        for (b, pixels) in samples.iter().enumerate() {
            let plan = &mut state.plans[b];
            self.config.encoder.plan(pixels, plan);
            for (row, threshold) in plan.iter_mut() {
                if !self.plane.row_live(*row as usize) {
                    *threshold = 0;
                }
            }
        }
        // Drive is only read inside its own tile, so each job sweeps
        // through a private `[tile]` block.
        state.drive.resize(jobs * tile, 0.0);
        state.job_any.resize(jobs * b_count, false);
        // Disjoint borrows of the scratch fields, so the tile sweep can
        // read the active lists while writing the drive/membrane slabs.
        let BatchState {
            v,
            theta,
            refractory,
            drive,
            active,
            plans,
            crossed,
            fired,
            job_any,
            tile: _,
            kernel: _,
            intra: _,
        } = state;
        let active = &mut active[..b_count];
        // The one telemetry check per call: phase timing is on in spans
        // mode only.
        let mut phases = BatchPhases::default();
        let mut clock =
            (sparkxd_telemetry::mode() == sparkxd_telemetry::Mode::Spans).then(|| PhaseClock {
                times: &mut phases,
                since: Instant::now(),
            });
        for _ in 0..self.config.timesteps {
            self.config
                .encoder
                .encode_planned_chunk(kernel, &plans[..b_count], rngs, active);
            lap(&mut clock, |p| &mut p.encode);
            let slabs = SweepSlabs {
                v: v.as_mut_ptr(),
                theta: theta.as_mut_ptr(),
                refractory: refractory.as_mut_ptr(),
                drive: drive.as_mut_ptr(),
                crossed: crossed.as_mut_ptr(),
                any: job_any.as_mut_ptr(),
            };
            let rows: &[Vec<usize>] = active;
            let sweep = |part: usize| {
                // SAFETY: `tile_jobs` ranges are disjoint and tile-aligned
                // and every job has its own `part`, so concurrent jobs
                // touch disjoint slab elements; the slabs were sized above
                // and outlive the pool call, which is the barrier before
                // the firing pass below.
                unsafe {
                    sweep_tiles(
                        self,
                        kernel,
                        slabs,
                        tile,
                        tile_jobs[part].clone(),
                        part,
                        rows,
                    );
                }
            };
            // One job runs inline on the caller; more go to the pool.
            if jobs == 1 {
                sweep(0);
            } else {
                crate::engine::WorkerPool::global().run(jobs, jobs.saturating_sub(1), &sweep);
            }
            lap(&mut clock, |p| &mut p.sweep);
            for (b, sample_counts) in counts.iter_mut().enumerate() {
                if !(0..jobs).any(|part| job_any[part * b_count + b]) {
                    // No lane reached threshold: nothing fires and
                    // inhibition is a no-op for this sample this step.
                    continue;
                }
                let slab = b * n..(b + 1) * n;
                commit_firing_slab(
                    &self.config,
                    &mut v[slab.clone()],
                    &mut theta[slab.clone()],
                    &mut refractory[slab.clone()],
                    &crossed[slab.clone()],
                    fired,
                    sample_counts,
                );
                inhibit_slab(&self.config, kernel, &mut v[slab], fired);
            }
            lap(&mut clock, |p| &mut p.fire);
        }
        if clock.is_some() {
            phases.record();
        }
        Ok(counts)
    }
}

/// Raw slab pointers of the tile sweep, `Copy` so every range-job
/// captures the same view without borrowing the scratch.
#[derive(Clone, Copy)]
struct SweepSlabs {
    /// `[B × n]` membrane slabs, sample-major.
    v: *mut f32,
    theta: *mut f32,
    refractory: *mut f32,
    crossed: *mut bool,
    /// `jobs × [tile]` drive scratch, one block per job.
    drive: *mut f32,
    /// `jobs × B` crossing flags, one slot per (job, sample).
    any: *mut bool,
}

// SAFETY: every field points into a `BatchState` slab that outlives the
// pool call in `run_batch`, and concurrent jobs dereference disjoint
// elements of each only (the `# Safety` contract of `sweep_tiles`).
unsafe impl Send for SweepSlabs {}
unsafe impl Sync for SweepSlabs {}

/// One range-job of the tile sweep: for each tile in `tiles` and each
/// sample `b`, sum the tile slices of `rows[b]` (the sample's live active
/// rows, ascending) into the job's `[tile]` drive block, then integrate
/// the sample's membrane lanes of the tile while the drive is hot.
/// Records whether any lane of sample `b` crossed threshold in
/// `any[part * B + b]`, where `B = rows.len()`.
///
/// Tile boundaries are global multiples of `tile`, rows are summed in
/// ascending order per lane and each lane's arithmetic is independent of
/// its neighbours, so the result is bit-identical for any split of the
/// tiles into jobs.
///
/// # Safety
///
/// `tiles` must lie in `0..n_neurons.div_ceil(tile)`, and concurrent
/// calls must receive distinct `part`s and disjoint `tiles` ranges. The
/// membrane slabs must hold `B × n_neurons` elements, the drive scratch
/// `(part + 1) × tile`, the flags `(part + 1) × B`, and all of them must
/// stay valid for the call.
unsafe fn sweep_tiles(
    params: &NetworkParams,
    kernel: Kernel,
    slabs: SweepSlabs,
    tile: usize,
    tiles: Range<usize>,
    part: usize,
    rows: &[Vec<usize>],
) {
    let n = params.config.n_neurons;
    let b_count = rows.len();
    // SAFETY: the drive block and flag slots indexed by `part` belong to
    // this job alone and lie inside the sizes `# Safety` requires.
    let (drive, any) = unsafe {
        (
            slice::from_raw_parts_mut(slabs.drive.add(part * tile), tile),
            slice::from_raw_parts_mut(slabs.any.add(part * b_count), b_count),
        )
    };
    any.fill(false);
    let plane = params.plane.values();
    for t in tiles {
        let t0 = t * tile;
        let len = (t0 + tile).min(n) - t0;
        let drive = &mut drive[..len];
        for (b, (any, rows)) in any.iter_mut().zip(rows).enumerate() {
            kernel.sum_rows(drive, plane, n, t0, rows);
            let base = b * n + t0;
            // SAFETY: lanes `[base, base + len)` are tile `t` of sample
            // `b`'s slab: inside the `B × n_neurons` slabs, and in this
            // job's own disjoint tile range.
            let lanes = unsafe {
                LifLanes {
                    v: slice::from_raw_parts_mut(slabs.v.add(base), len),
                    theta: slice::from_raw_parts_mut(slabs.theta.add(base), len),
                    refractory: slice::from_raw_parts_mut(slabs.refractory.add(base), len),
                    drive,
                    crossed: slice::from_raw_parts_mut(slabs.crossed.add(base), len),
                }
            };
            *any |= kernel.integrate_lanes(&params.config.lif, params.config.dt_ms, lanes);
        }
    }
}

/// Commits this timestep's spikes for one sample slab: under soft WTA
/// every crossing lane fires; under hard WTA only the lane with the
/// largest threshold margin does (ties keep the lowest index, as in the
/// scalar path). Firing lanes reset, raise theta and enter refractory —
/// exactly [`LifState::fire`](crate::neuron::LifState::fire).
fn commit_firing_slab(
    config: &SnnConfig,
    v: &mut [f32],
    theta: &mut [f32],
    refractory: &mut [f32],
    crossed: &[bool],
    fired: &mut Vec<usize>,
    counts: &mut [u32],
) {
    fired.clear();
    let lif = &config.lif;
    let mut fire =
        |j: usize, v: &mut [f32], theta: &mut [f32], refractory: &mut [f32], counts: &mut [u32]| {
            v[j] = lif.v_reset;
            theta[j] += lif.theta_plus;
            refractory[j] = lif.refractory_ms;
            fired.push(j);
            counts[j] += 1;
        };
    if config.hard_wta {
        let mut winner: Option<(usize, f32)> = None;
        for (j, &c) in crossed.iter().enumerate() {
            if c {
                // Same expression as LifState::threshold_margin on the
                // post-integration state.
                let margin = v[j] - (lif.v_thresh + theta[j]);
                if winner.is_none_or(|(_, best)| margin > best) {
                    winner = Some((j, margin));
                }
            }
        }
        if let Some((j, _)) = winner {
            fire(j, v, theta, refractory, counts);
        }
    } else {
        for (j, &c) in crossed.iter().enumerate() {
            if c {
                fire(j, v, theta, refractory, counts);
            }
        }
    }
}

/// Lateral inhibition over one sample slab — exactly
/// [`LifState::inhibit`](crate::neuron::LifState::inhibit) applied to
/// every non-firing lane.
///
/// `fired` is sorted ascending and deduplicated (it comes from
/// [`commit_firing_slab`]'s index walk), so instead of building a dense
/// mask the sweep hands the kernel the contiguous gaps *between* winners
/// — no per-lane branch, and the kernel runs full-width on each gap.
fn inhibit_slab(config: &SnnConfig, kernel: Kernel, v: &mut [f32], fired: &[usize]) {
    if fired.is_empty() {
        return;
    }
    debug_assert!(
        fired.windows(2).all(|w| w[0] < w[1]),
        "fired list must be sorted and unique"
    );
    let strength = config.inhibition_mv * fired.len() as f32;
    let floor = config.lif.inhibition_floor();
    let mut start = 0;
    for &j in fired {
        kernel.inhibit_lanes(&mut v[start..j], strength, floor);
        start = j + 1;
    }
    kernel.inhibit_lanes(&mut v[start..], strength, floor);
}

/// [`SnnError::InputSizeMismatch`] unless `pixels` has one value per
/// configured input.
fn check_input_size(config: &SnnConfig, pixels: &[f32]) -> Result<(), SnnError> {
    if pixels.len() == config.n_inputs {
        Ok(())
    } else {
        Err(SnnError::InputSizeMismatch {
            provided: pixels.len(),
            expected: config.n_inputs,
        })
    }
}

/// What one training epoch observed, for its telemetry.
#[derive(Debug, Default)]
struct EpochStats {
    /// Excitatory spikes over every sample.
    spikes: u64,
    /// Samples that started on a clean store (the clean kernels).
    clean_samples: usize,
    /// Samples the trainer encoded itself.
    inline_encodes: usize,
    /// Per-phase wall time (spans mode only).
    phases: PhaseTimes,
}

/// Wall time per training phase, summed over an epoch's samples and
/// recorded as counters once per epoch (spans mode only).
#[derive(Debug, Default)]
struct PhaseTimes {
    encode_wait: Duration,
    decay: Duration,
    depress: Duration,
    lif: Duration,
    potentiate: Duration,
    normalise: Duration,
}

impl PhaseTimes {
    fn record(&self) {
        use sparkxd_telemetry::counter_add;
        counter_add!(
            "snn.train_phase_encode_wait_ns",
            self.encode_wait.as_nanos()
        );
        counter_add!("snn.train_phase_decay_ns", self.decay.as_nanos());
        counter_add!("snn.train_phase_depress_ns", self.depress.as_nanos());
        counter_add!("snn.train_phase_lif_ns", self.lif.as_nanos());
        counter_add!("snn.train_phase_potentiate_ns", self.potentiate.as_nanos());
        counter_add!("snn.train_phase_normalise_ns", self.normalise.as_nanos());
    }
}

/// Wall time per `run_batch` phase, summed over one call's timesteps and
/// recorded as counters once per call (spans mode only).
#[derive(Debug, Default)]
struct BatchPhases {
    encode: Duration,
    sweep: Duration,
    fire: Duration,
}

impl BatchPhases {
    fn record(&self) {
        use sparkxd_telemetry::counter_add;
        counter_add!("engine.phase_encode_ns", self.encode.as_nanos());
        counter_add!("engine.phase_sweep_ns", self.sweep.as_nanos());
        counter_add!("engine.phase_fire_ns", self.fire.as_nanos());
    }
}

/// A running phase timer over one sample or chunk: the accumulators and
/// when the current phase began.
struct PhaseClock<'a, T> {
    times: &'a mut T,
    since: Instant,
}

/// Charges the time since the last lap to one phase and starts the next;
/// a no-op when phase timing is off (`clock` is `None`).
#[inline]
fn lap<T>(clock: &mut Option<PhaseClock<'_, T>>, phase: impl FnOnce(&mut T) -> &mut Duration) {
    if let Some(clock) = clock {
        let now = Instant::now();
        *phase(clock.times) += now - clock.since;
        clock.since = now;
    }
}

/// Per-run mutable scratch of one simulation worker: SoA membrane lanes,
/// synaptic drive and spike buffers. Reused across samples — every buffer
/// is reset by `begin_sample` — so the hot loop allocates nothing.
///
/// The lanes are the one-sample case of [`BatchState`]'s slabs and go
/// through the same kernel entry points ([`Kernel::integrate_lanes`],
/// `commit_firing_slab`, `inhibit_slab`), for inference
/// ([`NetworkParams::run_sample`]) and STDP training alike.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunState {
    /// Membrane potentials.
    v: Vec<f32>,
    /// Per-sample working copy of the adaptive thresholds (they decay and
    /// grow *within* a presentation window; only training writes them
    /// back into the parameters).
    theta: Vec<f32>,
    /// Remaining refractory times.
    refractory: Vec<f32>,
    /// Synaptic drive accumulated this timestep (mV per neuron).
    drive: Vec<f32>,
    /// Threshold-crossing mask of the current timestep.
    crossed: Vec<bool>,
    /// Input lines that spiked this timestep (inference; training reads
    /// its pre-encoded `train`).
    active: Vec<usize>,
    /// Neurons that fired this timestep (sorted ascending).
    fired: Vec<usize>,
    /// Pinned kernel; `None` resolves from `SPARKXD_KERNEL` /
    /// auto-detection on every [`NetworkParams::run_sample`] call.
    kernel: Option<Kernel>,
    /// The training sample's spike train, encoded ahead of training.
    train: SpikeTrain,
    /// Training only: the stored weights are known clean (every word in
    /// `[0, w_max]`), so the STDP passes run the clean kernels. Set by a
    /// scan when training starts, updated after each normalisation.
    clean: bool,
    /// Training only: normalisation's per-column sums and scales.
    norm: Vec<f32>,
}

impl RunState {
    /// Scratch sized for `params`.
    pub fn for_params(params: &NetworkParams) -> Self {
        let mut state = Self::default();
        state.begin_sample(&params.config, &params.thetas);
        state
    }

    /// Pins the hot-loop kernel (ignores `SPARKXD_KERNEL`); the request
    /// resolves through runtime feature detection, so an unsupported
    /// request degrades to the portable kernel. Builder style; never
    /// changes results, only wall time.
    pub fn with_kernel(mut self, kernel: KernelChoice) -> Self {
        self.kernel = Some(kernel.resolve());
        self
    }

    /// The neurons that fired in the most recent timestep.
    pub fn last_fired(&self) -> &[usize] {
        &self.fired
    }

    /// Resets membrane state for a fresh sample: potentials to rest,
    /// refractory timers cleared, thresholds copied from `thetas`.
    fn begin_sample(&mut self, config: &SnnConfig, thetas: &[f32]) {
        let n = thetas.len();
        self.v.clear();
        self.v.resize(n, config.lif.v_rest);
        self.refractory.clear();
        self.refractory.resize(n, 0.0);
        self.theta.clear();
        self.theta.extend_from_slice(thetas);
        self.drive.resize(n, 0.0);
        self.crossed.resize(n, false);
        self.active.clear();
        self.fired.clear();
    }

    /// Accumulates this timestep's synaptic drive from the active inputs,
    /// reading the stored weights through the synapse rule on every access
    /// (the scalar reference path). The per-lane transform runs through
    /// the same [`Kernel`] entry points as the batched path, so the two
    /// stay op-for-op comparable under any dispatch choice.
    fn accumulate_drive(&mut self, config: &SnnConfig, weights: &StoredWeights, kernel: Kernel) {
        self.drive.fill(0.0);
        let w_max = weights.w_max();
        for &i in &self.active {
            let row = weights.fan_out(i);
            if config.clamp_reads {
                kernel.accumulate_effective(&mut self.drive, row, w_max);
            } else {
                kernel.accumulate_finite(&mut self.drive, row);
            }
        }
    }

    /// One LIF timestep on the accumulated drive: integrates every lane,
    /// commits who fires (soft or hard WTA) into `fired` and `counts`,
    /// then applies lateral inhibition — the one-sample case of
    /// [`NetworkParams::run_batch`]'s per-sample pass.
    fn lif_step(&mut self, config: &SnnConfig, kernel: Kernel, counts: &mut [u32]) {
        let any_crossed = kernel.integrate_lanes(
            &config.lif,
            config.dt_ms,
            LifLanes {
                v: &mut self.v,
                theta: &mut self.theta,
                refractory: &mut self.refractory,
                drive: &self.drive,
                crossed: &mut self.crossed,
            },
        );
        if !any_crossed {
            // Nothing fires and inhibition is a no-op this step.
            self.fired.clear();
            return;
        }
        commit_firing_slab(
            config,
            &mut self.v,
            &mut self.theta,
            &mut self.refractory,
            &self.crossed,
            &mut self.fired,
            counts,
        );
        inhibit_slab(config, kernel, &mut self.v, &self.fired);
    }
}

/// Per-worker scratch of the batched inference path: SoA membrane slabs
/// over `[B × n_neurons]`, one `[tile]` drive block per sweep job, and
/// per-sample spike plans and active lists. Reused across batches;
/// `run_batch` resizes it to the presented batch, so the final (short)
/// chunk of a dataset needs no separate state, and once sized it
/// allocates nothing per timestep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchState {
    /// Membrane potentials, sample-major (`[b * n_neurons + j]`).
    v: Vec<f32>,
    /// Adaptive-threshold working copies, sample-major.
    theta: Vec<f32>,
    /// Remaining refractory times, sample-major.
    refractory: Vec<f32>,
    /// Drive scratch of the tile sweep: one `[tile]` block per range-job.
    drive: Vec<f32>,
    /// Per-sample live active input lines this timestep (sorted
    /// ascending).
    active: Vec<Vec<usize>>,
    /// Per-sample precomputed spike plans (non-zero pixels + thresholds,
    /// zero for dead rows).
    plans: Vec<Vec<(u32, u32)>>,
    /// Threshold-crossing masks, sample-major (`[b * n_neurons + j]`) —
    /// tiles integrate lane-by-lane, firing resolves per sample after the
    /// sweep.
    crossed: Vec<bool>,
    /// Per-sample firing scratch (one sample resolved at a time; sorted
    /// ascending, so inhibition sweeps the gaps between winners without a
    /// dense mask).
    fired: Vec<usize>,
    /// Per-(range-job × sample) "any lane crossed this timestep" flags,
    /// OR-reduced per sample after the sweep so quiet samples skip
    /// firing/inhibition entirely. One slot per *job* (not per thread),
    /// so the reduction is deterministic however the pool schedules the
    /// jobs.
    job_any: Vec<bool>,
    /// Pinned neuron-tile width; `None` resolves from `SPARKXD_TILE` /
    /// [`DEFAULT_TILE`](crate::engine::DEFAULT_TILE) on every
    /// [`NetworkParams::run_batch`] call.
    tile: Option<usize>,
    /// Pinned kernel; `None` resolves from `SPARKXD_KERNEL` /
    /// auto-detection on every [`NetworkParams::run_batch`] call.
    kernel: Option<Kernel>,
    /// Pinned intra-chunk sweep mode; `None` resolves from
    /// `SPARKXD_INTRA` / [`IntraChoice::Auto`] on every
    /// [`NetworkParams::run_batch`] call.
    intra: Option<IntraChoice>,
}

impl BatchState {
    /// Scratch pre-sized for batches of up to `batch` samples of `params`.
    pub fn for_params(params: &NetworkParams, batch: usize) -> Self {
        let mut state = Self::default();
        state.begin_batch(&params.config, &params.thetas, batch.max(1));
        state
    }

    /// Pins the neuron-tile width of the drive sweep (ignores
    /// `SPARKXD_TILE`); any width ≥ `n_neurons` (e.g. `usize::MAX`) is
    /// the untiled single-sweep path. Builder style; never changes
    /// results, only wall time.
    pub fn with_tile(mut self, tile: usize) -> Self {
        self.tile = Some(tile.max(1));
        self
    }

    /// Pins the hot-loop kernel (ignores `SPARKXD_KERNEL`); the request
    /// resolves through runtime feature detection, so an unsupported
    /// request degrades to the portable kernel. Builder style; never
    /// changes results, only wall time.
    pub fn with_kernel(mut self, kernel: KernelChoice) -> Self {
        self.kernel = Some(kernel.resolve());
        self
    }

    /// Pins the intra-chunk parallel mode of the drive tile sweep
    /// (ignores `SPARKXD_INTRA`): [`IntraChoice::Off`] keeps the serial
    /// sweep, [`IntraChoice::Workers`]`(k)` pins `k` sweep workers,
    /// [`IntraChoice::Auto`] sizes to the leftover thread budget. Builder
    /// style; never changes results, only wall time.
    pub fn with_intra(mut self, intra: IntraChoice) -> Self {
        self.intra = Some(intra);
        self
    }

    /// Resets membrane state for a fresh batch of `batch` samples:
    /// potentials to rest, refractory timers cleared, thresholds copied
    /// from `thetas` per sample.
    fn begin_batch(&mut self, config: &SnnConfig, thetas: &[f32], batch: usize) {
        let n = thetas.len();
        self.v.clear();
        self.v.resize(batch * n, config.lif.v_rest);
        self.refractory.clear();
        self.refractory.resize(batch * n, 0.0);
        self.theta.clear();
        for _ in 0..batch {
            self.theta.extend_from_slice(thetas);
        }
        self.crossed.resize(batch * n, false);
        self.active.resize(batch, Vec::new());
        self.plans.resize(batch, Vec::new());
        for active in &mut self.active {
            active.clear();
        }
        self.fired.clear();
    }
}

/// The unsupervised spiking network: frozen [`NetworkParams`] plus the STDP
/// learning state that mutates them during training.
///
/// # Example
///
/// ```
/// use sparkxd_data::{SynthDigits, SyntheticSource};
/// use sparkxd_snn::{DiehlCookNetwork, SnnConfig};
///
/// let config = SnnConfig::for_neurons(20).with_timesteps(20);
/// let mut net = DiehlCookNetwork::new(config);
/// let data = SynthDigits.generate(10, 0);
/// net.train_epoch(&data, 1);
/// assert_eq!(net.weights().neurons(), 20);
/// ```
///
/// `clone_from` reuses the destination's buffers (see [`NetworkParams`]),
/// which is how fault-aware training refreshes its per-step snapshots.
#[derive(Debug, PartialEq)]
pub struct DiehlCookNetwork {
    params: NetworkParams,
    stdp: StdpState,
}

impl Clone for DiehlCookNetwork {
    fn clone(&self) -> Self {
        Self {
            params: self.params.clone(),
            stdp: self.stdp.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.params.clone_from(&source.params);
        self.stdp.clone_from(&source.stdp);
    }
}

impl DiehlCookNetwork {
    /// Builds a network with randomly initialised weights.
    pub fn new(config: SnnConfig) -> Self {
        let params = NetworkParams::new(config);
        let stdp = StdpState::new(
            params.config.stdp,
            params.config.n_inputs,
            params.config.n_neurons,
        );
        Self { params, stdp }
    }

    /// Wraps existing parameters with fresh (zeroed) STDP traces.
    pub fn from_params(params: NetworkParams) -> Self {
        let stdp = StdpState::new(
            params.config.stdp,
            params.config.n_inputs,
            params.config.n_neurons,
        );
        Self { params, stdp }
    }

    /// The frozen half of the network — hand `&net.params()` to the
    /// [`BatchEvaluator`] for parallel
    /// inference.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Consumes the network, keeping only the inference parameters.
    pub fn into_params(self) -> NetworkParams {
        self.params
    }

    /// The configuration in use.
    pub fn config(&self) -> &SnnConfig {
        &self.params.config
    }

    /// The stored synaptic weights (the data SparkXD maps into DRAM).
    pub fn weights(&self) -> &StoredWeights {
        &self.params.weights
    }

    /// Replaces the weight matrix (e.g. with a corrupted copy), rebuilding
    /// the read plane.
    ///
    /// # Panics
    ///
    /// Panics if the shape does not match the configuration.
    pub fn set_weights(&mut self, weights: StoredWeights) {
        self.params.set_weights(weights);
    }

    /// Swap-in/swap-out of a corrupted image with row-targeted plane
    /// rebuild; see [`NetworkParams::swap_weights_rows`].
    pub fn swap_weights_rows(&mut self, other: &mut StoredWeights, rows: &[usize]) {
        self.params.swap_weights_rows(other, rows);
    }

    /// In-place mutation of the raw DRAM image with a full plane rebuild;
    /// see [`NetworkParams::with_weights_mut`].
    pub fn with_weights_mut<R>(&mut self, mutate: impl FnOnce(&mut StoredWeights) -> R) -> R {
        self.params.with_weights_mut(mutate)
    }

    /// Adaptive-threshold values per neuron.
    pub fn thetas(&self) -> &[f32] {
        self.params.thetas()
    }

    /// Presents one image for `config.timesteps` steps.
    ///
    /// Returns per-neuron spike counts. When `learn` is set, STDP updates
    /// and per-sample weight normalisation are applied and the adaptive
    /// thresholds persist; otherwise this is exactly
    /// [`NetworkParams::run_sample`] on a fresh scratch and the network is
    /// left unchanged.
    ///
    /// # Errors
    ///
    /// [`SnnError::InputSizeMismatch`] if `pixels` does not match the
    /// configured input size.
    pub fn run_sample(
        &mut self,
        pixels: &[f32],
        rng: &mut StdRng,
        learn: bool,
    ) -> Result<Vec<u32>, SnnError> {
        if !learn {
            let mut state = RunState::for_params(&self.params);
            return self.params.run_sample(&mut state, pixels, rng);
        }
        let config = &self.params.config;
        check_input_size(config, pixels)?;
        let mut state = RunState {
            clean: self.params.weights.is_clean(),
            ..RunState::default()
        };
        state.train.encode(
            &config.encoder,
            pixels,
            config.timesteps,
            rng,
            &mut Vec::new(),
        );
        let counts = self.train_sample(&mut state, None);
        self.params.rebuild_plane();
        Ok(counts)
    }

    /// Training-mode presentation of the spike train in `state.train`,
    /// reusing `state` scratch; `phases` accumulates per-phase wall time
    /// when given.
    ///
    /// The STDP passes run the clean kernels while `state.clean` holds,
    /// and normalisation updates the flag. Mutates the stored weights
    /// directly and leaves the effective plane stale — callers must
    /// finish with `params.rebuild_plane()` before the parameters are
    /// read again.
    fn train_sample(&mut self, state: &mut RunState, phases: Option<&mut PhaseTimes>) -> Vec<u32> {
        let Self { params, stdp } = self;
        let config = &params.config;
        let weights = &mut params.weights;
        let mut counts = vec![0u32; config.n_neurons];
        state.begin_sample(config, &params.thetas);
        let kernel = state.kernel.unwrap_or_else(crate::engine::kernel);
        let clean = state.clean;
        let mut clock = phases.map(|times| PhaseClock {
            times,
            since: Instant::now(),
        });
        for t in 0..config.timesteps {
            stdp.decay(config.dt_ms);
            lap(&mut clock, |p| &mut p.decay);
            // Depression and the drive read are one fused row pass: each
            // active row is rewritten into `[0, w_max]` and added into the
            // drive while hot, exactly the sums `accumulate_drive` would
            // produce from the rewritten rows under either read rule.
            state.drive.fill(0.0);
            stdp.on_pre_spikes(
                weights,
                state.train.step(t),
                &mut state.drive,
                kernel,
                clean,
            );
            lap(&mut clock, |p| &mut p.depress);
            // Integrate, fire and inhibit on the SoA lanes. Inhibition
            // only lowers non-firing membranes, which potentiation never
            // reads, so it may run before the post-spike update.
            state.lif_step(config, kernel, &mut counts);
            lap(&mut clock, |p| &mut p.lif);
            if !state.fired.is_empty() {
                stdp.on_post_spikes(weights, &state.fired, kernel, clean);
                lap(&mut clock, |p| &mut p.potentiate);
            }
        }
        state.clean =
            weights.normalize_columns_with(config.norm_target, kernel, clean, &mut state.norm);
        lap(&mut clock, |p| &mut p.normalise);
        stdp.reset();
        // Thresholds are learned state: persist them across samples.
        params.thetas.copy_from_slice(&state.theta);
        counts
    }

    /// Trains on every sample of `dataset` once (one epoch), with spike
    /// generation seeded by `seed`. Returns the total number of excitatory
    /// spikes observed.
    ///
    /// Training is inherently sequential (STDP updates feed forward into
    /// the next sample), so this threads one RNG through the epoch exactly
    /// as previous revisions did. Two things shorten the serial path
    /// without changing a bit:
    ///
    /// * Poisson encoding runs ahead on one pool helper (claimed like
    ///   [`engine::join`](crate::engine::join) claims one), into a bounded
    ///   ring the caller trains from; when a sample is not ready and the
    ///   encoder is free, the caller encodes it itself. With no helper to
    ///   spare (`SPARKXD_THREADS=1`) every sample is encoded inline.
    /// * While the stored weights are clean (every word in `[0, w_max]`,
    ///   checked by one scan here and tracked through each
    ///   normalisation), the STDP passes skip the synapse read rule,
    ///   which is the identity on such a store.
    ///
    /// The effective plane is re-derived once at the end of the epoch
    /// (training itself reads the store directly). Telemetry records one
    /// `snn.train_epoch` span and, once per epoch, adds the sample count
    /// to `snn.train_samples`, the clean-store samples to
    /// `snn.train_clean_samples` and the samples the caller encoded
    /// itself to `snn.train_inline_encodes`; in spans mode it also adds
    /// the per-phase wall time (`snn.train_phase_*_ns`).
    ///
    /// # Panics
    ///
    /// Panics if the dataset images do not match the input size (the
    /// datasets in this workspace always do).
    pub fn train_epoch(&mut self, dataset: &Dataset, seed: u64) -> u64 {
        self.train_epoch_with(dataset, seed, || ()).0
    }

    /// [`train_epoch`](Self::train_epoch) while `side` runs on the pool
    /// helper, which becomes the epoch's encoder once `side` returns.
    /// Returns the spike total and `side`'s result.
    ///
    /// Fault-aware training passes each step's evaluation as `side`, so
    /// the evaluation and the encoding share the one helper the budget
    /// grants. Parallel calls nested in `side` size themselves to the
    /// budget left over, as under [`engine::join`](crate::engine::join).
    /// With no helper to spare, this is `train_epoch` followed by
    /// `side()`; either way the results are bit-identical to that serial
    /// order. A panic in training or in `side` propagates once both sides
    /// have stopped.
    ///
    /// # Panics
    ///
    /// As [`train_epoch`](Self::train_epoch).
    pub fn train_epoch_with<R: Send>(
        &mut self,
        dataset: &Dataset,
        seed: u64,
        side: impl FnOnce() -> R + Send,
    ) -> (u64, R) {
        let config = &self.params.config;
        let feed = Feed::new(dataset, config.encoder, config.timesteps, seed);
        crate::engine::join(
            || {
                let _close = CloseOnDrop(&feed);
                // Observation only, once per epoch: never per sample or
                // timestep. The span covers training, not `side`.
                let _span = sparkxd_telemetry::span!("snn.train_epoch");
                let stats = self.train_from(&feed);
                self.params.rebuild_plane();
                sparkxd_telemetry::counter_add!("snn.train_samples", dataset.len());
                sparkxd_telemetry::counter_add!("snn.train_clean_samples", stats.clean_samples);
                sparkxd_telemetry::counter_add!("snn.train_inline_encodes", stats.inline_encodes);
                if sparkxd_telemetry::mode() == sparkxd_telemetry::Mode::Spans {
                    stats.phases.record();
                }
                stats.spikes
            },
            || {
                let out = side();
                feed.produce();
                out
            },
        )
    }

    /// The trainer's side of an epoch: takes each sample's spike train
    /// from `feed` in order and trains on it.
    fn train_from(&mut self, feed: &Feed<'_>) -> EpochStats {
        let mut state = RunState {
            kernel: Some(crate::engine::kernel()),
            train: feed.train_buffer(),
            clean: self.params.weights.is_clean(),
            ..RunState::default()
        };
        let mut stats = EpochStats::default();
        for (k, (image, _)) in feed.dataset().iter().enumerate() {
            // The one telemetry check per sample: phase timing is on in
            // spans mode only.
            let timed = sparkxd_telemetry::mode() == sparkxd_telemetry::Mode::Spans;
            let wait = timed.then(Instant::now);
            stats.inline_encodes += usize::from(feed.take(k, &mut state.train));
            if let Some(wait) = wait {
                stats.phases.encode_wait += wait.elapsed();
            }
            check_input_size(&self.params.config, image.pixels())
                .expect("dataset image matches configured input size");
            stats.clean_samples += usize::from(state.clean);
            let counts = self.train_sample(&mut state, timed.then_some(&mut stats.phases));
            stats.spikes += counts.iter().map(|&c| c as u64).sum::<u64>();
        }
        stats
    }

    /// Assigns a class to each neuron from its responses on `dataset`
    /// (inference only, no learning). Samples are evaluated concurrently by
    /// the [`BatchEvaluator`]; the result is
    /// independent of the worker count and batch size.
    pub fn label_neurons(&self, dataset: &Dataset, seed: u64) -> NeuronLabeler {
        BatchEvaluator::from_env().label_neurons(&self.params, dataset, seed)
    }

    /// Classification accuracy on `dataset` using `labeler`'s neuron
    /// assignments (inference only, parallel across samples).
    pub fn evaluate(&self, dataset: &Dataset, labeler: &NeuronLabeler, seed: u64) -> f64 {
        BatchEvaluator::from_env().evaluate(&self.params, dataset, labeler, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::sample_rng;
    use rand::SeedableRng;
    use sparkxd_data::{SynthDigits, SyntheticSource};

    fn small_net() -> DiehlCookNetwork {
        DiehlCookNetwork::new(SnnConfig::for_neurons(20).with_timesteps(30))
    }

    #[test]
    fn network_produces_spikes_on_input() {
        let mut net = small_net();
        let data = SynthDigits.generate(5, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let counts = net
            .run_sample(data.get(0).0.pixels(), &mut rng, false)
            .unwrap();
        assert!(counts.iter().sum::<u32>() > 0, "some neuron should fire");
    }

    #[test]
    fn blank_input_produces_no_spikes() {
        let mut net = small_net();
        let blank = vec![0.0f32; 784];
        let mut rng = StdRng::seed_from_u64(2);
        let counts = net.run_sample(&blank, &mut rng, false).unwrap();
        assert_eq!(counts.iter().sum::<u32>(), 0);
    }

    #[test]
    fn wrong_input_size_is_an_error() {
        let mut net = small_net();
        let mut rng = StdRng::seed_from_u64(2);
        let err = net.run_sample(&[0.0; 10], &mut rng, false);
        assert!(matches!(err, Err(SnnError::InputSizeMismatch { .. })));
        let params = net.params().clone();
        let mut state = RunState::for_params(&params);
        let err = params.run_sample(&mut state, &[0.0; 10], &mut rng);
        assert!(matches!(err, Err(SnnError::InputSizeMismatch { .. })));
        let mut batch_state = BatchState::for_params(&params, 2);
        let good = vec![0.0f32; 784];
        let bad = vec![0.0f32; 10];
        let mut rngs = vec![sample_rng(1, 0), sample_rng(1, 1)];
        let err = params.run_batch(
            &mut batch_state,
            &[good.as_slice(), bad.as_slice()],
            &mut rngs,
        );
        assert!(matches!(err, Err(SnnError::InputSizeMismatch { .. })));
    }

    #[test]
    fn training_changes_weights_and_normalises() {
        let mut net = small_net();
        let before = net.weights().as_slice().to_vec();
        let data = SynthDigits.generate(10, 3);
        net.train_epoch(&data, 4);
        assert_ne!(net.weights().as_slice(), &before[..]);
        // Column sums normalised.
        let w = net.weights();
        for j in 0..20 {
            let sum: f32 = (0..784).map(|i| w.raw(i, j)).sum();
            assert!((sum - 78.0).abs() < 2.0, "column {j} sum {sum}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let data = SynthDigits.generate(10, 3);
        let run = || {
            let mut net = small_net();
            net.train_epoch(&data, 4);
            net.weights().as_slice().to_vec()
        };
        assert_eq!(run(), run());
    }

    /// The reference the clean kernels must reproduce: the same epoch with
    /// every sample forced onto the generic kernels, encoded serially.
    fn train_epoch_generic_only(net: &mut DiehlCookNetwork, data: &Dataset, seed: u64) {
        let config = net.config().clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut state, mut plan) = (RunState::default(), Vec::new());
        for (image, _) in data.iter() {
            let pixels = image.pixels();
            state.train.encode(
                &config.encoder,
                pixels,
                config.timesteps,
                &mut rng,
                &mut plan,
            );
            state.clean = false;
            net.train_sample(&mut state, None);
        }
        net.params.rebuild_plane();
    }

    /// One epoch through the trainer alone (every sample encoded inline);
    /// returns its stats.
    fn train_epoch_inline(net: &mut DiehlCookNetwork, data: &Dataset, seed: u64) -> EpochStats {
        let config = net.config();
        let feed = Feed::new(data, config.encoder, config.timesteps, seed);
        let stats = net.train_from(&feed);
        net.params.rebuild_plane();
        stats
    }

    fn weight_bits(net: &DiehlCookNetwork) -> Vec<u32> {
        let words = net.weights().as_slice().iter().chain(net.thetas());
        words.map(|w| w.to_bits()).collect()
    }

    #[test]
    fn clean_store_training_matches_the_generic_kernels() {
        let data = SynthDigits.generate(12, 3);
        let mut fast = small_net();
        assert!(
            fast.weights().is_clean(),
            "random initial weights are clean"
        );
        let mut generic = fast.clone();
        let stats = train_epoch_inline(&mut fast, &data, 4);
        assert_eq!(stats.clean_samples, data.len());
        assert_eq!(stats.inline_encodes, data.len());
        train_epoch_generic_only(&mut generic, &data, 4);
        assert_eq!(weight_bits(&fast), weight_bits(&generic));
        assert!(fast.weights().is_clean());
    }

    /// Twelve digits with pixel 0 darkened, so input line 0 never fires.
    fn digits_with_dark_pixel_0() -> Dataset {
        let data = SynthDigits.generate(12, 3);
        let images = data
            .iter()
            .map(|(image, _)| {
                let mut image = image.clone();
                image.pixels_mut()[0] = 0.0;
                image
            })
            .collect();
        Dataset::from_parts(data.name(), images, data.labels().to_vec())
    }

    /// A network whose column 5 holds one NaN word, on input line 0, and
    /// (unless `live`) zeros everywhere else.
    fn net_with_corrupt_column(live: bool) -> DiehlCookNetwork {
        let mut net = small_net();
        net.with_weights_mut(|w| {
            if !live {
                for i in 0..w.inputs() {
                    w.set(i, 5, 0.0);
                }
            }
            w.set(0, 5, f32::NAN);
        });
        net
    }

    #[test]
    fn a_nan_in_a_dead_column_keeps_training_on_the_generic_kernels() {
        let data = digits_with_dark_pixel_0();
        let mut fast = net_with_corrupt_column(false);
        let mut generic = fast.clone();
        let stats = train_epoch_inline(&mut fast, &data, 4);
        // The column stays dead, so normalisation keeps the NaN and the
        // store never becomes clean.
        assert!(fast.weights().raw(0, 5).is_nan());
        assert_eq!(stats.clean_samples, 0);
        train_epoch_generic_only(&mut generic, &data, 4);
        assert_eq!(weight_bits(&fast), weight_bits(&generic));
    }

    #[test]
    fn a_nan_in_a_live_column_is_scrubbed_after_the_first_sample() {
        let data = digits_with_dark_pixel_0();
        let mut fast = net_with_corrupt_column(true);
        let mut generic = fast.clone();
        let stats = train_epoch_inline(&mut fast, &data, 4);
        assert_eq!(stats.clean_samples, data.len() - 1);
        train_epoch_generic_only(&mut generic, &data, 4);
        assert_eq!(weight_bits(&fast), weight_bits(&generic));
    }

    #[test]
    fn learning_run_sample_matches_a_one_sample_epoch() {
        let data = SynthDigits.generate(1, 3);
        let mut by_sample = net_with_corrupt_column(true);
        let mut by_epoch = by_sample.clone();
        let mut rng = StdRng::seed_from_u64(8);
        by_sample
            .run_sample(data.get(0).0.pixels(), &mut rng, true)
            .unwrap();
        by_epoch.train_epoch(&data, 8);
        assert_eq!(by_sample, by_epoch);
    }

    #[test]
    fn training_leaves_plane_consistent() {
        let mut net = small_net();
        let data = SynthDigits.generate(10, 3);
        net.train_epoch(&data, 4);
        assert!(net
            .params()
            .effective_plane()
            .is_consistent_with(net.weights()));
        let mut rng = StdRng::seed_from_u64(5);
        net.run_sample(data.get(0).0.pixels(), &mut rng, true)
            .unwrap();
        assert!(net
            .params()
            .effective_plane()
            .is_consistent_with(net.weights()));
    }

    #[test]
    fn inference_leaves_network_unchanged() {
        let mut net = small_net();
        let data = SynthDigits.generate(10, 3);
        net.train_epoch(&data, 4);
        let before = net.clone();
        let mut rng = StdRng::seed_from_u64(9);
        net.run_sample(data.get(0).0.pixels(), &mut rng, false)
            .unwrap();
        let _ = net.evaluate(&data, &net.label_neurons(&data, 5), 6);
        assert_eq!(net, before, "inference must not mutate the network");
    }

    #[test]
    fn params_run_sample_matches_network_inference() {
        let mut net = small_net();
        let data = SynthDigits.generate(10, 3);
        net.train_epoch(&data, 4);
        let mut rng_a = StdRng::seed_from_u64(11);
        let via_net = net
            .run_sample(data.get(0).0.pixels(), &mut rng_a, false)
            .unwrap();
        let mut rng_b = StdRng::seed_from_u64(11);
        let mut state = RunState::for_params(net.params());
        let via_params = net
            .params()
            .run_sample(&mut state, data.get(0).0.pixels(), &mut rng_b)
            .unwrap();
        assert_eq!(via_net, via_params);
    }

    #[test]
    fn run_state_reuse_is_bit_identical_to_fresh_state() {
        let mut net = small_net();
        let data = SynthDigits.generate(6, 3);
        net.train_epoch(&data, 4);
        let params = net.params();
        let mut reused = RunState::for_params(params);
        for (i, (image, _)) in data.iter().enumerate() {
            let mut rng_a = StdRng::seed_from_u64(100 + i as u64);
            let mut rng_b = StdRng::seed_from_u64(100 + i as u64);
            let with_reuse = params
                .run_sample(&mut reused, image.pixels(), &mut rng_a)
                .unwrap();
            let mut fresh = RunState::for_params(params);
            let with_fresh = params
                .run_sample(&mut fresh, image.pixels(), &mut rng_b)
                .unwrap();
            assert_eq!(with_reuse, with_fresh, "sample {i}");
        }
    }

    /// Scalar reference for a dataset prefix: one `run_sample` per image,
    /// RNG stream `(seed, index)`.
    fn scalar_counts(params: &NetworkParams, data: &Dataset, n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut state = RunState::for_params(params);
        (0..n)
            .map(|idx| {
                let mut rng = sample_rng(seed, idx as u64);
                params
                    .run_sample(&mut state, data.get(idx).0.pixels(), &mut rng)
                    .unwrap()
            })
            .collect()
    }

    /// `run_batch` over the first `n` images in chunks of `batch`, through
    /// one reused `state`, on the reference RNG streams `(seed, index)`.
    fn batched_counts(
        params: &NetworkParams,
        state: &mut BatchState,
        data: &Dataset,
        n: usize,
        batch: usize,
        seed: u64,
    ) -> Vec<Vec<u32>> {
        let mut got = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let end = (start + batch).min(n);
            let pixels: Vec<&[f32]> = (start..end).map(|i| data.get(i).0.pixels()).collect();
            let mut rngs: Vec<StdRng> = (start..end).map(|i| sample_rng(seed, i as u64)).collect();
            got.extend(params.run_batch(state, &pixels, &mut rngs).unwrap());
            start = end;
        }
        got
    }

    #[test]
    fn run_batch_is_bit_identical_to_run_sample_for_any_batch_size() {
        let mut net = small_net();
        let data = SynthDigits.generate(17, 3);
        net.train_epoch(&data, 4);
        let params = net.params();
        let reference = scalar_counts(params, &data, 17, 77);
        for batch in [1usize, 2, 3, 8, 17] {
            let mut state = BatchState::for_params(params, batch);
            let got = batched_counts(params, &mut state, &data, 17, batch, 77);
            assert_eq!(got, reference, "batch size {batch}");
        }
    }

    #[test]
    fn run_batch_is_bit_identical_for_any_tile_width() {
        // n_neurons = 20: tile widths below, at, straddling and far above
        // the population, including widths that do not divide it.
        let mut net = small_net();
        let data = SynthDigits.generate(11, 3);
        net.train_epoch(&data, 4);
        let params = net.params();
        let reference = scalar_counts(params, &data, 11, 55);
        for tile in [1usize, 2, 3, 7, 19, 20, 21, 512, usize::MAX] {
            let mut state = BatchState::for_params(params, 4).with_tile(tile);
            let got = batched_counts(params, &mut state, &data, 11, 4, 55);
            assert_eq!(got, reference, "tile width {tile}");
        }
    }

    #[test]
    fn run_batch_matches_scalar_under_corruption_unclamped_and_hard_wta() {
        for (clamp, hard_wta) in [(true, false), (false, false), (true, true), (false, true)] {
            let mut config = SnnConfig::for_neurons(16)
                .with_timesteps(25)
                .with_clamp_reads(clamp);
            config.hard_wta = hard_wta;
            let mut params = NetworkParams::new(config);
            // Hand-corrupt the store: NaN/Inf/negative/huge values exercise
            // every branch of the read rule, plus a dead (all-zero) row.
            params.with_weights_mut(|w| {
                w.set(1, 3, f32::NAN);
                w.set(2, 5, f32::INFINITY);
                w.set(4, 0, -3.0);
                w.set(4, 1, 9.0);
                for j in 0..16 {
                    w.set(10, j, 0.0);
                }
            });
            let data = SynthDigits.generate(9, 6);
            let reference = scalar_counts(&params, &data, 9, 13);
            // tile = 5 splits n = 16 into uneven tiles, so the hard-WTA
            // winner and the inhibition strength must be resolved across
            // tile boundaries; tile = 16 is the untiled path.
            for tile in [5usize, 16] {
                let mut state = BatchState::for_params(&params, 4).with_tile(tile);
                let got = batched_counts(&params, &mut state, &data, 9, 4, 13);
                assert_eq!(
                    got, reference,
                    "clamp_reads={clamp} hard_wta={hard_wta} tile={tile}"
                );
            }
            if hard_wta {
                // The hard-WTA branch must actually decide something: at
                // most one spike per timestep, and at least one overall.
                let total: u32 = reference.iter().flatten().sum();
                assert!(total > 0, "hard-WTA run produced no spikes to compare");
                assert!(reference.iter().all(|c| c.iter().sum::<u32>() <= 25));
            }
        }
    }

    #[test]
    fn run_batch_empty_batch_is_ok() {
        let net = small_net();
        let params = net.params();
        let mut state = BatchState::for_params(params, 4);
        let counts = params.run_batch(&mut state, &[], &mut []).unwrap();
        assert!(counts.is_empty());
    }

    #[test]
    fn batch_state_reuse_across_shrinking_batches() {
        let mut net = small_net();
        let data = SynthDigits.generate(5, 3);
        net.train_epoch(&data, 4);
        let params = net.params();
        let mut state = BatchState::for_params(params, 4);
        // Full batch, then a short tail batch with the same state.
        let pixels_a: Vec<&[f32]> = (0..4).map(|i| data.get(i).0.pixels()).collect();
        let mut rngs_a: Vec<StdRng> = (0..4).map(|i| sample_rng(3, i as u64)).collect();
        let a = params
            .run_batch(&mut state, &pixels_a, &mut rngs_a)
            .unwrap();
        let pixels_b: Vec<&[f32]> = vec![data.get(4).0.pixels()];
        let mut rngs_b = vec![sample_rng(3, 4)];
        let b = params
            .run_batch(&mut state, &pixels_b, &mut rngs_b)
            .unwrap();
        let mut got = a;
        got.extend(b);
        assert_eq!(got, scalar_counts(params, &data, 5, 3));
    }

    #[test]
    fn inhibition_limits_simultaneous_winners() {
        // With strong inhibition, total spikes should be far below the
        // no-competition bound.
        let mut config = SnnConfig::for_neurons(30).with_timesteps(50);
        config.inhibition_mv = 0.0;
        let data = SynthDigits.generate(1, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut free = DiehlCookNetwork::new(config.clone());
        let free_spikes: u32 = free
            .run_sample(data.get(0).0.pixels(), &mut rng, false)
            .unwrap()
            .iter()
            .sum();
        let mut config2 = config;
        config2.inhibition_mv = 12.0;
        let mut wta = DiehlCookNetwork::new(config2);
        let mut rng2 = StdRng::seed_from_u64(6);
        let wta_spikes: u32 = wta
            .run_sample(data.get(0).0.pixels(), &mut rng2, false)
            .unwrap()
            .iter()
            .sum();
        assert!(
            wta_spikes < free_spikes,
            "inhibition should suppress spiking ({wta_spikes} vs {free_spikes})"
        );
    }

    #[test]
    fn thetas_grow_with_activity() {
        let mut net = small_net();
        let data = SynthDigits.generate(10, 3);
        net.train_epoch(&data, 4);
        assert!(net.thetas().iter().any(|&t| t > 0.0));
    }

    #[test]
    fn set_weights_roundtrip() {
        let mut net = small_net();
        let mut w = net.weights().clone();
        w.set(0, 0, 0.77);
        net.set_weights(w);
        assert_eq!(net.weights().raw(0, 0), 0.77);
        assert!(net
            .params()
            .effective_plane()
            .is_consistent_with(net.weights()));
    }

    #[test]
    fn swap_weights_rows_roundtrips_store_and_plane() {
        let mut net = small_net();
        let data = SynthDigits.generate(6, 3);
        net.train_epoch(&data, 4);
        let before = net.params().clone();
        let mut corrupted = net.weights().clone();
        corrupted.set(7, 2, f32::NAN);
        corrupted.set(7, 3, 5.0);
        corrupted.set(12, 0, -1.0);
        let rows = [7usize, 12];
        net.swap_weights_rows(&mut corrupted, &rows);
        assert!(net
            .params()
            .effective_plane()
            .is_consistent_with(net.weights()));
        assert_eq!(net.params().effective_plane().row(7)[2], 0.0);
        net.swap_weights_rows(&mut corrupted, &rows);
        assert_eq!(net.params(), &before, "swap back restores exactly");
    }

    #[test]
    fn with_weights_mut_rebuilds_plane() {
        let mut net = small_net();
        net.with_weights_mut(|w| w.set(3, 3, f32::INFINITY));
        assert!(net
            .params()
            .effective_plane()
            .is_consistent_with(net.weights()));
        assert_eq!(net.params().effective_plane().row(3)[3], 0.0);
    }

    #[test]
    fn lif_step_matches_the_lif_state_reference() {
        // The SoA step (integrate lanes, commit firing, inhibit) against
        // the per-neuron `LifState` semantics it replaced, bit for bit,
        // under both WTA modes and every kernel.
        use crate::neuron::LifState;
        use rand::Rng;
        let n = 13;
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &kernel in Kernel::available() {
            for hard_wta in [false, true] {
                let mut config = SnnConfig::for_neurons(n);
                config.hard_wta = hard_wta;
                let thetas: Vec<f32> = (0..n).map(|j| j as f32 * 0.3).collect();
                let mut state = RunState::default();
                state.begin_sample(&config, &thetas);
                let mut neurons: Vec<LifState> = thetas
                    .iter()
                    .map(|&theta| LifState {
                        v: config.lif.v_rest,
                        theta,
                        refractory_left: 0.0,
                    })
                    .collect();
                let lif = &config.lif;
                let mut rng = StdRng::seed_from_u64(3);
                let (mut counts, mut expected_counts) = (vec![0u32; n], vec![0u32; n]);
                for step in 0..80 {
                    let drive: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() * 9.0).collect();
                    state.drive.copy_from_slice(&drive);
                    state.lif_step(&config, kernel, &mut counts);

                    let mut fired = Vec::new();
                    if hard_wta {
                        let mut winner: Option<(usize, f32)> = None;
                        for (j, neuron) in neurons.iter_mut().enumerate() {
                            if neuron.integrate(lif, drive[j], config.dt_ms) {
                                let margin = neuron.threshold_margin(lif);
                                if winner.is_none_or(|(_, best)| margin > best) {
                                    winner = Some((j, margin));
                                }
                            }
                        }
                        if let Some((j, _)) = winner {
                            neurons[j].fire(lif);
                            fired.push(j);
                        }
                    } else {
                        for (j, neuron) in neurons.iter_mut().enumerate() {
                            if neuron.step(lif, drive[j], config.dt_ms) {
                                fired.push(j);
                            }
                        }
                    }
                    let strength = config.inhibition_mv * fired.len() as f32;
                    for (j, neuron) in neurons.iter_mut().enumerate() {
                        if !fired.is_empty() && !fired.contains(&j) {
                            neuron.inhibit(lif, strength);
                        }
                    }
                    for &j in &fired {
                        expected_counts[j] += 1;
                    }

                    let what = format!("{kernel:?} hard_wta={hard_wta} step={step}");
                    assert_eq!(state.last_fired(), &fired[..], "{what}");
                    let field = |f: fn(&LifState) -> f32| neurons.iter().map(f).collect::<Vec<_>>();
                    assert_eq!(bits(&state.v), bits(&field(|s| s.v)), "{what}");
                    assert_eq!(bits(&state.theta), bits(&field(|s| s.theta)), "{what}");
                    assert_eq!(
                        bits(&state.refractory),
                        bits(&field(|s| s.refractory_left)),
                        "{what}"
                    );
                }
                assert_eq!(counts, expected_counts);
                assert!(
                    counts.iter().sum::<u32>() > 0,
                    "the drive must make neurons fire"
                );
            }
        }
    }

    #[test]
    fn clone_from_refreshes_a_snapshot_in_place() {
        let data = SynthDigits.generate(6, 3);
        let mut net = small_net();
        let mut snap = net.clone();
        let weights_ptr = snap.weights().as_slice().as_ptr();
        let plane_ptr = snap.params().effective_plane().row(0).as_ptr();
        net.train_epoch(&data, 4);
        // Not NaN: `==` below compares words, and NaN != NaN.
        net.with_weights_mut(|w| w.set(3, 2, f32::INFINITY));
        assert_ne!(snap, net);
        snap.clone_from(&net);
        assert_eq!(snap, net);
        assert_eq!(
            snap.weights().as_slice().as_ptr(),
            weights_ptr,
            "store reused"
        );
        assert_eq!(
            snap.params().effective_plane().row(0).as_ptr(),
            plane_ptr,
            "plane reused"
        );
        assert_eq!(
            snap.params().effective_plane(),
            &EffectivePlane::build(snap.weights(), snap.config().clamp_reads)
        );
    }

    #[test]
    fn rebuild_plane_keeps_the_plane_buffer() {
        // Training and injection re-derive the plane in place: no new
        // plane allocation per epoch or per corruption, under either
        // read rule.
        for clamp in [true, false] {
            let mut net = DiehlCookNetwork::new(
                SnnConfig::for_neurons(20)
                    .with_timesteps(30)
                    .with_clamp_reads(clamp),
            );
            let ptr = net.params().effective_plane().row(0).as_ptr();
            net.train_epoch(&SynthDigits.generate(4, 3), 4);
            net.with_weights_mut(|w| {
                w.set(0, 0, f32::INFINITY);
                w.set(1, 2, -3.0);
                for j in 0..20 {
                    w.set(5, j, 0.0);
                }
            });
            let plane = net.params().effective_plane();
            assert_eq!(plane.row(0).as_ptr(), ptr, "clamp={clamp}");
            assert!(plane.is_consistent_with(net.weights()), "clamp={clamp}");
            assert!(!plane.row_live(5), "clamp={clamp}");
        }
    }

    #[test]
    fn from_params_roundtrip() {
        let mut net = small_net();
        let data = SynthDigits.generate(10, 3);
        net.train_epoch(&data, 4);
        let rebuilt = DiehlCookNetwork::from_params(net.clone().into_params());
        assert_eq!(rebuilt.weights(), net.weights());
        assert_eq!(rebuilt.thetas(), net.thetas());
    }

    #[test]
    #[should_panic(expected = "neuron count")]
    fn set_weights_shape_mismatch_panics() {
        let mut net = small_net();
        let w = StoredWeights::random(784, 5, 1.0, 0);
        net.set_weights(w);
    }
}
