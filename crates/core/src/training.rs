//! Fault-aware training (paper Section IV-B, Algorithm 1).
//!
//! The improved SNN is obtained by training under injected bit errors,
//! raising the BER step by step from the smallest scheduled rate to the
//! largest so the network adapts gradually. After each rate step, accuracy
//! *under that error rate* is measured; the largest rate whose accuracy
//! stays within the user bound of the error-free baseline becomes the
//! candidate `BER_th`, and the corresponding weights become the improved
//! model (Algorithm 1 lines 10–13).

use crate::corrupt::{self, Errors, Scratch};
use crate::CoreError;
use sparkxd_data::Dataset;
use sparkxd_error::{ErrorModel, InjectError, Injector};
use sparkxd_snn::{BatchEvaluator, DiehlCookNetwork, DrawnSpikes, NeuronLabeler, WeightPrecision};

/// Configuration of the fault-aware training loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// Increasing BER schedule (Algorithm 1's `rates`); the paper uses
    /// decade steps, e.g. `1e-9 … 1e-3`.
    pub ber_schedule: Vec<f64>,
    /// Training epochs at each scheduled rate (`N_epoch`).
    pub epochs_per_rate: usize,
    /// Accuracy bound below the error-free baseline (`acc_bound`); the
    /// paper uses 0.01 (1%).
    pub accuracy_bound: f64,
    /// DRAM error model used for injection (the paper uses Model 0).
    pub error_model: ErrorModel,
    /// Seed for error injection.
    pub injection_seed: u64,
    /// Seed for spike-train generation during training/evaluation.
    pub spike_seed: u64,
    /// Evaluation repetitions per rate (averaged; reduces Poisson noise).
    pub eval_trials: usize,
}

impl TrainingConfig {
    /// The paper's decade schedule from 1e-9 to 1e-3 with sensible
    /// defaults for the remaining knobs.
    pub fn paper_default() -> Self {
        Self {
            ber_schedule: vec![1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3],
            epochs_per_rate: 1,
            accuracy_bound: 0.01,
            error_model: ErrorModel::Model0,
            injection_seed: 0x5EED,
            spike_seed: 0x51_4B,
            eval_trials: 1,
        }
    }

    /// A short schedule for tests and demos.
    pub fn quick() -> Self {
        Self {
            ber_schedule: vec![1e-5, 1e-3],
            ..Self::paper_default()
        }
    }
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Result of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAwareOutcome {
    /// Error-free accuracy of the starting (baseline) model (`model0.acc`).
    pub baseline_accuracy: f64,
    /// Accuracy of the improved model evaluated *without* errors.
    pub improved_clean_accuracy: f64,
    /// `(ber, accuracy-under-that-ber)` pairs, one per scheduled rate.
    pub curve: Vec<(f64, f64)>,
    /// The maximum tolerable BER (`BER_th`), if any rate met the bound.
    pub max_tolerable_ber: Option<f64>,
    /// Neuron labelling of the improved model.
    pub labeler: NeuronLabeler,
}

/// Runs Algorithm 1 against a network in place.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAwareTrainer {
    config: TrainingConfig,
}

impl FaultAwareTrainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainingConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// Measures accuracy of `net` under uniformly injected errors at
    /// `ber`, averaged over `trials` fresh error patterns. Weights are
    /// restored afterwards.
    ///
    /// Each trial's evaluation is sharded across samples by the parallel
    /// engine; the trials themselves stay sequential because they share
    /// one injector stream. Only one scratch weight copy is allocated for
    /// the whole call — it is corrupted, swapped in, and swapped back out,
    /// with only the plane rows the injection actually touched re-derived
    /// on each swap.
    pub fn accuracy_under_errors(
        &self,
        net: &mut DiehlCookNetwork,
        labeler: &NeuronLabeler,
        test: &Dataset,
        ber: f64,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let mut scratch = Scratch::for_net(net);
        self.accuracy_under_errors_in(net, ber, trials, seed, &mut scratch, |net, trial| {
            net.evaluate(test, labeler, self.trial_seed(trial))
        })
    }

    /// [`accuracy_under_errors`](Self::accuracy_under_errors) on
    /// caller-owned scratch, so repeated calls allocate nothing, scoring
    /// trial `t` with `evaluate(net, t)`.
    fn accuracy_under_errors_in(
        &self,
        net: &mut DiehlCookNetwork,
        ber: f64,
        trials: usize,
        seed: u64,
        scratch: &mut Scratch,
        evaluate: impl FnMut(&DiehlCookNetwork, usize) -> f64,
    ) -> f64 {
        corrupt::mean_accuracy(
            net,
            WeightPrecision::Fp32,
            scratch,
            Injector::new(self.config.error_model, seed),
            Errors::Uniform(ber),
            trials,
            evaluate,
        )
        .expect("uniform injection cannot fail")
    }

    /// The spike seed of error trial `trial`'s test evaluation.
    fn trial_seed(&self, trial: usize) -> u64 {
        self.config.spike_seed ^ (trial as u64) << 32
    }

    /// Checks that every scheduled rate lies in `[0, 0.5]` (NaN fails).
    pub(crate) fn check_schedule(config: &TrainingConfig) -> Result<(), CoreError> {
        match config
            .ber_schedule
            .iter()
            .find(|b| !(0.0..=0.5).contains(*b))
        {
            Some(&ber) => Err(CoreError::Inject(InjectError::InvalidBer(ber))),
            None => Ok(()),
        }
    }

    /// Improves and analyses the error tolerance of `net` (Algorithm 1).
    ///
    /// `net` must already be trained error-free (the baseline `model0`);
    /// on return it holds the improved model (`model1`) — the weights from
    /// the highest scheduled BER whose accuracy met the bound, or from the
    /// last schedule step if none did.
    ///
    /// The rate steps train one after another (each adapts the weights
    /// the next step starts from), but a step's retraining never needs the
    /// previous step's accuracy. So the evaluations are pipelined behind
    /// the training through [`DiehlCookNetwork::train_epoch_with`]: while
    /// step k+1 trains on the calling thread, a pool helper labels and
    /// measures a snapshot of the step-k model (the baseline `model0`
    /// evaluation overlaps step 0), then encodes the rest of the epoch's
    /// spike trains. The last step's evaluation and the final clean
    /// evaluation run afterwards on the full thread budget. Every
    /// evaluation is a pure function of (model, dataset, seed) with its
    /// own per-step injector, so the outcome is bit-identical to running
    /// the steps strictly in order — which is exactly what happens on one
    /// configured thread.
    ///
    /// Snapshots are recycled through the buffer-reusing `clone_from`:
    /// at most three are live (one under evaluation, the best so far and
    /// one spare), and a winning snapshot moves into the best slot.
    ///
    /// Every checkpoint is labelled on the same spike trains of the
    /// training set, and every step scores its error trials on the same
    /// trains of the test set, because a spike train depends on the
    /// sample and seed, not on the model. Those sets are drawn once, up
    /// front, across the thread budget ([`DrawnSpikes`]), and dropped on
    /// return; each evaluation reads them instead of drawing again, with
    /// the same results.
    ///
    /// # Errors
    ///
    /// [`CoreError::Inject`] with [`InjectError::InvalidBer`] if a
    /// scheduled rate is outside `[0, 0.5]` (NaN included), before any
    /// training.
    pub fn improve(
        &self,
        net: &mut DiehlCookNetwork,
        train: &Dataset,
        test: &Dataset,
    ) -> Result<FaultAwareOutcome, CoreError> {
        let cfg = &self.config;
        Self::check_schedule(cfg)?;
        let spikes = EvalSpikes::draw(self, net, train, test);
        let mut injector = Injector::new(cfg.error_model, cfg.injection_seed);
        let mut tally = Tally {
            accuracy_bound: cfg.accuracy_bound,
            baseline_accuracy: 0.0,
            curve: Vec::with_capacity(cfg.ber_schedule.len()),
            best: None,
        };
        let mut scratch = Scratch::for_net(net);
        let mut spare: Option<DiehlCookNetwork> = None;
        let mut pending = Checkpoint::Baseline;
        for (step, &ber) in cfg.ber_schedule.iter().enumerate() {
            let mut snapshot = match spare.take() {
                Some(mut recycled) => {
                    recycled.clone_from(net);
                    recycled
                }
                None => net.clone(),
            };
            let (labeler, accuracy) = self.adapt(net, &mut injector, train, step, ber, || {
                let _span = sparkxd_telemetry::span!("fat.step_eval");
                self.measure(&mut snapshot, &mut scratch, &spikes, train, test, pending)
            });
            spare = tally.record(pending, accuracy, labeler, Some(snapshot));
            pending = Checkpoint::Step { index: step, ber };
        }
        drop(spare);
        // The last checkpoint is the trained network itself.
        let (labeler, accuracy) = self.measure(net, &mut scratch, &spikes, train, test, pending);
        tally.record(pending, accuracy, labeler, None);

        let Tally {
            baseline_accuracy,
            curve,
            best,
            ..
        } = tally;
        let (max_tolerable_ber, labeler) = match best {
            Some((ber, model, labeler)) => {
                if let Some(model) = model {
                    *net = model;
                }
                (Some(ber), labeler)
            }
            None => (None, spikes.label(net, train)),
        };
        drop(spikes);
        let improved_clean_accuracy = net.evaluate(test, &labeler, cfg.spike_seed ^ 0xEF01);
        Ok(FaultAwareOutcome {
            baseline_accuracy,
            improved_clean_accuracy,
            curve,
            max_tolerable_ber,
            labeler,
        })
    }

    /// Algorithm 1 lines 3-4 for one rate step: generate and inject errors
    /// into the model, then train with them in place. `side` (the previous
    /// checkpoint's evaluation) runs on the pool helper during the first
    /// epoch, through [`DiehlCookNetwork::train_epoch_with`]; with no
    /// epochs scheduled it runs after the injection. Returns its result.
    #[allow(clippy::too_many_arguments)]
    fn adapt<R: Send>(
        &self,
        net: &mut DiehlCookNetwork,
        injector: &mut Injector,
        train: &Dataset,
        step: usize,
        ber: f64,
        side: impl FnOnce() -> R + Send,
    ) -> R {
        let cfg = &self.config;
        let seed = |epoch: usize| cfg.spike_seed ^ ((step * 31 + epoch) as u64);
        net.with_weights_mut(|w| injector.inject_uniform(w.as_mut_slice(), ber));
        if cfg.epochs_per_rate == 0 {
            return side();
        }
        let (_, out) = net.train_epoch_with(train, seed(0), side);
        for epoch in 1..cfg.epochs_per_rate {
            net.train_epoch(train, seed(epoch));
        }
        out
    }

    /// Labels `model` and measures its accuracy at checkpoint `at`:
    /// error-free for the baseline, under that step's errors (lines 8-9)
    /// otherwise. Leaves `model` unchanged.
    fn measure(
        &self,
        model: &mut DiehlCookNetwork,
        scratch: &mut Scratch,
        spikes: &EvalSpikes,
        train: &Dataset,
        test: &Dataset,
        at: Checkpoint,
    ) -> (NeuronLabeler, f64) {
        let cfg = &self.config;
        let labeler = spikes.label(model, train);
        let accuracy = match at {
            Checkpoint::Baseline => model.evaluate(test, &labeler, cfg.spike_seed ^ 0xEF01),
            Checkpoint::Step { index, ber } => self.accuracy_under_errors_in(
                model,
                ber,
                cfg.eval_trials,
                cfg.injection_seed ^ (index as u64) << 16,
                scratch,
                |net, trial| {
                    BatchEvaluator::from_env().evaluate_drawn(
                        net.params(),
                        test,
                        &labeler,
                        &spikes.trials[trial],
                    )
                },
            ),
        };
        (labeler, accuracy)
    }
}

/// The spike trains Algorithm 1 presents at every checkpoint: the
/// training set under the labelling seed, and the test set under each
/// error trial's seed (none without a scheduled step).
struct EvalSpikes {
    label: DrawnSpikes,
    trials: Vec<DrawnSpikes>,
}

impl EvalSpikes {
    fn draw(
        trainer: &FaultAwareTrainer,
        net: &DiehlCookNetwork,
        train: &Dataset,
        test: &Dataset,
    ) -> Self {
        let cfg = &trainer.config;
        let config = net.config();
        let trials = if cfg.ber_schedule.is_empty() {
            0
        } else {
            cfg.eval_trials.max(1)
        };
        Self {
            label: DrawnSpikes::draw(config, train, cfg.spike_seed ^ 0xABCD),
            trials: (0..trials)
                .map(|trial| DrawnSpikes::draw(config, test, trainer.trial_seed(trial)))
                .collect(),
        }
    }

    /// `model`'s neuron labels from the training set: `label_neurons` at
    /// the labelling seed.
    fn label(&self, model: &DiehlCookNetwork, train: &Dataset) -> NeuronLabeler {
        BatchEvaluator::from_env().label_neurons_drawn(model.params(), train, &self.label)
    }
}

/// A model state Algorithm 1 evaluates: the error-free baseline
/// (`model0`) or the model adapted at one BER step.
#[derive(Debug, Clone, Copy)]
enum Checkpoint {
    Baseline,
    Step { index: usize, ber: f64 },
}

/// Algorithm 1's running result, recorded one checkpoint at a time in
/// schedule order.
struct Tally {
    accuracy_bound: f64,
    baseline_accuracy: f64,
    curve: Vec<(f64, f64)>,
    /// The highest rate meeting the target so far, with its model (`None`
    /// when that model is the trained network itself) and labelling.
    best: Option<(f64, Option<DiehlCookNetwork>, NeuronLabeler)>,
}

impl Tally {
    /// Records checkpoint `at`; returns the model it no longer needs (a
    /// losing snapshot or a displaced best) for recycling.
    fn record(
        &mut self,
        at: Checkpoint,
        accuracy: f64,
        labeler: NeuronLabeler,
        model: Option<DiehlCookNetwork>,
    ) -> Option<DiehlCookNetwork> {
        let Checkpoint::Step { ber, .. } = at else {
            self.baseline_accuracy = accuracy;
            return model;
        };
        self.curve.push((ber, accuracy));
        // Lines 10-13: keep the highest rate meeting the target.
        if accuracy >= self.baseline_accuracy - self.accuracy_bound {
            self.best
                .replace((ber, model, labeler))
                .and_then(|(_, displaced, _)| displaced)
        } else {
            model
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkxd_data::{SynthDigits, SyntheticSource};
    use sparkxd_snn::SnnConfig;

    fn trained_net(neurons: usize, train: &Dataset) -> DiehlCookNetwork {
        let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(neurons).with_timesteps(40));
        net.train_epoch(train, 11);
        net
    }

    #[test]
    fn improve_produces_monotone_schedule_coverage() {
        let train = SynthDigits.generate(60, 1);
        let test = SynthDigits.generate(30, 2);
        let mut net = trained_net(30, &train);
        let trainer = FaultAwareTrainer::new(TrainingConfig::quick());
        let out = trainer.improve(&mut net, &train, &test).unwrap();
        assert_eq!(out.curve.len(), 2);
        assert!(out.curve[0].0 < out.curve[1].0);
        assert!(out.baseline_accuracy >= 0.0 && out.baseline_accuracy <= 1.0);
    }

    #[test]
    fn ber_th_is_from_schedule_when_present() {
        let train = SynthDigits.generate(60, 1);
        let test = SynthDigits.generate(30, 2);
        let mut net = trained_net(30, &train);
        let mut cfg = TrainingConfig::quick();
        // A generous bound guarantees at least the first rate passes.
        cfg.accuracy_bound = 1.0;
        let trainer = FaultAwareTrainer::new(cfg.clone());
        let out = trainer.improve(&mut net, &train, &test).unwrap();
        let ber = out.max_tolerable_ber.expect("bound of 1.0 always met");
        assert!(cfg.ber_schedule.contains(&ber));
        // With the full bound, the last (largest) rate wins.
        assert_eq!(ber, *cfg.ber_schedule.last().unwrap());
    }

    #[test]
    fn impossible_bound_yields_none() {
        let train = SynthDigits.generate(60, 1);
        let test = SynthDigits.generate(30, 2);
        let mut net = trained_net(30, &train);
        let mut cfg = TrainingConfig::quick();
        cfg.accuracy_bound = -2.0; // accuracy can never exceed baseline + 2
        let trainer = FaultAwareTrainer::new(cfg);
        let out = trainer.improve(&mut net, &train, &test).unwrap();
        assert_eq!(out.max_tolerable_ber, None);
    }

    #[test]
    fn improve_without_retraining_still_evaluates_every_step() {
        let train = SynthDigits.generate(40, 1);
        let test = SynthDigits.generate(20, 2);
        let mut net = trained_net(20, &train);
        let before = net.weights().clone();
        let cfg = TrainingConfig {
            epochs_per_rate: 0,
            accuracy_bound: 1.0,
            ..TrainingConfig::quick()
        };
        let out = FaultAwareTrainer::new(cfg.clone())
            .improve(&mut net, &train, &test)
            .unwrap();
        let rates: Vec<f64> = out.curve.iter().map(|&(ber, _)| ber).collect();
        assert_eq!(rates, cfg.ber_schedule);
        assert!(out.curve.iter().all(|&(_, acc)| (0.0..=1.0).contains(&acc)));
        assert!(out.baseline_accuracy > 0.0, "the baseline was measured");
        assert_ne!(net.weights(), &before, "the last step's injection stays");
    }

    #[test]
    fn accuracy_under_errors_restores_weights() {
        let train = SynthDigits.generate(40, 1);
        let test = SynthDigits.generate(20, 2);
        let mut net = trained_net(20, &train);
        let labeler = net.label_neurons(&train, 3);
        let before = net.weights().clone();
        let trainer = FaultAwareTrainer::new(TrainingConfig::quick());
        let _ = trainer.accuracy_under_errors(&mut net, &labeler, &test, 1e-3, 2, 5);
        assert_eq!(net.weights(), &before);
    }

    #[test]
    fn training_under_errors_is_deterministic() {
        let train = SynthDigits.generate(40, 1);
        let test = SynthDigits.generate(20, 2);
        let run = || {
            let mut net = trained_net(20, &train);
            let trainer = FaultAwareTrainer::new(TrainingConfig::quick());
            let out = trainer.improve(&mut net, &train, &test).unwrap();
            (out.curve.clone(), net.weights().as_slice().to_vec())
        };
        assert_eq!(run(), run());
    }
}
