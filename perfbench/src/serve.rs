//! `serve_n400`: a 3-tier voltage ladder behind `SparkXdService`, driven
//! open loop from one generator thread that also drains the responses.
//!
//! Two phases: a paced Poisson phase at a fixed rate (latency from each
//! request's scheduled send time to the generator's receipt of its
//! answer), then bursts that submit every request at once (completions
//! per second). Rates are constants, never derived from measured
//! capacity, so a faster engine meets the same offered load.

use crate::{median, peak_rss_mb, percentile, print_report, windowed_tail, Outcome, Spans};
use rand::rngs::StdRng;
use sparkxd_core::pipeline::{DatasetKind, PipelineConfig};
use sparkxd_core::{TierBuilder, TierModel};
use sparkxd_data::{Dataset, SynthDigits, SyntheticSource};
use sparkxd_serve::{
    arrival_trace, Arrival, LoadSpec, RoutePolicy, Router, ServeRequest, ServeResponse,
    ServiceConfig, SparkXdService, SubmitError, TierInfo,
};
use sparkxd_snn::engine::{batch_size, configured_threads, sample_rng};
use sparkxd_snn::{
    BatchEvaluator, BatchState, DiehlCookNetwork, IntraChoice, NetworkParams, RunState, SnnConfig,
};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// Offered rate of the paced phase (requests/s).
const PACED_RATE: f64 = 3000.0;
/// Share of `--seconds` the paced phase lasts.
const PACED_SHARE: f64 = 0.45;
/// Requests per burst.
const BURST_REQUESTS: usize = 4000;
/// Seconds of `--seconds` per burst; `throughput_sps` is the bursts'
/// median.
const SECONDS_PER_BURST: u64 = 2;
/// Every `CHECK_STRIDE`-th id of each phase is re-answered offline.
const CHECK_STRIDE: usize = 701;
/// Tiers of the default ladder (`serve.tier_hits.<i>`).
const TIERS: usize = 3;
/// The ladder's maximum tolerable BER.
const BER_TH: f64 = 1e-4;
/// Longest the generator waits for an outstanding answer.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(20);
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Samples of the model's one training epoch.
const TRAIN_SAMPLES: usize = 48;
/// Single-thread `run_batch` chunks a traced run times, enough for a
/// p99 with ten chunks beyond it.
const SERIAL_CHUNKS: usize = 1000;
/// Parallel `spike_counts` passes a traced run times.
const PARALLEL_PASSES: usize = 9;
/// Seed of the model, its training set and the device behind the ladder.
/// The ladder is fixed; the workload seed picks the inputs (request
/// images, arrival times, policies and spike trains).
const MODEL_SEED: u64 = 42;

struct Setup {
    tiers: Vec<TierModel>,
    requests: Dataset,
}

/// Trains the N400 model briefly and builds the voltage ladder around it
/// at `BER_th` 1e-4 (the serving soak recipe), plus the request images
/// generated from `seed`.
fn setup(seed: u64, spans: &mut Spans) -> Result<Setup, String> {
    let config = PipelineConfig {
        train_samples: TRAIN_SAMPLES,
        test_samples: 32,
        ..PipelineConfig::paper_network(400, DatasetKind::Digits, MODEL_SEED)
    };
    let (train, requests) = spans.time("data.generate_s", || {
        (
            SynthDigits.generate(TRAIN_SAMPLES, MODEL_SEED ^ 0xDA7A),
            SynthDigits.generate(256, seed ^ 0x10AD),
        )
    });
    let mut net = DiehlCookNetwork::new(
        SnnConfig::for_neurons(400)
            .with_timesteps(config.timesteps)
            .with_weight_seed(MODEL_SEED ^ 0x11),
    );
    spans.time("snn.train_epoch_s", || {
        net.train_epoch(&train, MODEL_SEED ^ 2)
    });
    let ladder = spans
        .time("core.build_tiers_s", || {
            TierBuilder::new(config).build_from_model(&net, BER_TH)
        })
        .map_err(|e| format!("tier ladder: {e}"))?;
    Ok(Setup {
        tiers: ladder.tiers,
        requests,
    })
}

/// `serve_load`'s four-policy mix over `tiers`.
fn policy_mix(tiers: &[TierModel]) -> Vec<RoutePolicy> {
    vec![
        RoutePolicy::AccuracyFloor(0.5),
        RoutePolicy::EnergyBudget(tiers[0].dram_pass_mj * 1.2),
        RoutePolicy::DeadlineSlack(tiers[tiers.len() - 1].dram_pass_ns),
        RoutePolicy::AccuracyFloor(0.0),
    ]
}

/// What one phase observed, per request id.
#[derive(Default)]
struct Phase {
    /// `(second of the schedule, scheduled send → receipt in s)` per
    /// answered request.
    latency: Vec<(u64, f64)>,
    /// `submit` call time (s), per submission.
    submit: Vec<f64>,
    /// Actual submit start − scheduled send (s), per submission.
    late: Vec<f64>,
    queue: Vec<f64>,
    service: Vec<f64>,
    chunk_len_sum: u64,
    dram_mj_sum: f64,
    tier_hits: [u64; TIERS],
    /// First submit → last receipt (s).
    wall: f64,
    /// `(id, label, tier)` of the ids the offline check re-answers.
    sampled: Vec<(u64, Option<u8>, usize)>,
    answered: u64,
}

/// Replays `trace` against a fresh service, draining answers on this
/// thread between submissions, and checks every admitted id is answered
/// exactly once.
fn phase(
    tiers: &[TierModel],
    config: ServiceConfig,
    requests: &Dataset,
    trace: &[Arrival],
    out: &mut Outcome,
) -> Phase {
    let (service, rx) = SparkXdService::start(tiers.to_vec(), config);
    let mut seen = vec![false; trace.len()];
    let mut p = Phase::default();
    let mut admitted = 0u64;
    let start = Instant::now();
    for (id, arrival) in trace.iter().enumerate() {
        let (image, _) = requests.get(arrival.sample_index);
        let request = ServeRequest {
            id: id as u64,
            pixels: image.pixels().to_vec(),
            policy: arrival.policy,
        };
        let due = start + Duration::from_nanos(arrival.at_ns);
        // Wait for the send time, taking answers as they arrive.
        loop {
            let wait = due.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                break;
            }
            match rx.recv_timeout(wait) {
                Ok(r) => record(&mut p, &mut seen, trace, start, r, out),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => std::thread::sleep(wait),
            }
        }
        let sent = Instant::now();
        let result = service.submit(request);
        p.submit.push(sent.elapsed().as_secs_f64());
        p.late.push(sent.duration_since(due).as_secs_f64());
        match result {
            Ok(_) => admitted += 1,
            Err(SubmitError::QueueFull { .. }) => out.check(false, "request refused: queue full"),
            Err(e) => out.check(false, &format!("submit failed: {e}")),
        }
        while let Ok(r) = rx.try_recv() {
            record(&mut p, &mut seen, trace, start, r, out);
        }
    }
    while p.answered < admitted {
        match rx.recv_timeout(ANSWER_TIMEOUT) {
            Ok(r) => record(&mut p, &mut seen, trace, start, r, out),
            Err(_) => break,
        }
    }
    p.wall = start.elapsed().as_secs_f64();
    let snapshot = service.shutdown();
    // The workers have exited: anything still queued is a duplicate.
    for r in rx.try_iter() {
        record(&mut p, &mut seen, trace, start, r, out);
    }
    out.tally(admitted, admitted.saturating_sub(p.answered));
    out.check(
        snapshot.completed == p.answered,
        "service metrics disagree with the answers received",
    );
    p
}

fn record(
    p: &mut Phase,
    seen: &mut [bool],
    trace: &[Arrival],
    start: Instant,
    r: ServeResponse,
    out: &mut Outcome,
) {
    let received = start.elapsed().as_secs_f64();
    let id = r.id as usize;
    if id >= seen.len() || std::mem::replace(&mut seen[id], true) {
        out.check(false, &format!("id {id} answered twice or unknown"));
        return;
    }
    p.answered += 1;
    let due = trace[id].at_ns;
    p.latency
        .push((due / 1_000_000_000, received - due as f64 * 1e-9));
    p.queue.push(r.queue_ns as f64 * 1e-9);
    p.service.push(r.service_ns as f64 * 1e-9);
    p.chunk_len_sum += r.chunk_len as u64;
    p.dram_mj_sum += r.dram_share_mj;
    if let Some(hits) = p.tier_hits.get_mut(r.tier) {
        *hits += 1;
    }
    if id.is_multiple_of(CHECK_STRIDE) {
        p.sampled.push((r.id, r.label, r.tier));
    }
}

/// Re-answers the sampled ids offline: the router's tier for the
/// request's policy, and `run_sample` under `sample_rng(spike_seed, id)`.
fn check_offline(
    tiers: &[TierModel],
    spike_seed: u64,
    requests: &Dataset,
    trace: &[Arrival],
    sampled: &[(u64, Option<u8>, usize)],
    out: &mut Outcome,
) {
    let router = Router::new(tiers.iter().map(TierInfo::of).collect());
    for &(id, label, tier) in sampled {
        let arrival = &trace[id as usize];
        let want_tier = router.route(arrival.policy);
        let model = &tiers[want_tier];
        let mut state = RunState::for_params(&model.params);
        let mut rng = sample_rng(spike_seed, id);
        let pixels = requests.get(arrival.sample_index).0.pixels();
        let want_label = model
            .params
            .run_sample(&mut state, pixels, &mut rng)
            .ok()
            .map(|counts| model.labeler.predict(&counts));
        out.check(
            tier == want_tier && want_label == Some(label),
            &format!("id {id}: served ({label:?}, {tier}), offline ({want_label:?}, {want_tier})"),
        );
    }
}

/// Runs every chunk of `set` through `run_batch` on the calling thread
/// (intra-chunk helpers off), returning the counts and each chunk's
/// wall time in seconds.
fn serial_pass(params: &NetworkParams, set: &Dataset, seed: u64) -> (Vec<Vec<u32>>, Vec<f64>) {
    let batch = batch_size();
    let mut state = BatchState::for_params(params, batch).with_intra(IntraChoice::Off);
    let mut counts = Vec::with_capacity(set.len());
    let mut times = Vec::with_capacity(set.len().div_ceil(batch));
    for start in (0..set.len()).step_by(batch) {
        let end = (start + batch).min(set.len());
        let pixels: Vec<&[f32]> = (start..end).map(|i| set.get(i).0.pixels()).collect();
        let mut rngs: Vec<StdRng> = (start..end).map(|i| sample_rng(seed, i as u64)).collect();
        let t = Instant::now();
        let chunk = params
            .run_batch(&mut state, &pixels, &mut rngs)
            .expect("generated images match the input size");
        times.push(t.elapsed().as_secs_f64());
        counts.extend(chunk);
    }
    (counts, times)
}

/// The engine behind the service, offline: single-thread `run_batch`
/// chunks against `BatchEvaluator::from_env().spike_counts` passes over
/// the request images on tier 0's model. Every pass must give the same
/// counts.
fn engine_probe(params: &NetworkParams, set: &Dataset, seed: u64, out: &mut Outcome) {
    let serial_passes = SERIAL_CHUNKS.div_ceil(set.len().div_ceil(batch_size()));
    let mut chunk_times = Vec::new();
    let mut reference = None;
    for _ in 0..serial_passes {
        let (counts, times) = serial_pass(params, set, seed);
        chunk_times.extend(times);
        let first = reference.get_or_insert_with(|| counts.clone());
        out.check(
            *first == counts,
            "single-thread run_batch is not repeatable",
        );
    }
    let reference = reference.expect("at least one serial pass");
    let eval = BatchEvaluator::from_env();
    let mut pass_times = Vec::with_capacity(PARALLEL_PASSES);
    for _ in 0..PARALLEL_PASSES {
        let t = Instant::now();
        let counts = eval.spike_counts(params, set, seed);
        pass_times.push(t.elapsed().as_secs_f64());
        out.check(counts == reference, "spike_counts differs from run_batch");
    }
    let serial_sps = (set.len() * serial_passes) as f64 / chunk_times.iter().sum::<f64>();
    let parallel_sps = set.len() as f64 / median(&mut pass_times);
    let spikes: u64 = reference.iter().flatten().map(|&c| u64::from(c)).sum();
    out.put(
        "snn.run_batch_ms_p50",
        percentile(&mut chunk_times, 0.5) * 1e3,
        "ms",
    );
    out.put(
        "snn.run_batch_ms_p99",
        percentile(&mut chunk_times, 0.99) * 1e3,
        "ms",
    );
    out.put("snn.serial_sps", serial_sps, "1/s");
    out.put(
        "snn.parallel_eff",
        parallel_sps / (configured_threads() as f64 * serial_sps),
        "ratio",
    );
    out.put(
        "snn.spikes_per_sample",
        spikes as f64 / set.len() as f64,
        "count",
    );
}

/// Runs the workload: `SETUPS` set-ups, a paced phase of `PACED_SHARE ×
/// seconds` at `PACED_RATE`, then one burst of `BURST_REQUESTS` per
/// `SECONDS_PER_BURST` of `seconds` (at least one). Traced, the engine
/// probe follows.
pub fn run(seed: u64, seconds: u64, trace_mode: bool, out: &mut Outcome) {
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut spans = Spans::default();
    let mut ready = None;
    for _ in 0..SETUPS {
        spans = Spans::default();
        let t = Instant::now();
        match setup(seed, &mut spans) {
            Ok(s) => ready = Some(s),
            Err(e) => out.check(false, &e),
        }
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let Some(Setup { tiers, requests }) = ready else {
        return;
    };
    let setup_s = median(&mut setup_times);
    let mix = policy_mix(&tiers);
    let spike_seed = seed ^ 0x5E7E;
    let base = ServiceConfig::from_env().with_spike_seed(spike_seed);

    let paced_trace = arrival_trace(
        &LoadSpec {
            requests: (PACED_RATE * PACED_SHARE * seconds as f64).max(1.0) as usize,
            rate_per_sec: PACED_RATE,
            seed: seed ^ 0xACE1,
            policy_mix: mix.clone(),
        },
        requests.len(),
    );
    let paced = phase(&tiers, base, &requests, &paced_trace, out);
    check_offline(
        &tiers,
        spike_seed,
        &requests,
        &paced_trace,
        &paced.sampled,
        out,
    );

    let burst_trace = arrival_trace(
        &LoadSpec {
            requests: BURST_REQUESTS,
            rate_per_sec: f64::INFINITY,
            seed: seed ^ 0xB57,
            policy_mix: mix,
        },
        requests.len(),
    );
    let burst_config = base.with_queue_bound(BURST_REQUESTS.max(base.queue_bound));
    let bursts = (seconds / SECONDS_PER_BURST).max(1) as usize;
    let mut rates = Vec::with_capacity(bursts);
    let mut burst_fill = Vec::with_capacity(bursts);
    for _ in 0..bursts {
        let burst = phase(&tiers, burst_config, &requests, &burst_trace, out);
        check_offline(
            &tiers,
            spike_seed,
            &requests,
            &burst_trace,
            &burst.sampled,
            out,
        );
        rates.push(burst.answered as f64 / burst.wall);
        burst_fill.push(burst.chunk_len_sum as f64 / burst.answered.max(1) as f64);
    }
    let sat_rps = median(&mut rates);
    let mut latencies: Vec<f64> = paced.latency.iter().map(|&(_, l)| l).collect();
    let latency_p50 = median(&mut latencies);
    let latency_tail = windowed_tail(&paced.latency);
    let batch = base.batch as f64;

    if trace_mode {
        let ms = |v: &[f64], q: f64| percentile(&mut v.to_vec(), q) * 1e3;
        let answered = paced.answered.max(1) as f64;
        out.put("data.generate_s", spans.get("data.generate_s"), "s");
        out.put("snn.train_epoch_s", spans.get("snn.train_epoch_s"), "s");
        out.put(
            "snn.train_sps",
            TRAIN_SAMPLES as f64 / spans.get("snn.train_epoch_s"),
            "1/s",
        );
        out.put(
            "core.build_tier_s",
            spans.get("core.build_tiers_s") / tiers.len() as f64,
            "s",
        );
        out.put("serve.submit_us_p50", ms(&paced.submit, 0.5) * 1e3, "us");
        out.put("serve.submit_us_p99", ms(&paced.submit, 0.99) * 1e3, "us");
        out.put("serve.queue_ms_p50", ms(&paced.queue, 0.5), "ms");
        out.put("serve.queue_ms_p99", ms(&paced.queue, 0.99), "ms");
        out.put("serve.service_ms_p50", ms(&paced.service, 0.5), "ms");
        out.put("serve.service_ms_p99", ms(&paced.service, 0.99), "ms");
        out.put(
            "serve.chunk_fill.paced",
            paced.chunk_len_sum as f64 / answered / batch,
            "ratio",
        );
        out.put(
            "serve.chunk_fill.burst",
            median(&mut burst_fill) / batch,
            "ratio",
        );
        out.put("serve.dram_mj_per_req", paced.dram_mj_sum / answered, "mJ");
        out.put("serve.gen_late_ms_p99", ms(&paced.late, 0.99), "ms");
        for (i, hits) in paced.tier_hits.iter().enumerate() {
            out.put(&format!("serve.tier_hits.{i}"), *hits as f64, "count");
        }
        engine_probe(&tiers[0].params, &requests, spike_seed, out);
        return;
    }

    out.put("setup_s", setup_s, "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.put("throughput_sps", sat_rps, "1/s");
    out.put("latency_p50_ms", latency_p50 * 1e3, "ms");
    out.put("latency_tail_ms", latency_tail * 1e3, "ms");
    print_report(
        "serve_n400",
        &[
            ("serve_p50_ms", latency_p50 * 1e3, "ms"),
            ("serve_p99_ms", percentile(&mut latencies, 0.99) * 1e3, "ms"),
            ("serve_p99_ms_per_second", latency_tail * 1e3, "ms"),
            ("serve_sat_rps", sat_rps, "1/s"),
            ("paced_rate", PACED_RATE, "1/s"),
            ("paced_requests", paced_trace.len() as f64, "count"),
            ("setup_s", setup_s, "s"),
            ("failed_frac", out.failed_frac(), "fraction"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    );
}
