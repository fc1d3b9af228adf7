//! The benchmark's workloads and the training episode that runs one.
//!
//! An episode is one complete training run from scratch: generate the
//! data and the model from the seed, build the rank group and the
//! optimizer, train a fixed number of steps, then evaluate. Everything
//! the episode measures is taken here, in the benchmark's own code,
//! around calls into the public entry points of the crates.

use compso_comm::{run_ranks_with, CommConfig, Communicator, FaultPlane};
use compso_core::baselines::PowerSgd;
use compso_core::{ChunkedCompso, Compressor, CompsoConfig};
use compso_dnn::data::{self, Dataset};
use compso_dnn::loss::softmax_cross_entropy;
use compso_dnn::{models, Sequential};
use compso_kfac::{
    CheckpointConfig, CheckpointCoordinator, DistKfac, DistKfacConfig, KfacConfig, StepStats,
};
use compso_obs::{Recorder, Snapshot};
use compso_tensor::{Matrix, Rng};
use std::path::Path;
use std::time::{Duration, Instant};

/// The gradient codec on the preconditioned-gradient all-gather.
#[derive(Clone, Copy, Debug)]
pub enum Codec {
    /// `ChunkedCompso` with the aggressive 4e-3 error bound.
    Compso,
    /// Rank-4 PowerSGD (low-rank, warm-started per layer).
    PowerSgd,
}

impl Codec {
    /// A fresh codec instance. Stateful codecs (PowerSGD) keep per-layer
    /// state, so every rank and every replay gets its own.
    pub fn build(self) -> Box<dyn Compressor> {
        match self {
            Codec::Compso => Box::new(ChunkedCompso::new(CompsoConfig::aggressive(4e-3))),
            Codec::PowerSgd => Box::new(PowerSgd::rank(4)),
        }
    }
}

/// The model and the data it trains on.
#[derive(Clone, Copy, Debug)]
pub enum Task {
    /// Gaussian blobs, MLP `[32, 128, 128, 8]`.
    Blobs,
    /// Markov token sequences, `tiny_transformer_lm(16, 4, 32)`.
    Tokens,
}

/// Samples held out for the evaluation loss.
const EVAL_SAMPLES: usize = 1024;

/// Seed of every task's dataset. The dataset is part of the workload,
/// like a fixed corpus: the run seed picks the model initialization and
/// the order the training samples are visited in, so quality metrics
/// vary across seeds only as much as a real training run's would.
const DATA_SEED: u64 = 0xC0_4950;

impl Task {
    /// Training split in a `seed`-dependent order, and the fixed
    /// evaluation split.
    fn data(self, seed: u64) -> (Dataset, Dataset) {
        let n = 4096 + EVAL_SAMPLES;
        let all = match self {
            Task::Blobs => data::gaussian_blobs(n, 32, 8, 1.5, DATA_SEED),
            Task::Tokens => data::token_sequences(n, 16, 4, DATA_SEED),
        };
        let mut order: Vec<usize> = (0..n - EVAL_SAMPLES).collect();
        let mut rng = Rng::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let eval: Vec<usize> = (n - EVAL_SAMPLES..n).collect();
        (rows(&all, &order), rows(&all, &eval))
    }

    fn model(self, rng: &mut Rng) -> Sequential {
        match self {
            Task::Blobs => models::mlp(&[32, 128, 128, 8], rng),
            Task::Tokens => models::tiny_transformer_lm(16, 4, 32, rng),
        }
    }
}

/// The rows `idx` of `d`, in that order, as a dataset of their own.
fn rows(d: &Dataset, idx: &[usize]) -> Dataset {
    let mut x = Matrix::zeros(idx.len(), d.features());
    for (r, &src) in idx.iter().enumerate() {
        x.row_mut(r).copy_from_slice(d.x.row(src));
    }
    Dataset {
        x,
        y: idx.iter().map(|&i| d.y[i]).collect(),
        classes: d.classes,
    }
}

/// One benchmark workload. See `NOTES.md` for why each exists.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// In-process ranks (threads), each with its own `Communicator`.
    pub ranks: usize,
    /// Rayon workers per parallel operation.
    pub workers: usize,
    /// Modeled wire bandwidth in MB/s; `None` is a free wire.
    pub wire_mbps: Option<f64>,
    pub codec: Codec,
    /// Coordinated checkpoint cadence in steps.
    pub ckpt_every: Option<usize>,
    pub task: Task,
    /// Steps per episode.
    pub steps: usize,
    /// Per-rank batch size.
    pub batch: usize,
    pub lr: f32,
    /// Rank-averaged training loss that counts as reaching the target.
    pub target_loss: f32,
}

/// Every workload the benchmark knows, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mlp-wire-compso",
        ranks: 2,
        workers: 1,
        wire_mbps: Some(50.0),
        codec: Codec::Compso,
        ckpt_every: Some(50),
        task: Task::Blobs,
        steps: 61,
        batch: 128,
        lr: 0.01,
        target_loss: 0.8,
    },
    Workload {
        name: "tfm-free-powersgd",
        ranks: 2,
        workers: 1,
        wire_mbps: None,
        codec: Codec::PowerSgd,
        ckpt_every: None,
        task: Task::Tokens,
        steps: 61,
        batch: 128,
        lr: 0.05,
        target_loss: 1.3,
    },
];

/// The K-FAC configuration every workload trains with. At the default
/// damping of 1e-2 the MLP diverges within a dozen steps.
pub fn kfac_config() -> KfacConfig {
    KfacConfig {
        damping: 0.05,
        ..KfacConfig::default()
    }
}

/// Per-step record of one rank.
pub struct StepRec {
    pub start: Instant,
    pub end: Instant,
    pub loss: f32,
    pub fwd_bwd: Duration,
    pub update: Duration,
    /// `Communicator::sent_bytes` moved during the step (saves excluded).
    pub sent: u64,
    pub stats: StepStats,
    /// Recorder delta over the step; empty when untraced.
    pub trace: Snapshot,
    pub failed: bool,
}

/// What the codec and eigensolver replays need, captured from a real
/// step: every rank's aggregation groups (layer key, gradient values)
/// and every K-FAC factor.
pub struct Capture {
    pub groups: Vec<Vec<(u64, Vec<f32>)>>,
    pub factors: Vec<Matrix>,
}

/// One rank's view of an episode.
pub struct RankRun {
    pub steps: Vec<StepRec>,
    /// Recorder totals over the whole episode; empty when untraced.
    pub totals: Snapshot,
    pub eval_loss: f32,
    /// FNV-1a over every parameter's bits at the end of the episode.
    pub fingerprint: u64,
    pub schedule_builds: u32,
    pub capture: Option<Capture>,
}

/// One episode: the ranks' records plus the episode start instant.
pub struct Episode {
    /// Index of the run's sub-seed this episode trained with.
    pub seed_idx: usize,
    pub t0: Instant,
    pub ranks: Vec<RankRun>,
    pub traced: bool,
}

/// Runs one episode of `w` from `seed`, the run's sub-seed `seed_idx`.
/// With `traced`, each rank gets its own enabled `Recorder`; with
/// `capture`, rank 0 keeps the last step's group payloads and factors
/// for the replays.
pub fn run_episode(
    w: &Workload,
    seed_idx: usize,
    seed: u64,
    traced: bool,
    capture: bool,
    ckpt: &Path,
) -> Episode {
    let t0 = Instant::now();
    let (train, eval) = w.task.data(seed);
    let config = CommConfig {
        modeled_wire_mbps: w.wire_mbps,
        ..CommConfig::default()
    };
    let ranks = run_ranks_with(w.ranks, FaultPlane::disabled(), config, |comm| {
        rank_loop(w, seed, comm, &train, &eval, traced, capture, ckpt)
    });
    Episode {
        seed_idx,
        t0,
        ranks,
        traced,
    }
}

#[allow(clippy::too_many_arguments)]
fn rank_loop(
    w: &Workload,
    seed: u64,
    comm: &mut Communicator,
    train: &Dataset,
    eval: &Dataset,
    traced: bool,
    capture: bool,
    ckpt: &Path,
) -> RankRun {
    let rec = if traced {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let mut rng = Rng::new(seed ^ 0x5EED_0DE1);
    let mut model = w.task.model(&mut rng);
    let shard = train.shard(comm.rank(), comm.size());
    let dist_config = DistKfacConfig {
        kfac: kfac_config(),
        ..DistKfacConfig::default()
    };
    let aggregation = dist_config.aggregation;
    let mut opt = DistKfac::new(dist_config, seed);
    opt.set_recorder(rec.clone());
    comm.set_recorder(rec.clone());
    let codec = w.codec.build();
    let coord = w.ckpt_every.map(|every| {
        let coord = CheckpointCoordinator::new(CheckpointConfig::new(
            ckpt,
            compso_kfac::checkpoint::fingerprint(&[w.name, &seed.to_string()]),
        ))
        .expect("checkpoint directory inside the checkout is writable");
        (every, coord)
    });

    let mut steps = Vec::with_capacity(w.steps);
    let mut captured = None;
    for step in 0..w.steps {
        let before = rec.snapshot();
        let sent_before = comm.sent_bytes();
        let start = Instant::now();
        let (x, y) = shard.batch(step, w.batch);
        let logits = model.forward(&x, true);
        let (loss, grad) = softmax_cross_entropy(&logits, &y);
        model.backward(&grad);
        let fwd_bwd = start.elapsed();
        let result = opt.step(comm, &mut model, codec.as_ref());
        let update_start = Instant::now();
        if result.is_ok() {
            model.update_params(|p, g| p.axpy(-w.lr, g));
        }
        let end = Instant::now();
        let trace = rec.snapshot().delta_since(&before);
        let failed = result.is_err() || !loss.is_finite() || faulted(&trace);
        if capture && result.is_ok() && comm.rank() == 0 && step + 1 == w.steps {
            captured = Some(capture_step(&model, &opt, comm.size(), aggregation));
        }
        let stopped = result.is_err();
        steps.push(StepRec {
            start,
            end,
            loss,
            fwd_bwd,
            update: end - update_start,
            sent: comm.sent_bytes() - sent_before,
            stats: result.unwrap_or_default(),
            trace,
            failed,
        });
        if stopped {
            // A transport error leaves the group unusable; the peers
            // stop at their own next collective.
            eprintln!("rank {}: step {step} failed", comm.rank());
            break;
        }
        if let Some((every, coord)) = &coord {
            let done = step + 1;
            if done % every == 0 && done < w.steps {
                if let Err(e) = coord.save(comm, done as u64, &opt, &model, &[]) {
                    eprintln!(
                        "rank {}: checkpoint at step {done} failed: {e}",
                        comm.rank()
                    );
                    if let Some(last) = steps.last_mut() {
                        last.failed = true;
                    }
                }
            }
        }
    }

    let logits = model.forward(&eval.x, false);
    let (eval_loss, _) = softmax_cross_entropy(&logits, &eval.y);
    RankRun {
        steps,
        totals: rec.snapshot(),
        eval_loss,
        fingerprint: fingerprint(&model),
        schedule_builds: opt.schedule_builds(),
        capture: captured,
    }
}

/// True when a fault-free step moved any degradation or retry counter.
fn faulted(trace: &Snapshot) -> bool {
    trace.counters.iter().any(|(name, &v)| {
        v > 0 && (name.starts_with("kfac/degrade/") || name.starts_with("comm/retry/"))
    })
}

/// Every rank's aggregation groups, as `DistKfac` forms them (owned
/// K-FAC layers in index order, `aggregation` per group), filled with
/// the gradients the step installed, plus every K-FAC factor.
fn capture_step(model: &Sequential, opt: &DistKfac, ranks: usize, aggregation: usize) -> Capture {
    let kfac_layers = model.kfac_indices();
    let owners = opt.owners().expect("ownership map exists after a step");
    let mut groups = Vec::new();
    for r in 0..ranks {
        let owned: Vec<(u64, Vec<f32>)> = kfac_layers
            .iter()
            .zip(owners)
            .filter(|&(_, &o)| o == r)
            .map(|(&idx, _)| {
                let g = model.layer(idx).grads().expect("K-FAC layer has gradients");
                (idx as u64, g.as_slice().to_vec())
            })
            .collect();
        groups.extend(owned.chunks(aggregation.max(1)).map(<[_]>::to_vec));
    }
    let mut factors = Vec::new();
    for &idx in &kfac_layers {
        let (a, g) = opt.kfac().factors(idx).expect("factors exist after a step");
        factors.push(a.clone());
        factors.push(g.clone());
    }
    Capture { groups, factors }
}

/// FNV-1a over the bits of every trainable parameter.
fn fingerprint(model: &Sequential) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for idx in model.trainable_indices() {
        let p = model
            .layer(idx)
            .params()
            .expect("trainable layer has parameters");
        for v in p.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}
