//! Turns episodes into metrics, runs the correctness gate and the layer
//! replays, and prints the result.

use crate::workload::{kfac_config, Capture, Codec, Episode, StepRec, Workload};
use compso_core::LayerSchedule;
use compso_obs::{names, Recorder, StepReport, PHASE_OTHER, STEP_PHASES};
use compso_tensor::{sym_eig, Rng};
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Metrics plus the outcome of the correctness gate.
pub struct Report {
    pub correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    lines: Vec<String>,
}

/// Steps every rank of the episode completed.
fn steps_done(e: &Episode) -> usize {
    e.ranks.iter().map(|r| r.steps.len()).min().unwrap_or(0)
}

/// Earliest rank start of step `s`.
fn start_of(e: &Episode, s: usize) -> Instant {
    e.ranks
        .iter()
        .map(|r| r.steps[s].start)
        .min()
        .expect("at least one rank")
}

/// Latest rank end of step `s`.
fn end_of(e: &Episode, s: usize) -> Instant {
    e.ranks
        .iter()
        .map(|r| r.steps[s].end)
        .max()
        .expect("at least one rank")
}

/// Wall time of step `s`: the latest rank end minus the earliest rank
/// start.
fn wall(e: &Episode, s: usize) -> Duration {
    end_of(e, s) - start_of(e, s)
}

/// Milliseconds of every steady step (step 0 is set-up) over `eps`,
/// optionally keeping only steps that `keep` accepts.
fn steady_walls_ms(eps: &[&Episode], keep: impl Fn(usize) -> bool) -> Vec<f64> {
    eps.iter()
        .flat_map(|e| {
            (1..steps_done(e))
                .filter(|&s| keep(s))
                .map(move |s| ms(wall(e, s)))
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `p` in `[0, 1]` of `v` (0 when empty).
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Rank-averaged training loss of step `s`.
fn mean_loss(e: &Episode, s: usize) -> f64 {
    e.ranks
        .iter()
        .map(|r| f64::from(r.steps[s].loss))
        .sum::<f64>()
        / e.ranks.len() as f64
}

/// First step whose rank-averaged loss is at or below the target.
fn target_step(w: &Workload, e: &Episode) -> Option<usize> {
    (0..steps_done(e)).find(|&s| mean_loss(e, s) <= f64::from(w.target_loss))
}

impl Report {
    pub fn build(
        w: &Workload,
        seed: u64,
        episodes: &[Episode],
        trace: bool,
        rss_mb: f64,
    ) -> Report {
        let mut r = Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            lines: Vec::new(),
        };
        r.gate(w, episodes);
        let e = &episodes[0];
        let curve: Vec<String> = (0..steps_done(e))
            .step_by(2)
            .take(30)
            .map(|s| format!("{s}:{:.3}", mean_loss(e, s)))
            .collect();
        r.lines.push(format!(
            "loss curve (rank mean, target {}): {}",
            w.target_loss,
            curve.join(" ")
        ));
        let plain: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
        let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
        r.lines.push(format!(
            "episodes: {} untraced, {} traced, {} steps each",
            plain.len(),
            traced.len(),
            w.steps
        ));
        if trace {
            r.per_layer(w, seed, &plain, &traced);
        } else {
            r.end_to_end(w, &plain, rss_mb);
        }
        r
    }

    fn fail(&mut self, why: String) {
        eprintln!("kfacbench: INCORRECT: {why}");
        self.lines.push(format!("INCORRECT: {why}"));
        self.correct = false;
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("{name} is not finite"));
        }
        // `+ 0.0` prints an empty sum's -0.0 as 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    /// The correctness gate. A step fails on a `DistKfac::step` error, a
    /// non-finite loss, or (traced episodes, which every run has) any
    /// movement of the `kfac/degrade/*` or `comm/retry/*` counters;
    /// steps an aborted episode never ran count as failed too. The whole
    /// run is incorrect when ranks end with different parameters, when
    /// two same-seed episodes differ in any loss bit, when the target
    /// loss is never reached, or when the layer schedule is rebuilt.
    fn gate(&mut self, w: &Workload, episodes: &[Episode]) {
        for e in episodes {
            for s in 0..w.steps {
                self.attempted += 1;
                let failed = s >= steps_done(e) || e.ranks.iter().any(|r| r.steps[s].failed);
                self.failed += u64::from(failed);
            }
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.lines.push(format!(
            "failed_frac: {frac} ({} of {} steps)",
            self.failed, self.attempted
        ));

        let losses = |e: &Episode| -> Vec<Vec<u32>> {
            e.ranks
                .iter()
                .map(|r| r.steps.iter().map(|s| s.loss.to_bits()).collect())
                .collect()
        };
        for (i, e) in episodes.iter().enumerate() {
            let prints: Vec<u64> = e.ranks.iter().map(|r| r.fingerprint).collect();
            if prints.iter().any(|&p| p != prints[0]) {
                self.fail(format!(
                    "episode {i}: parameter fingerprints differ across ranks: {prints:x?}"
                ));
            }
            let first = episodes
                .iter()
                .find(|f| f.seed_idx == e.seed_idx)
                .expect("e itself matches");
            if prints[0] != first.ranks[0].fingerprint
                || losses(e) != losses(first)
                || e.ranks[0].eval_loss.to_bits() != first.ranks[0].eval_loss.to_bits()
            {
                self.fail(format!(
                    "episode {i} diverged from the first episode of sub-seed {}",
                    e.seed_idx
                ));
            }
            if target_step(w, e).is_none() {
                self.fail(format!(
                    "episode {i}: loss never reached the target {}",
                    w.target_loss
                ));
            }
            let builds = e.ranks.iter().map(|r| r.schedule_builds).max().unwrap_or(0);
            if builds > 1 {
                self.fail(format!("episode {i}: layer schedule built {builds} times"));
            }
        }
    }

    fn end_to_end(&mut self, w: &Workload, eps: &[&Episode], rss_mb: f64) {
        let walls = steady_walls_ms(eps, |_| true);
        self.lines
            .push(format!("steady steps timed: {}", walls.len()));
        self.push("step_ms_p50", median(&walls), "ms");
        self.push("step_ms_p95", percentile(&walls, 0.95), "ms");

        // Quality metrics per sub-seed (the median over that sub-seed's
        // episodes), then the mean over the sub-seeds.
        let mut per_seed: Vec<[Vec<f64>; 3]> = Vec::new();
        let mut rates = Vec::new();
        let mut wire = Vec::new();
        let mut setup = Vec::new();
        for e in eps {
            let n = steps_done(e);
            if n < 2 {
                continue;
            }
            let seconds = (end_of(e, n - 1) - start_of(e, 1)).as_secs_f64();
            rates.push((w.ranks * w.batch * (n - 1)) as f64 / seconds);
            if per_seed.len() <= e.seed_idx {
                per_seed.resize_with(e.seed_idx + 1, Default::default);
            }
            let q = &mut per_seed[e.seed_idx];
            if let Some(k) = target_step(w, e) {
                q[0].push((end_of(e, k) - start_of(e, 0)).as_secs_f64());
                q[1].push((k + 1) as f64);
            }
            q[2].push(f64::from(e.ranks[0].eval_loss));
            let sent: u64 = e
                .ranks
                .iter()
                .flat_map(|r| r.steps[1..n].iter().map(|s| s.sent))
                .sum();
            wire.push(sent as f64 / (n - 1) as f64);
            setup.push((end_of(e, 0) - e.t0).as_secs_f64());
        }
        let seed_mean = |m: usize| {
            let v: Vec<f64> = per_seed
                .iter()
                .filter(|q| !q[m].is_empty())
                .map(|q| median(&q[m]))
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        self.lines.push(format!(
            "quality metrics: mean over {} sub-seeds",
            per_seed.len()
        ));
        self.push("samples_per_s", median(&rates), "1/s");
        self.push("time_to_target_s", seed_mean(0), "s");
        self.push("steps_to_target", seed_mean(1), "count");
        self.push("eval_loss_final", seed_mean(2), "nats");
        self.push("wire_bytes_per_step", median(&wire), "bytes");
        self.push("setup_s", median(&setup), "s");
        self.push("peak_rss_mb", rss_mb, "MB");
    }

    fn per_layer(&mut self, w: &Workload, seed: u64, plain: &[&Episode], traced: &[&Episode]) {
        let refresh = kfac_config().eigen_refresh;
        let ranks = w.ranks;
        // Per-rank, per-steady-step means over the traced episodes.
        let per_step = |rank: Option<usize>, f: &dyn Fn(&StepRec) -> f64| -> f64 {
            let mut sum = 0.0;
            let mut n = 0usize;
            for e in traced {
                for (ri, r) in e.ranks.iter().enumerate() {
                    if rank.is_some_and(|want| want != ri) {
                        continue;
                    }
                    for s in &r.steps[1..steps_done(e)] {
                        sum += f(s);
                        n += 1;
                    }
                }
            }
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        };
        let timer_ms = |rank: Option<usize>, name: &'static str| {
            per_step(rank, &|s| s.trace.timer_seconds(name) * 1e3)
        };
        let counter = |name: &'static str| per_step(None, &|s| s.trace.counter(name) as f64);
        // The `kfac/step/other` residual as `StepReport` defines it: step
        // time outside the tracked phases, never below 0.
        let other_ms = |rank: Option<usize>| {
            per_step(rank, &|s| {
                let r = StepReport::from_snapshot(0, &s.trace);
                r.fractions.get(PHASE_OTHER).copied().unwrap_or(0.0) * r.wall_s * 1e3
            })
        };

        self.push(
            "comm.allreduce_ms",
            timer_ms(None, names::COMM_ALLREDUCE),
            "ms",
        );
        self.push(
            "comm.allreduce_calls",
            counter(names::COMM_ALLREDUCE_CALLS),
            "count",
        );
        self.push(
            "comm.allreduce_bytes",
            per_step(None, &|s| s.stats.allreduce_bytes as f64),
            "bytes",
        );
        self.push(
            "comm.pipeline_wait_ms",
            timer_ms(None, names::COMM_PIPELINE_WAIT),
            "ms",
        );
        // Steps where the pipelined gather did not run have no overlap
        // and count as 0.
        self.push(
            "comm.overlap_frac",
            per_step(None, &|s| {
                StepReport::from_snapshot(0, &s.trace)
                    .overlap_frac
                    .unwrap_or(0.0)
            }),
            "frac",
        );
        self.push(
            "comm.repair_status_ms",
            timer_ms(None, names::COMM_ALLGATHER_REPAIR),
            "ms",
        );
        self.push(
            "comm.sent_bytes_per_rank",
            per_step(None, &|s| s.sent as f64),
            "bytes",
        );

        // Step 0 of each traced episode: how far apart the ranks started
        // it (thread start skew), and how long it took.
        let skew: Vec<f64> = traced
            .iter()
            .map(|e| {
                let last = e.ranks.iter().map(|r| r.steps[0].start).max();
                ms(last.expect("at least one rank") - start_of(e, 0))
            })
            .collect();
        let cold: Vec<f64> = traced.iter().map(|e| ms(wall(e, 0))).collect();
        self.push("comm.rank_skew_ms", median(&skew), "ms");
        self.push("kfac.cold_step_ms", median(&cold), "ms");

        let (orig, sent): (u64, u64) = traced
            .iter()
            .flat_map(|e| {
                e.ranks
                    .iter()
                    .flat_map(move |r| r.steps[1..steps_done(e)].iter())
            })
            .fold((0, 0), |(o, s), st| {
                (
                    o + st.stats.gather_bytes_original,
                    s + st.stats.gather_bytes_wire,
                )
            });
        self.push(
            "core.gather_ratio",
            orig as f64 / sent.max(1) as f64,
            "ratio",
        );

        let capture = traced.iter().find_map(|e| e.ranks[0].capture.as_ref());
        let (c_mbps, d_mbps, eig_ms) = match capture {
            Some(c) => {
                let (cm, dm) = self.replay_codec(w.codec, seed, c);
                (cm, dm, replay_eig(c))
            }
            None => {
                self.fail("no traced episode captured the layer groups".into());
                (0.0, 0.0, 0.0)
            }
        };
        self.push("core.compress_mbps", c_mbps, "MB/s");
        self.push("core.decompress_mbps", d_mbps, "MB/s");

        let refresh_walls = steady_walls_ms(traced, |s| s % refresh == 0);
        let plain_walls = steady_walls_ms(traced, |s| s % refresh != 0);
        self.push("kfac.refresh_step_ms_p50", median(&refresh_walls), "ms");
        self.push("kfac.plain_step_ms_p50", median(&plain_walls), "ms");
        self.push("tensor.sym_eig_ms", eig_ms, "ms");

        self.push("kfac.step_ms", timer_ms(None, names::KFAC_STEP), "ms");
        self.push(
            "kfac.grad_sync_ms",
            timer_ms(None, names::KFAC_GRAD_SYNC),
            "ms",
        );
        self.push("kfac.factor_ms", timer_ms(None, names::KFAC_FACTOR), "ms");
        self.push("kfac.inverse_ms", timer_ms(None, names::KFAC_INVERSE), "ms");
        self.push(
            "kfac.allgather_ms",
            timer_ms(None, names::KFAC_ALLGATHER),
            "ms",
        );
        self.push("kfac.update_ms", timer_ms(None, names::KFAC_UPDATE), "ms");
        self.push("kfac.other_ms", other_ms(None), "ms");
        self.push("dnn.fwd_bwd_ms", per_step(None, &|s| ms(s.fwd_bwd)), "ms");
        self.push("dnn.update_ms", per_step(None, &|s| ms(s.update)), "ms");

        let mut save_ms = Vec::new();
        let mut save_bytes = 0u64;
        let mut saves = 0u64;
        for e in traced {
            for r in &e.ranks {
                let t = r
                    .totals
                    .timers
                    .get(names::CKPT_SAVE)
                    .copied()
                    .unwrap_or_default();
                if t.count > 0 {
                    save_ms.push(t.seconds() * 1e3 / t.count as f64);
                }
                save_bytes += r.totals.counter(names::CKPT_BYTES);
            }
            saves += e.ranks[0].totals.counter(names::CKPT_SAVES);
        }
        self.push("ckpt.save_ms", median(&save_ms), "ms");
        self.push(
            "ckpt.bytes_per_save",
            save_bytes as f64 / saves.max(1) as f64,
            "bytes",
        );

        let total = |pred: &dyn Fn(&str) -> bool| -> f64 {
            traced
                .iter()
                .flat_map(|e| e.ranks.iter())
                .flat_map(|r| r.totals.counters.iter())
                .filter(|(k, _)| pred(k))
                .map(|(_, &v)| v as f64)
                .sum()
        };
        self.push(
            "kfac.degrade_events",
            total(&|k| k.starts_with("kfac/degrade/")),
            "count",
        );
        self.push(
            "comm.retry_resends",
            total(&|k| k == names::COMM_RETRY_RESENDS),
            "count",
        );
        let builds = traced
            .iter()
            .flat_map(|e| e.ranks.iter().map(|r| r.schedule_builds))
            .max()
            .unwrap_or(0);
        self.push("kfac.schedule_builds", f64::from(builds), "count");

        let untraced_p50 = median(&steady_walls_ms(plain, |_| true));
        let traced_p50 = median(&steady_walls_ms(traced, |_| true));
        self.push(
            "obs.trace_overhead_frac",
            traced_p50 / untraced_p50 - 1.0,
            "frac",
        );

        // Per-rank phase rows: the slowest rank and each rank's step-0
        // start offset are what separate compute from rank-start skew.
        self.lines.push(
            "per-rank (ms per steady step): rank step grad_sync factor inverse allgather update other fwd_bwd | step0_start_offset step0_factor"
                .into(),
        );
        let mut slowest = (0, f64::MIN);
        for rank in 0..ranks {
            let step = timer_ms(Some(rank), names::KFAC_STEP);
            if step > slowest.1 {
                slowest = (rank, step);
            }
            let offset: Vec<f64> = traced
                .iter()
                .map(|e| ms(e.ranks[rank].steps[0].start - start_of(e, 0)))
                .collect();
            let factor0: Vec<f64> = traced
                .iter()
                .map(|e| {
                    e.ranks[rank].steps[0]
                        .trace
                        .timer_seconds(names::KFAC_FACTOR)
                        * 1e3
                })
                .collect();
            let mut row = format!("  rank {rank}: {step:.3}");
            for p in STEP_PHASES {
                row += &format!(" {:.3}", timer_ms(Some(rank), p));
            }
            row += &format!(
                " {:.3} {:.3} | {:.3} {:.3}",
                other_ms(Some(rank)),
                per_step(Some(rank), &|s| ms(s.fwd_bwd)),
                median(&offset),
                median(&factor0)
            );
            self.lines.push(row);
        }
        self.lines.push(format!(
            "slowest rank: {} ({:.3} ms per kfac step)",
            slowest.0, slowest.1
        ));
    }

    /// Times `compress_group_keyed`/`decompress_group` on the captured
    /// aggregation groups and checks that every group decodes to its
    /// shapes. Rates are raw f32 bytes per second, both directions.
    fn replay_codec(&mut self, codec: Codec, seed: u64, c: &Capture) -> (f64, f64) {
        let comp = codec.build();
        let off = Recorder::disabled();
        let schedules: Vec<Option<LayerSchedule>> = c
            .groups
            .iter()
            .map(|g| {
                comp.preferred_chunk_elems()?;
                let sizes: Vec<usize> = g.iter().map(|(_, v)| v.len()).collect();
                let chunk = comp.chunk_elems_for(sizes.iter().sum())?;
                Some(LayerSchedule::build(&sizes, chunk))
            })
            .collect();
        let raw: usize = c.groups.iter().flatten().map(|(_, v)| v.len() * 4).sum();
        let mut rng = Rng::new(seed);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let compress_s = time_pass(|| {
            frames = c
                .groups
                .iter()
                .zip(&schedules)
                .map(|(g, sched)| {
                    let keyed: Vec<(u64, &[f32])> =
                        g.iter().map(|(k, v)| (*k, v.as_slice())).collect();
                    comp.compress_group_keyed(&keyed, sched.as_ref(), &mut rng, &off)
                })
                .collect();
        });
        let mut ok = true;
        let decompress_s = time_pass(|| {
            for (g, frame) in c.groups.iter().zip(&frames) {
                match comp.decompress_group(black_box(frame), &off) {
                    Ok(layers) => {
                        ok &= layers.len() == g.len()
                            && layers.iter().zip(g).all(|(l, (_, v))| l.len() == v.len());
                    }
                    Err(_) => ok = false,
                }
            }
        });
        if !ok {
            self.fail("a captured aggregation group did not decode to its shapes".into());
        }
        self.lines.push(format!(
            "codec replay: {} groups, {raw} raw bytes per pass",
            c.groups.len()
        ));
        (
            raw as f64 / compress_s / 1e6,
            raw as f64 / decompress_s / 1e6,
        )
    }
}

/// Milliseconds `sym_eig` takes over every captured K-FAC factor: one
/// refresh's eigendecompositions on one rank.
fn replay_eig(c: &Capture) -> f64 {
    time_pass(|| {
        for f in &c.factors {
            black_box(sym_eig(black_box(f)));
        }
    }) * 1e3
}

/// Median seconds per call of `pass` over 7 blocks, each long enough
/// (at least 20 ms) to swamp timer resolution.
fn time_pass(mut pass: impl FnMut()) -> f64 {
    let t = Instant::now();
    pass();
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let reps = ((0.02 / once).ceil() as usize).clamp(1, 10_000);
    let blocks: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                pass();
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&blocks)
}

impl Report {
    pub fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for m in &self.metrics {
            println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}
