//! The measurement loop shared by both modes, the output checks, and the
//! end-to-end metrics.

use crate::clock::{attribute_phases, round_latencies, ClockSink, Mark, RoundPhases};
use crate::layers;
use crate::relay::RelayCounts;
use crate::report::Report;
use crate::stats::{median, percentile, tail_supported};
use crate::sys;
use crate::workloads::{Cell, Job, Kind, MaterializeLog, Scratch, XDEVICE_COHORT};
use niid_bench_rs::fl::engine::FlConfig;
use niid_bench_rs::fl::{residency, Algorithm, RunResult, UpdateCodec};
use niid_bench_rs::stats::derive_seed;
use niid_bench_rs::tensor::stats as substrate;
use std::time::Instant;

/// Rounds measured per process at least: enough that ten lie beyond p90.
pub const MIN_ROUNDS: usize = 100;
/// Input cells per seed. Pass `p` runs cell `p % CELLS`, each partitioned
/// from its own seed derived from `--seed`, so every figure averages over
/// several partitions rather than hanging on one draw of party sizes.
/// Every cell is visited at least once, so `setup_s` is a median of at
/// least this many set-ups.
pub const CELLS: usize = 3;
/// Passes stop after this long (or `--seconds`, if longer) even when the
/// minimums are not met, so a failing workload still exits in time and
/// reports the shortfall.
const MAX_SECONDS: f64 = 120.0;

/// One FL run as the outside clock saw it.
pub struct Measured {
    /// The engine's result.
    pub result: RunResult,
    /// Per-round latency, ms.
    pub latencies: Vec<f64>,
    /// `RoundFinished` events the clock saw.
    pub finished: usize,
    /// Per-round phase split (detailed clock only; empty otherwise).
    pub phases: Vec<RoundPhases>,
    /// Outer wall time of the `run` call, ms.
    pub outer_ms: f64,
    /// Process CPU seconds spent during the run.
    pub cpu_s: f64,
    /// Socket bytes, for runs through a relay.
    pub relay: Option<RelayCounts>,
    /// Peak bytes of on-demand party data during the run.
    pub residency_peak: usize,
}

/// Run `job` under the outside round clock.
pub fn measure(job: Job, detailed: bool) -> Result<Measured, String> {
    let clock = ClockSink::new(detailed);
    residency::reset_peak();
    let cpu0 = sys::cpu_seconds();
    let t0 = clock.now_ms();
    let (result, end, relay) = job.run(&clock)?;
    let cpu_s = sys::cpu_seconds() - cpu0;
    let stamps = clock.take();
    Ok(Measured {
        latencies: round_latencies(&stamps, end),
        finished: stamps
            .iter()
            .filter(|s| s.mark == Mark::RoundFinished)
            .count(),
        phases: if detailed {
            attribute_phases(&stamps, end)
        } else {
            Vec::new()
        },
        outer_ms: end - t0,
        cpu_s,
        relay,
        residency_peak: residency::peak_bytes(),
        result,
    })
}

/// Everything a sequence of passes measured.
#[derive(Default)]
pub struct Tally {
    /// Seconds per set-up (data, partition, engines, roster).
    pub setup_s: Vec<f64>,
    /// Round latencies of every run, ms.
    pub round_ms: Vec<f64>,
    /// Phase splits of every run (detailed clock only).
    pub phases: Vec<RoundPhases>,
    /// Σ outer run wall time, ms.
    pub run_ms: f64,
    /// Σ CPU seconds during runs.
    pub cpu_s: f64,
    /// Final accuracy of each run of the first [`CELLS`] passes (one
    /// visit to every cell).
    pub accuracies: Vec<f64>,
    /// Σ `RunResult::total_bytes`.
    pub bytes: usize,
    /// Results of each cell's first pass, one per job, keyed by
    /// `(cell, job)`.
    pub first_visit: Vec<((usize, usize), RunResult)>,
}

/// Dense-equivalent upload bytes per participant: what `dense` would
/// have sent for the same round.
fn dense_up_bytes(cfg: &FlConfig, params: usize, buffers: usize) -> usize {
    let dense = UpdateCodec::DenseF32;
    let variates = match cfg.algorithm {
        Algorithm::Scaffold { .. } => dense.encoded_len(params),
        _ => 0,
    };
    dense.encoded_len(params) + dense.encoded_len(buffers) + variates
}

/// Compare the deterministic fields of two runs' record streams.
pub fn same_records(a: &RunResult, b: &RunResult) -> Result<(), String> {
    if a.rounds.len() != b.rounds.len() {
        return Err(format!("{} vs {} rounds", a.rounds.len(), b.rounds.len()));
    }
    for (x, y) in a.rounds.iter().zip(&b.rounds) {
        let same = x.round == y.round
            && x.test_accuracy.map(f64::to_bits) == y.test_accuracy.map(f64::to_bits)
            && x.avg_local_loss.to_bits() == y.avg_local_loss.to_bits()
            && x.participants == y.participants
            && x.up_bytes == y.up_bytes
            && x.down_bytes == y.down_bytes
            && x.failures == y.failures;
        if !same {
            return Err(format!("round {} differs: {x:?} vs {y:?}", x.round));
        }
    }
    if a.final_accuracy.to_bits() != b.final_accuracy.to_bits()
        || a.best_accuracy.to_bits() != b.best_accuracy.to_bits()
        || a.total_bytes != b.total_bytes
    {
        return Err("final accuracy, best accuracy or total bytes differ".into());
    }
    Ok(())
}

/// The output checks every run passes, counted into `report`.
fn check_run(report: &mut Report, cell: &Cell, cfg: &FlConfig, m: &Measured) {
    let kind = cell.kind;
    let r = &m.result;
    let rounds = r.rounds.len();
    report.check(rounds == cfg.rounds, || {
        format!("{rounds} of {} rounds", cfg.rounds)
    });
    report.check(
        m.latencies.len() == cfg.rounds && m.finished == cfg.rounds,
        || {
            format!(
                "clock saw {} round starts and {} finishes for {} rounds",
                m.latencies.len(),
                m.finished,
                cfg.rounds
            )
        },
    );
    report.check(
        r.rounds.iter().all(|x| x.avg_local_loss.is_finite()),
        || "a round's local loss is not finite".into(),
    );
    // The rounds tile the run: only the set-up before the first round
    // starts lies outside them.
    let covered: f64 = m.latencies.iter().sum();
    let gap = m.outer_ms - covered;
    report.check(gap >= 0.0 && gap <= (0.02 * m.outer_ms).max(5.0), || {
        format!(
            "round latencies sum to {covered:.3} ms of a {:.3} ms run",
            m.outer_ms
        )
    });
    if kind.lossy() {
        let net = cell.model.build(cell.test.num_classes, 0);
        let dense = dense_up_bytes(cfg, net.param_count(), net.buffer_count());
        let sent: usize = r.rounds.iter().map(|x| x.up_bytes).sum();
        let would: usize = r.rounds.iter().map(|x| x.participants * dense).sum();
        let ratio = sent as f64 / would as f64;
        report.check(ratio < 1.0, || {
            format!("upload ratio {ratio:.4} is not below 1")
        });
    }
    if kind == Kind::XdeviceTopk8 {
        let party_bytes = cell.party(0).data.features.numel() * 4 + 8 * cell.party(0).num_samples();
        let bound = XDEVICE_COHORT * (party_bytes + party_bytes / 2);
        report.check(m.residency_peak > 0 && m.residency_peak <= bound, || {
            format!(
                "party residency peak {} B outside (0, {bound}] B",
                m.residency_peak
            )
        });
    }
    let failures: usize = r.rounds.iter().map(|x| x.failures).sum();
    let participants: usize = r.rounds.iter().map(|x| x.participants).sum();
    report.updates(participants, failures);
}

/// Set up and run whole passes of the workload until `seconds` have
/// passed, at least [`MIN_ROUNDS`] rounds were measured, and every cell
/// was visited. A pass that revisits a cell must repeat its first
/// visit's records exactly (same inputs, same seeds).
pub fn passes(
    kind: Kind,
    seed: u64,
    seconds: f64,
    detailed: bool,
    log: Option<&MaterializeLog>,
    scratch: &Scratch,
    report: &mut Report,
) -> (Tally, Cell) {
    let started = Instant::now();
    let mut t = Tally::default();
    for pass in 0.. {
        let cell_id = pass % CELLS;
        let s0 = Instant::now();
        let cell = Cell::build(kind, derive_seed(seed, 0xCE11 + cell_id as u64), scratch);
        let jobs = cell.jobs(log);
        t.setup_s.push(s0.elapsed().as_secs_f64());
        for (i, job) in jobs.into_iter().enumerate() {
            let cfg = &cell.configs[i];
            let m = match measure(job, detailed) {
                Ok(m) => m,
                Err(e) => {
                    report.check(false, || format!("{} run failed: {e}", kind.name()));
                    continue;
                }
            };
            check_run(report, &cell, cfg, &m);
            match t.first_visit.iter().find(|(k, _)| *k == (cell_id, i)) {
                Some((_, first)) => {
                    let same = same_records(&m.result, first);
                    report.check(same.is_ok(), || {
                        format!("a repeated run diverged: {}", same.unwrap_err())
                    });
                }
                None => t.first_visit.push(((cell_id, i), m.result.clone())),
            }
            t.round_ms.extend(&m.latencies);
            t.phases.extend(m.phases);
            t.run_ms += m.outer_ms;
            t.cpu_s += m.cpu_s;
            if pass < CELLS {
                t.accuracies.push(m.result.final_accuracy);
            }
            t.bytes += m.result.total_bytes;
        }
        let done = started.elapsed().as_secs_f64() >= seconds
            && t.round_ms.len() >= MIN_ROUNDS
            && pass + 1 >= CELLS;
        if done {
            return (t, cell);
        }
        let cap = MAX_SECONDS.max(seconds);
        if started.elapsed().as_secs_f64() >= cap {
            report.check(false, || format!("minimums not reached in {cap} s"));
            return (t, cell);
        }
    }
    unreachable!("the pass loop only ends by returning")
}

/// Mean final accuracy over the first visit to every cell, checked
/// against the workload's floor.
fn checked_accuracy(report: &mut Report, kind: Kind, t: &Tally) -> f64 {
    let accuracy = t.accuracies.iter().sum::<f64>() / t.accuracies.len().max(1) as f64;
    report.check(accuracy >= kind.accuracy_floor(), || {
        format!(
            "mean final accuracy {accuracy:.4} below the floor {}",
            kind.accuracy_floor()
        )
    });
    accuracy
}

/// The end-to-end metrics of one workload.
pub fn untraced(kind: Kind, seed: u64, seconds: f64) -> Report {
    let scratch = Scratch::new().expect("create the benchmark scratch directory");
    let mut report = Report::default();
    let (t, _) = passes(kind, seed, seconds, false, None, &scratch, &mut report);
    let rounds = t.round_ms.len();
    report.check(tail_supported(rounds, 0.9), || {
        format!("{rounds} rounds leave fewer than ten beyond p90")
    });
    report.metric("setup_s", median(&t.setup_s), "s", t.setup_s.len());
    report.metric(
        "rounds_per_s",
        rounds as f64 / (t.run_ms / 1e3),
        "1/s",
        rounds,
    );
    report.metric("round_ms_p50", percentile(&t.round_ms, 0.5), "ms", rounds);
    report.metric("round_ms_p90", percentile(&t.round_ms, 0.9), "ms", rounds);
    report.metric(
        "cpu_ms_per_round",
        t.cpu_s * 1e3 / rounds as f64,
        "ms",
        rounds,
    );
    let accuracy = checked_accuracy(&mut report, kind, &t);
    report.metric("final_accuracy", accuracy, "frac", t.accuracies.len());
    report.metric(
        "bytes_per_round",
        t.bytes as f64 / rounds as f64,
        "B",
        rounds,
    );
    report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB", 1);
    let ok = 1.0 - report.failed_frac();
    let attempted = report.attempted;
    report.metric("ok_frac", ok, "frac", attempted);
    report
}

/// The per-layer metrics of one workload.
pub fn traced(kind: Kind, seed: u64, seconds: f64) -> Report {
    let scratch = Scratch::new().expect("create the benchmark scratch directory");
    let mut report = Report::default();
    let log = MaterializeLog::default();
    let before = substrate::snapshot();
    let (t, cell) = passes(kind, seed, seconds, true, Some(&log), &scratch, &mut report);
    let sub = substrate::snapshot().since(&before);
    checked_accuracy(&mut report, kind, &t);
    let rounds = t.round_ms.len();
    report.detail(
        "traced.round_ms_p50",
        percentile(&t.round_ms, 0.5),
        "ms",
        rounds,
    );

    report.metric("data.generate_s", cell.generate_s, "s", 1);
    report.metric("partition.setup_s", cell.partition_s, "s", 1);
    layers::engine(&mut report, &t.phases);
    layers::tensor(&mut report, &sub, rounds, t.cpu_s);
    layers::replay(&mut report, &cell, &log, &scratch);
    report
}
