//! Per-layer metrics.
//!
//! Engine phases come from the outside clock's event arrival times and
//! tensor figures from substrate counter deltas over the traced passes.
//! Every other layer is timed around its public entry points, replayed on
//! the workload's real inputs: its parties, the global state a run
//! reached (read back from the checkpoint a twin run wrote), and the
//! deltas those parties produce from it.

use crate::clock::{worker_idle_frac, RoundPhases};
use crate::report::Report;
use crate::run::{measure, same_records};
use crate::stats::{median, percentile};
use crate::workloads::{Cell, Job, MaterializeLog, Population, Scratch, WORKERS, XDEVICE_COHORT};
use niid_bench_rs::fl::aggregate::{
    average_buffers, fednova_average_updates, scaffold_update_c, weighted_average_updates,
    UpdateRef,
};
use niid_bench_rs::fl::engine::FlConfig;
use niid_bench_rs::fl::local::{local_train, LocalOutcome, ScaffoldCtx};
use niid_bench_rs::fl::net::{
    read_frame, write_frame, AssignMsg, BroadcastMsg, MsgKind, PartyAssignment, UpdateBody,
    UpdateMsg, DEFAULT_MAX_FRAME,
};
use niid_bench_rs::fl::{
    Algorithm, Checkpoint, CheckpointPolicy, DecodedUpdate, Party, UpdateCodec,
};
use niid_bench_rs::nn::{
    Conv2d, Flatten, Layer, Linear, LossScratch, MaxPool2d, ModelSpec, Network, ParamReader, Phase,
    Relu, Sgd, SoftmaxCrossEntropy,
};
use niid_bench_rs::stats::{derive_seed, Pcg64};
use niid_bench_rs::tensor::{active_kernel, Conv2dShape, SubstrateStats, Tensor};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rounds of the in-process/distributed twin pair.
const TWIN_ROUNDS: usize = 10;
/// Samples per replayed entry point at least (ten beyond p90).
const MIN_CALLS: usize = 100;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Time `f` `reps` times; the samples in µs.
fn time_us(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t)
        })
        .collect()
}

/// Engine phases, from the detailed clock's arrival times.
pub fn engine(report: &mut Report, phases: &[RoundPhases]) {
    let n = phases.len();
    let col = |f: fn(&RoundPhases) -> f64| phases.iter().map(f).collect::<Vec<f64>>();
    report.metric(
        "engine.train_ms_p50",
        percentile(&col(|p| p.train), 0.5),
        "ms",
        n,
    );
    report.metric(
        "engine.comm_ms_p50",
        percentile(&col(|p| p.comm), 0.5),
        "ms",
        n,
    );
    report.metric(
        "engine.aggregate_ms_p50",
        percentile(&col(|p| p.aggregate), 0.5),
        "ms",
        n,
    );
    let evals: Vec<f64> = phases
        .iter()
        .filter(|p| p.evaluated)
        .map(|p| p.eval)
        .collect();
    report.metric(
        "engine.eval_ms_p50",
        percentile(&evals, 0.5),
        "ms",
        evals.len(),
    );
    report.metric(
        "engine.finish_ms_p50",
        percentile(&col(|p| p.finish), 0.5),
        "ms",
        n,
    );
    report.metric(
        "engine.worker_idle_frac",
        worker_idle_frac(phases, WORKERS),
        "frac",
        n,
    );
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Substrate counter deltas over the traced passes.
pub fn tensor(report: &mut Report, s: &SubstrateStats, rounds: usize, cpu_s: f64) {
    let r = rounds.max(1) as f64;
    let calls = s.gemm_ab_calls + s.gemm_atb_calls + s.gemm_abt_calls;
    let gflop = s.gemm_flops as f64 / 1e9;
    report.metric(
        "tensor.gemm_calls_per_round",
        calls as f64 / r,
        "count",
        rounds,
    );
    report.metric("tensor.gemm_gflop_per_round", gflop / r, "GFLOP", rounds);
    report.metric("tensor.gemm_gflops", gflop / cpu_s, "GFLOP/s", rounds);
    let convs = s.conv_implicit_calls + s.conv_materialized_calls;
    report.metric(
        "tensor.conv_implicit_frac",
        frac(s.conv_implicit_calls, convs),
        "frac",
        convs as usize,
    );
    report.metric(
        "tensor.pool_stolen_frac",
        frac(s.pool_stolen_tasks, s.pool_tasks),
        "frac",
        s.pool_tasks as usize,
    );
    let regions = s.pool_regions + s.pool_inline_regions;
    report.metric(
        "tensor.pool_inline_frac",
        frac(s.pool_inline_regions, regions),
        "frac",
        regions as usize,
    );
    let scratch = s.conv_scratch_allocs + s.conv_scratch_reuses;
    report.metric(
        "tensor.conv_scratch_reuse_frac",
        s.scratch_reuse_rate(),
        "frac",
        scratch as usize,
    );
    report.metric(
        "tensor.conv_scratch_peak_mb",
        s.conv_scratch_peak_bytes as f64 / (1024.0 * 1024.0),
        "MB",
        1,
    );
}

/// The replayed layers: net (twin pair), checkpoint, party, local, nn,
/// compress, aggregate.
pub fn replay(report: &mut Report, cell: &Cell, log: &MaterializeLog, scratch: &Scratch) {
    let cfg = cell.configs[0].clone();
    let Some(ckpt_path) = twin_pair(report, cell, &cfg, scratch) else {
        return;
    };
    let Some(ck) = checkpoint(report, &ckpt_path, scratch) else {
        return;
    };
    let cohort = cohort(cell, &cfg);
    let parties: Vec<Party> = cohort.iter().map(|&id| cell.party(id)).collect();
    party(report, cell, log, &parties);
    let step_us = nn(report, cell, &cfg, &ck, &parties);
    let locals = local(report, cell, &cfg, &ck, &parties, step_us);
    let Some(wire) = compress(report, &cfg, &ck, &locals) else {
        return;
    };
    aggregate(report, cell, &cfg, &ck, &locals, &wire);
    messages(report, &ck, &locals, &wire);
}

/// One round's cohort: every party cross-silo, a seeded sample of
/// [`XDEVICE_COHORT`] cross-device.
fn cohort(cell: &Cell, cfg: &FlConfig) -> Vec<usize> {
    match cell.population {
        Population::Resident(_) => (0..cell.n_parties()).collect(),
        Population::Lazy(_) => {
            let mut ids = Pcg64::new(derive_seed(cfg.seed, 0xC0))
                .sample_indices_sparse(cell.n_parties(), XDEVICE_COHORT);
            ids.sort_unstable();
            ids
        }
    }
}

/// Run the workload's first config for [`TWIN_ROUNDS`] rounds in-process
/// and distributed (through the counting relay), check the record streams
/// are identical, report the net layer, and return the in-process run's
/// checkpoint file.
fn twin_pair(
    report: &mut Report,
    cell: &Cell,
    cfg: &FlConfig,
    scratch: &Scratch,
) -> Option<PathBuf> {
    let with_dir = |dir: PathBuf| FlConfig {
        rounds: TWIN_ROUNDS,
        checkpoint: Some(CheckpointPolicy::new(dir, 5)),
        ..cfg.clone()
    };
    let local_cfg = with_dir(scratch.dir("twin-local"));
    let ckpt = local_cfg.checkpoint.as_ref().map(CheckpointPolicy::path);
    let local = measure(Job::local(cell.sim(local_cfg, None)), false);
    let remote = measure(
        cell.remote_job(with_dir(scratch.dir("twin-remote")), None, true),
        false,
    );
    let (local, remote) = match (local, remote) {
        (Ok(l), Ok(r)) => (l, r),
        (l, r) => {
            let err = l.err().or(r.err()).unwrap_or_default();
            report.check(false, || format!("twin run failed: {err}"));
            return None;
        }
    };
    let same = same_records(&remote.result, &local.result);
    report.check(same.is_ok(), || {
        format!(
            "distributed records differ from the in-process twin: {}",
            same.unwrap_err()
        )
    });
    let socket = remote.relay.map_or(0, |c| c.total()) as f64;
    let rounds = TWIN_ROUNDS as f64;
    report.metric(
        "net.socket_bytes_per_round",
        socket / rounds,
        "B",
        TWIN_ROUNDS,
    );
    report.metric(
        "net.wire_overhead_ratio",
        socket / remote.result.total_bytes as f64,
        "ratio",
        TWIN_ROUNDS,
    );
    report.metric(
        "net.tax_ms_per_round",
        percentile(&remote.latencies, 0.5) - percentile(&local.latencies, 0.5),
        "ms",
        TWIN_ROUNDS,
    );
    ckpt
}

/// Load and re-save the twin's checkpoint.
fn checkpoint(report: &mut Report, path: &Path, scratch: &Scratch) -> Option<Checkpoint> {
    let loaded: Vec<(f64, Option<Checkpoint>)> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let ck = Checkpoint::load(path).ok();
            (ms(t), ck)
        })
        .collect();
    let Some(ck) = loaded.last().and_then(|(_, c)| c.clone()) else {
        report.check(false, || {
            format!("checkpoint {} did not load", path.display())
        });
        return None;
    };
    let dir = scratch.dir("resave");
    let _ = std::fs::create_dir_all(&dir);
    let copy = dir.join("checkpoint.json");
    let saves: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let ok = ck.save(&copy).is_ok();
            if ok {
                ms(t)
            } else {
                f64::NAN
            }
        })
        .collect();
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    report.metric("checkpoint.save_ms", median(&saves), "ms", saves.len());
    let loads: Vec<f64> = loaded.iter().map(|(t, _)| *t).collect();
    report.metric("checkpoint.load_ms", median(&loads), "ms", loads.len());
    report.metric("checkpoint.bytes", bytes as f64, "B", 1);
    report.check(ck.round_next == TWIN_ROUNDS, || {
        format!(
            "checkpoint resumes at round {}, not {TWIN_ROUNDS}",
            ck.round_next
        )
    });
    Some(ck)
}

/// Party layer: on-demand materialization (the run's own calls when it
/// made any, else cloning the resident parties, which is what a resident
/// provider's materialization does) and mini-batch gathers.
fn party(report: &mut Report, cell: &Cell, log: &MaterializeLog, parties: &[Party]) {
    let calls = log.samples();
    let materialize = if calls.is_empty() {
        let ids: Vec<usize> = parties.iter().map(|p| p.id).collect();
        let mut v = Vec::new();
        while v.len() < MIN_CALLS {
            for &id in &ids {
                let t = Instant::now();
                black_box(cell.party(id));
                v.push(us(t));
            }
        }
        v
    } else {
        calls.clone()
    };
    report.metric(
        "party.materialize_us_p50",
        percentile(&materialize, 0.5),
        "us",
        materialize.len(),
    );
    report.metric(
        "party.materialize_calls",
        calls.len() as f64,
        "count",
        calls.len(),
    );
    let b = cell.configs[0].local.batch_size;
    let mut batch = Vec::new();
    while batch.len() < MIN_CALLS {
        for p in parties {
            let idx: Vec<usize> = (0..b.min(p.num_samples())).collect();
            batch.extend(time_us(1, || {
                black_box(p.batch(&idx));
            }));
        }
    }
    report.metric(
        "party.batch_us_p50",
        percentile(&batch, 0.5),
        "us",
        batch.len(),
    );
}

/// The model's layers, built like `niid_nn::models` builds them, so each
/// can be timed on its own. `None` for architectures the benchmark does
/// not use.
fn mirror(spec: &ModelSpec, classes: usize) -> Option<Vec<Box<dyn Layer>>> {
    let mut rng = Pcg64::new(0);
    let layers: Vec<Box<dyn Layer>> = match *spec {
        ModelSpec::LenetCnn { in_channels, side } => {
            let c1 = Conv2dShape {
                in_channels,
                out_channels: 6,
                in_h: side,
                in_w: side,
                kernel_h: 5,
                kernel_w: 5,
                stride: 1,
                padding: 0,
            };
            let s1 = c1.out_h();
            let c2 = Conv2dShape {
                in_channels: 6,
                out_channels: 16,
                in_h: s1 / 2,
                in_w: s1 / 2,
                ..c1
            };
            let s2 = c2.out_h();
            let flat = 16 * (s2 / 2) * (s2 / 2);
            vec![
                Box::new(Conv2d::new(c1, &mut rng)),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::square(6, s1, s1, 2)),
                Box::new(Conv2d::new(c2, &mut rng)),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::square(16, s2, s2, 2)),
                Box::new(Flatten::new()),
                Box::new(Linear::new(flat, 120, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Linear::new(120, 84, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Linear::new(84, classes, &mut rng)),
            ]
        }
        ModelSpec::Mlp { in_dim } => vec![
            Box::new(Linear::new(in_dim, 32, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(32, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(16, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, classes, &mut rng)),
        ],
        _ => return None,
    };
    Some(layers)
}

/// nn layer: whole-model calls and per-layer forward/backward on a real
/// mini-batch at the global state, plus test-set evaluation. Returns the
/// µs of one local step the timed calls account for: batch gather,
/// forward/backward, gradient copy, SGD step, parameter copy.
fn nn(report: &mut Report, cell: &Cell, cfg: &FlConfig, ck: &Checkpoint, parties: &[Party]) -> f64 {
    let classes = cell.test.num_classes;
    let mut model = cell.model.build(classes, 0);
    model.set_params_flat(&ck.global_params);
    if !ck.global_buffers.is_empty() {
        model.set_buffers_flat(&ck.global_buffers);
    }
    let b = cfg.local.batch_size;
    let p = parties
        .iter()
        .max_by_key(|p| p.num_samples())
        .expect("non-empty cohort");
    let idx: Vec<usize> = (0..b.min(p.num_samples())).collect();
    let (x, y) = p.batch(&idx);
    let batch_us = percentile(
        &time_us(MIN_CALLS, || {
            black_box(p.batch(&idx));
        }),
        0.5,
    );

    let mut fb = Vec::with_capacity(MIN_CALLS);
    for _ in 0..MIN_CALLS {
        let xi = x.clone();
        model.zero_grads();
        let t = Instant::now();
        black_box(model.forward_backward(xi, &y));
        fb.push(us(t));
    }
    let grads = model.grads_flat();
    let gf = time_us(MIN_CALLS, || {
        black_box(model.grads_flat());
    });
    let mut params = ck.global_params.clone();
    let sp = time_us(MIN_CALLS, || model.set_params_flat(black_box(&params)));
    let mut opt = Sgd::new(
        params.len(),
        cfg.local.lr,
        cfg.local.momentum,
        cfg.local.weight_decay,
    );
    let sgd = time_us(MIN_CALLS, || opt.step(&mut params, &grads));
    let (fb, gf, sp, sgd) = (
        percentile(&fb, 0.5),
        percentile(&gf, 0.5),
        percentile(&sp, 0.5),
        percentile(&sgd, 0.5),
    );
    report.metric("nn.forward_backward_us_p50", fb, "us", MIN_CALLS);
    report.metric("nn.grads_flat_us_p50", gf, "us", MIN_CALLS);
    report.metric("nn.set_params_flat_us_p50", sp, "us", MIN_CALLS);
    report.metric("nn.sgd_step_us_p50", sgd, "us", MIN_CALLS);

    per_layer(report, cell, ck, &mut model, &x, &y);

    model.set_params_flat(&ck.global_params);
    let evals: Vec<f64> = time_us(3, || {
        black_box(model.evaluate(
            &cell.test.features,
            &cell.test.labels,
            &cell.test.input_shape,
            cfg.eval_batch_size,
        ));
    });
    report.metric("nn.evaluate_ms", median(&evals) / 1e3, "ms", evals.len());
    batch_us + fb + gf + sp + sgd
}

/// Forward and backward time of each model layer (table rows
/// `nn.<i>.<kind>.{fwd,bwd}_us`), summarized for the result line as the
/// first layer, the parameterized layers, and the rest.
fn per_layer(
    report: &mut Report,
    cell: &Cell,
    ck: &Checkpoint,
    model: &mut Network,
    x: &Tensor,
    y: &[usize],
) {
    let Some(mut layers) = mirror(&cell.model, cell.test.num_classes) else {
        report.check(false, || {
            format!("no per-layer mirror for {:?}", cell.model)
        });
        return;
    };
    let mut reader = ParamReader::new(&ck.global_params);
    for l in &mut layers {
        l.read_params(&mut reader);
    }
    // The mirror must compute exactly what the model computes.
    let expect = model.forward(x.clone(), Phase::Train);
    let got = layers
        .iter_mut()
        .fold(x.clone(), |a, l| l.forward(a, Phase::Train));
    report.check(
        reader.is_exhausted() && got.as_slice() == expect.as_slice(),
        || "the per-layer mirror diverges from the model".into(),
    );
    let n = layers.len();
    let (mut fwd, mut bwd) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    let mut loss = LossScratch::new();
    for _ in 0..MIN_CALLS {
        let mut a = x.clone();
        for (i, l) in layers.iter_mut().enumerate() {
            let t = Instant::now();
            a = l.forward(a, Phase::Train);
            fwd[i].push(us(t));
        }
        let (_, mut g) = SoftmaxCrossEntropy::loss_and_grad_ws(&a, y, &mut loss);
        for (i, l) in layers.iter_mut().enumerate().rev() {
            l.zero_grads();
            let t = Instant::now();
            g = l.backward(g);
            bwd[i].push(us(t));
        }
    }
    let (mut pf, mut pb, mut of, mut ob) = (0.0, 0.0, 0.0, 0.0);
    for (i, l) in layers.iter().enumerate() {
        let (f, b) = (percentile(&fwd[i], 0.5), percentile(&bwd[i], 0.5));
        report.detail(&format!("nn.{i}.{}.fwd_us", l.name()), f, "us", MIN_CALLS);
        report.detail(&format!("nn.{i}.{}.bwd_us", l.name()), b, "us", MIN_CALLS);
        if l.param_count() > 0 {
            pf += f;
            pb += b;
        } else {
            of += f;
            ob += b;
        }
    }
    report.metric(
        "nn.layer0.fwd_us",
        percentile(&fwd[0], 0.5),
        "us",
        MIN_CALLS,
    );
    report.metric(
        "nn.layer0.bwd_us",
        percentile(&bwd[0], 0.5),
        "us",
        MIN_CALLS,
    );
    report.metric("nn.param_layers.fwd_us", pf, "us", MIN_CALLS);
    report.metric("nn.param_layers.bwd_us", pb, "us", MIN_CALLS);
    report.metric("nn.other_layers.fwd_us", of, "us", MIN_CALLS);
    report.metric("nn.other_layers.bwd_us", ob, "us", MIN_CALLS);
}

/// The cohort's local training from the global state.
struct Locals {
    ids: Vec<usize>,
    outcomes: Vec<LocalOutcome>,
    /// Each party's refreshed SCAFFOLD variate (empty otherwise).
    client_c: Vec<Vec<f32>>,
}

fn client_c_of(ck: &Checkpoint, id: usize) -> Vec<f32> {
    ck.client_c
        .iter()
        .find(|(i, _)| *i == id)
        .map(|(_, c)| c.clone())
        .unwrap_or_default()
}

/// local layer: `local_train` for every cohort party, repeated until at
/// least [`MIN_CALLS`] calls were timed.
fn local(
    report: &mut Report,
    cell: &Cell,
    cfg: &FlConfig,
    ck: &Checkpoint,
    parties: &[Party],
    step_us_attributed: f64,
) -> Locals {
    let mut model = cell.model.build(cell.test.num_classes, 0);
    let mut first: Option<Locals> = None;
    let (mut train_ms, mut step_us) = (Vec::new(), Vec::new());
    let (mut steps_total, mut samples, mut secs) = (0usize, 0usize, 0.0f64);
    while train_ms.len() < MIN_CALLS {
        let mut pass = Locals {
            ids: Vec::new(),
            outcomes: Vec::new(),
            client_c: Vec::new(),
        };
        for p in parties {
            let mut client_c = client_c_of(ck, p.id);
            let scaffold = match cfg.algorithm {
                Algorithm::Scaffold { variant } => Some(ScaffoldCtx {
                    server_c: &ck.server_c,
                    client_c: &mut client_c,
                    variant,
                }),
                _ => None,
            };
            let mut rng = Pcg64::new(derive_seed(cfg.seed, p.id as u64 + 1));
            let t = Instant::now();
            let out = local_train(
                &mut model,
                p,
                &ck.global_params,
                &ck.global_buffers,
                &cfg.local,
                &cfg.algorithm,
                scaffold,
                None,
                &mut rng,
            );
            let el = t.elapsed().as_secs_f64();
            report.check(out.avg_loss.is_finite(), || {
                format!("party {} local loss not finite", p.id)
            });
            train_ms.push(el * 1e3);
            step_us.push(el * 1e6 / out.tau.max(1) as f64);
            steps_total += out.tau;
            samples += out.n_samples * cfg.local.epochs;
            secs += el;
            pass.ids.push(p.id);
            pass.outcomes.push(out);
            pass.client_c.push(client_c);
        }
        first.get_or_insert(pass);
    }
    let first = first.expect("at least one replay pass");
    let n = train_ms.len();
    report.metric("local.train_ms_p50", percentile(&train_ms, 0.5), "ms", n);
    report.metric("local.train_ms_p90", percentile(&train_ms, 0.9), "ms", n);
    let steps: usize = first.outcomes.iter().map(|o| o.tau).sum();
    report.metric(
        "local.steps_per_round",
        steps as f64,
        "count",
        first.outcomes.len(),
    );
    report.metric("local.step_us_p50", percentile(&step_us, 0.5), "us", n);
    report.metric("local.samples_per_s", samples as f64 / secs, "1/s", n);
    let attributed = steps_total as f64 * step_us_attributed / 1e6;
    report.metric(
        "local.unattributed_frac",
        1.0 - attributed / secs,
        "frac",
        n,
    );
    first
}

/// Each party's upload as the codec encodes it, with the refreshed
/// error-feedback residual.
struct Wire {
    payloads: Vec<Vec<u8>>,
    decoded: Vec<DecodedUpdate>,
    residuals: Vec<Vec<f32>>,
}

fn residual_of(ck: &Checkpoint, id: usize) -> Vec<f32> {
    ck.residuals
        .iter()
        .find(|(i, _)| *i == id)
        .map(|(_, r)| r.clone())
        .unwrap_or_default()
}

/// compress layer: encode and decode every cohort delta (with its error
/// feedback) until at least [`MIN_CALLS`] of each were timed. `None`
/// (after a failed check) when a payload does not decode.
fn compress(report: &mut Report, cfg: &FlConfig, ck: &Checkpoint, locals: &Locals) -> Option<Wire> {
    let kern = active_kernel();
    let codec = cfg.codec;
    let dense = UpdateCodec::DenseF32;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut wire: Option<Wire> = None;
    let (mut sent, mut would) = (0usize, 0usize);
    while enc.len() < MIN_CALLS {
        let mut w = Wire {
            payloads: Vec::new(),
            decoded: Vec::new(),
            residuals: Vec::new(),
        };
        for (&id, out) in locals.ids.iter().zip(&locals.outcomes) {
            let n = out.delta.len();
            let mut residual = residual_of(ck, id);
            let comp: Vec<f32> = if codec.is_lossy() {
                residual.resize(n, 0.0);
                out.delta
                    .iter()
                    .zip(&residual)
                    .map(|(d, r)| d + r)
                    .collect()
            } else {
                out.delta.clone()
            };
            let seed = derive_seed(cfg.seed, id as u64);
            let t = Instant::now();
            let payload = codec.encode(kern, &comp, seed);
            enc.push(us(t));
            let t = Instant::now();
            let decoded = codec.decode(kern, &payload, n);
            dec.push(us(t));
            let Some(decoded) = decoded else {
                report.check(false, || format!("party {id}'s payload does not decode"));
                return None;
            };
            if codec.is_lossy() {
                residual.copy_from_slice(&comp);
                decoded.subtract_from(&mut residual);
            }
            sent += payload.len();
            would += dense.encoded_len(n);
            w.payloads.push(payload);
            w.decoded.push(decoded);
            w.residuals.push(residual);
        }
        wire.get_or_insert(w);
    }
    report.metric(
        "compress.encode_us_p50",
        percentile(&enc, 0.5),
        "us",
        enc.len(),
    );
    report.metric(
        "compress.decode_us_p50",
        percentile(&dec, 0.5),
        "us",
        dec.len(),
    );
    let ratio = sent as f64 / would as f64;
    report.metric("compress.up_ratio", ratio, "ratio", enc.len());
    if codec.is_lossy() {
        report.check(ratio < 1.0, || {
            format!("lossy upload ratio {ratio:.4} is not below 1")
        });
    }
    wire
}

/// aggregate layer: the server update over the cohort's decoded uploads.
fn aggregate(
    report: &mut Report,
    cell: &Cell,
    cfg: &FlConfig,
    ck: &Checkpoint,
    locals: &Locals,
    wire: &Wire,
) {
    let updates: Vec<UpdateRef<'_>> = wire.decoded.iter().map(UpdateRef::from).collect();
    let outcomes = &locals.outcomes;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut global = ck.global_params.clone();
        let mut server_c = ck.server_c.clone();
        let t = Instant::now();
        match cfg.algorithm {
            Algorithm::FedNova => {
                fednova_average_updates(&mut global, outcomes, &updates, cfg.server_lr)
            }
            _ => weighted_average_updates(&mut global, outcomes, &updates, cfg.server_lr),
        }
        if let Algorithm::Scaffold { .. } = cfg.algorithm {
            scaffold_update_c(&mut server_c, outcomes, cell.n_parties());
        }
        black_box(average_buffers(outcomes));
        samples.push(ms(t));
        black_box((global, server_c));
    }
    report.metric(
        "aggregate.ms_per_round",
        median(&samples),
        "ms",
        samples.len(),
    );
    report.metric(
        "aggregate.updates_per_round",
        updates.len() as f64,
        "count",
        1,
    );
}

/// net layer, message side: one round's frames rebuilt from real state
/// (a broadcast and an assignment per party host, an update per party),
/// encoded, decoded, and sent over a loopback socket.
fn messages(report: &mut Report, ck: &Checkpoint, locals: &Locals, wire: &Wire) {
    let (mut enc, mut dec, mut io) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let mut frames: Vec<(MsgKind, Vec<u8>)> = Vec::new();
        for host in 0..WORKERS {
            frames.push((
                MsgKind::Broadcast,
                BroadcastMsg {
                    round: 0,
                    params: ck.global_params.clone(),
                    buffers: ck.global_buffers.clone(),
                    server_c: ck.server_c.clone(),
                }
                .encode(),
            ));
            let parties = locals
                .ids
                .iter()
                .filter(|&&id| id % WORKERS == host)
                .map(|&id| PartyAssignment {
                    party_id: id as u64,
                    client_c: client_c_of(ck, id),
                    residual: residual_of(ck, id),
                })
                .collect();
            frames.push((
                MsgKind::RoundAssign,
                AssignMsg { round: 0, parties }.encode(),
            ));
        }
        for (k, (&id, out)) in locals.ids.iter().zip(&locals.outcomes).enumerate() {
            let body = UpdateBody::Trained {
                payload: wire.payloads[k].clone(),
                residual: wire.residuals[k].clone(),
                client_c: locals.client_c[k].clone(),
                buffers: out.buffers.clone(),
                delta_c: out.delta_c.clone(),
                tau: out.tau as u64,
                n_samples: out.n_samples as u64,
                avg_loss: out.avg_loss,
                wall_ms: out.wall_ms,
            };
            let msg = UpdateMsg {
                round: 0,
                party_id: id as u64,
                body,
            };
            frames.push((MsgKind::Update, msg.encode()));
        }
        enc.push(ms(t));

        let t = Instant::now();
        let mut ok = true;
        for (kind, bytes) in &frames {
            ok &= match kind {
                MsgKind::Broadcast => BroadcastMsg::decode(bytes).is_ok(),
                MsgKind::RoundAssign => AssignMsg::decode(bytes).is_ok(),
                _ => UpdateMsg::decode(bytes).is_ok(),
            };
        }
        dec.push(ms(t));
        report.check(ok, || "a replayed message does not decode".into());
        match frame_io(&frames) {
            Ok(t) => io.push(t),
            Err(e) => report.check(false, || format!("loopback frame I/O failed: {e}")),
        }
    }
    report.metric("net.msg_encode_ms_per_round", median(&enc), "ms", enc.len());
    report.metric("net.msg_decode_ms_per_round", median(&dec), "ms", dec.len());
    report.metric("net.frame_io_ms_per_round", median(&io), "ms", io.len());
}

/// Write `frames` to a loopback socket and read them back on another
/// thread; the wall time until the last frame arrived, ms.
fn frame_io(frames: &[(MsgKind, Vec<u8>)]) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let expect = frames.len();
    let reader = std::thread::spawn(move || -> Result<usize, String> {
        let (mut s, _) = listener.accept().map_err(|e| e.to_string())?;
        let mut bytes = 0;
        for _ in 0..expect {
            bytes += read_frame(&mut s, DEFAULT_MAX_FRAME)
                .map_err(|e| e.to_string())?
                .payload
                .len();
        }
        Ok(bytes)
    });
    let mut out = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let _ = out.set_nodelay(true);
    let t = Instant::now();
    for (kind, bytes) in frames {
        write_frame(&mut out, *kind, bytes).map_err(|e| e.to_string())?;
    }
    let got = reader
        .join()
        .map_err(|_| "frame reader panicked".to_string())??;
    let elapsed = ms(t);
    let sent: usize = frames.iter().map(|(_, b)| b.len()).sum();
    if got != sent {
        return Err(format!("read {got} of {sent} payload bytes"));
    }
    Ok(elapsed)
}
