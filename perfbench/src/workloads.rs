//! The three workloads: inputs generated from the seed, and the engines
//! (in-process or coordinator plus party clients) built over them.

use crate::clock::ClockSink;
use crate::relay::{Relay, RelayCounts};
use niid_bench_rs::core::partition::{build_parties, partition, LazyPartition, Strategy};
use niid_bench_rs::data::{generate, Dataset, DatasetId, GenConfig};
use niid_bench_rs::fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_bench_rs::fl::local::LocalConfig;
use niid_bench_rs::fl::net::{Coordinator, NetConfig, PartyClientConfig, PartyHost, ServerAddr};
use niid_bench_rs::fl::{
    run_party_client, Algorithm, CheckpointPolicy, ControlVariateUpdate, NetError, Party,
    PartyProvider, ResidentProvider, RunResult, UpdateCodec,
};
use niid_bench_rs::nn::ModelSpec;
use niid_bench_rs::stats::derive_seed;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads for local training, and party-client connections on
/// the distributed workload.
pub const WORKERS: usize = 2;

/// Seed of the synthetic datasets. Like the paper's real datasets, each
/// workload's data is fixed; `--seed` drives the partition into parties
/// and every training-time draw.
const DATA_SEED: u64 = 0x5EED;

/// Parties sampled per round on the cross-device workload.
pub const XDEVICE_COHORT: usize = 100;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One Table 3 row: LeNet on CIFAR-10-like images, 10 Dirichlet(0.5)
    /// silos, FedAvg/FedProx/SCAFFOLD/FedNova in sequence.
    SiloCnn,
    /// Cross-device: 20k lazily partitioned covtype parties with noise
    /// feature skew, a 100-party cohort, top-k + int8 uploads.
    XdeviceTopk8,
    /// Distributed: coordinator plus two party-client connections over
    /// loopback TCP, a 132k-parameter MLP under SCAFFOLD + top-k + int8,
    /// checkpointing every 5 rounds.
    DistWideScaffold,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::SiloCnn, Kind::XdeviceTopk8, Kind::DistWideScaffold];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SiloCnn => "silo_cnn",
            Kind::XdeviceTopk8 => "xdevice_topk8",
            Kind::DistWideScaffold => "dist_wide_scaffold",
        }
    }

    /// Rounds per FL run. Fixed, because per-round cost depends on run
    /// length (error-feedback residuals accumulate per party seen).
    /// `silo_cnn` runs long enough that LeNet clears its accuracy floor on
    /// slow-learning Dirichlet draws too: over 22 seeds, the mean over a
    /// seed's cells was 0.20 at worst (median 0.29) after 9 rounds, and
    /// 0.33 at worst (median 0.42) after 18.
    pub fn rounds(self) -> usize {
        match self {
            Kind::SiloCnn => 18,
            Kind::XdeviceTopk8 => 100,
            Kind::DistWideScaffold => 34,
        }
    }

    /// Mean final accuracy the workload must reach: well above chance
    /// (0.1 for ten classes; for the binary tasks, above the majority
    /// class, about 0.62 on covtype and 0.52 on rcv1).
    pub fn accuracy_floor(self) -> f64 {
        match self {
            Kind::SiloCnn => 0.25,
            Kind::XdeviceTopk8 => 0.68,
            Kind::DistWideScaffold => 0.65,
        }
    }

    /// Whether uploads go through a lossy codec.
    pub fn lossy(self) -> bool {
        self != Kind::SiloCnn
    }

    /// Whether the workload's runs cross sockets.
    pub fn distributed(self) -> bool {
        self == Kind::DistWideScaffold
    }
}

/// A per-process scratch directory inside the working directory, removed
/// on drop.
pub struct Scratch {
    root: PathBuf,
    next: AtomicUsize,
}

impl Scratch {
    /// Create `.bench_tmp/<pid>` under the current directory.
    pub fn new() -> std::io::Result<Scratch> {
        let root = Path::new(".bench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicUsize::new(0),
        })
    }

    /// A fresh subdirectory path (created by whoever writes to it).
    pub fn dir(&self, label: &str) -> PathBuf {
        let k = self.next.fetch_add(1, Ordering::SeqCst);
        self.root.join(format!("{label}-{k}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Removed only when no other benchmark process still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Times every `materialize` call of the provider it wraps.
#[derive(Clone, Default)]
pub struct MaterializeLog(Arc<Mutex<Vec<f64>>>);

impl MaterializeLog {
    /// Materialization times in µs, in call order.
    pub fn samples(&self) -> Vec<f64> {
        self.0.lock().expect("materialize log poisoned").clone()
    }
}

/// A shared provider, optionally timed.
struct Provided {
    inner: Arc<dyn PartyProvider>,
    log: Option<MaterializeLog>,
}

impl PartyProvider for Provided {
    fn n_parties(&self) -> usize {
        self.inner.n_parties()
    }
    fn num_samples(&self, id: usize) -> usize {
        self.inner.num_samples(id)
    }
    fn input_shape(&self) -> &[usize] {
        self.inner.input_shape()
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn materialize(&self, id: usize) -> Party {
        let Some(log) = &self.log else {
            return self.inner.materialize(id);
        };
        let t = Instant::now();
        let p = self.inner.materialize(id);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if let Ok(mut v) = log.0.lock() {
            v.push(us);
        }
        p
    }
}

/// How a workload's parties are held.
pub enum Population {
    /// Every party resident (cross-silo).
    Resident(Vec<Party>),
    /// Parties regenerated on demand from a lazy partition (cross-device).
    Lazy(Arc<LazyPartition>),
}

/// One workload's generated inputs.
pub struct Cell {
    /// Which workload.
    pub kind: Kind,
    /// The model every run trains.
    pub model: ModelSpec,
    /// The parties.
    pub population: Population,
    /// Held-out test set.
    pub test: Dataset,
    /// One config per run of a pass (four algorithms on `silo_cnn`).
    pub configs: Vec<FlConfig>,
    /// Seconds spent generating the dataset.
    pub generate_s: f64,
    /// Seconds spent partitioning it into parties.
    pub partition_s: f64,
}

fn local(epochs: usize, batch_size: usize, lr: f32) -> LocalConfig {
    LocalConfig {
        epochs,
        batch_size,
        lr,
        momentum: 0.9,
        weight_decay: 0.0,
    }
}

fn base_config(kind: Kind, seed: u64) -> FlConfig {
    FlConfig {
        algorithm: Algorithm::FedAvg,
        rounds: kind.rounds(),
        local: local(1, 32, 0.02),
        sample_fraction: 1.0,
        buffer_policy: BufferPolicy::Average,
        eval_batch_size: 256,
        eval_every: 1,
        server_lr: 1.0,
        seed: derive_seed(seed, 0xF1),
        threads: WORKERS,
        min_quorum: 0.5,
        fault_plan: None,
        checkpoint: None,
        codec: UpdateCodec::DenseF32,
    }
}

fn topk8() -> UpdateCodec {
    "topk8:0.1".parse().expect("valid codec spec")
}

fn gen_config(max_train: usize, max_tabular_dim: usize) -> GenConfig {
    GenConfig {
        max_train,
        max_test: 600,
        max_tabular_dim,
        ..GenConfig::bench(DATA_SEED)
    }
}

/// Dirichlet(0.5) label skew over 10 resident parties.
fn dirichlet_parties(train: &Dataset, seed: u64) -> Vec<Party> {
    let part = partition(
        train,
        10,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        derive_seed(seed, 0x11),
    )
    .expect("Dirichlet partition of the benchmark data");
    build_parties(train, &part, derive_seed(seed, 0x17))
}

impl Cell {
    /// Generate the workload's data and partition it from `seed`.
    pub fn build(kind: Kind, seed: u64, scratch: &Scratch) -> Cell {
        let t = Instant::now();
        let split = match kind {
            Kind::SiloCnn => generate(DatasetId::Cifar10, &gen_config(2_000, 64)),
            Kind::XdeviceTopk8 => generate(DatasetId::Covtype, &gen_config(400_000, 54)),
            Kind::DistWideScaffold => generate(DatasetId::Rcv1, &gen_config(6_000, 4_096)),
        };
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let population = match kind {
            Kind::XdeviceTopk8 => Population::Lazy(Arc::new(
                LazyPartition::new(
                    Arc::new(split.train),
                    20_000,
                    Strategy::NoiseFeatureSkew { sigma: 0.1 },
                    derive_seed(seed, 0x11),
                )
                .expect("lazy partition of the benchmark data"),
            )),
            _ => Population::Resident(dirichlet_parties(&split.train, seed)),
        };
        let partition_s = t.elapsed().as_secs_f64();
        let base = base_config(kind, seed);
        let (model, configs) = match kind {
            Kind::SiloCnn => {
                let algorithms = [
                    Algorithm::FedAvg,
                    Algorithm::FedProx { mu: 0.01 },
                    Algorithm::Scaffold {
                        variant: ControlVariateUpdate::Reuse,
                    },
                    Algorithm::FedNova,
                ];
                let configs = algorithms
                    .into_iter()
                    .map(|algorithm| FlConfig {
                        algorithm,
                        local: local(2, 32, 0.01),
                        ..base.clone()
                    })
                    .collect();
                (
                    ModelSpec::LenetCnn {
                        in_channels: 3,
                        side: 16,
                    },
                    configs,
                )
            }
            Kind::XdeviceTopk8 => (
                ModelSpec::Mlp { in_dim: 54 },
                vec![FlConfig {
                    local: local(5, 10, 0.1),
                    sample_fraction: XDEVICE_COHORT as f64 / 20_000.0,
                    eval_every: 10,
                    codec: topk8(),
                    ..base
                }],
            ),
            Kind::DistWideScaffold => (
                ModelSpec::Mlp { in_dim: 4_096 },
                vec![FlConfig {
                    algorithm: Algorithm::Scaffold {
                        variant: ControlVariateUpdate::Reuse,
                    },
                    codec: topk8(),
                    checkpoint: Some(CheckpointPolicy::new(scratch.dir("ckpt"), 5)),
                    ..base
                }],
            ),
        };
        Cell {
            kind,
            model,
            population,
            test: split.test,
            configs,
            generate_s,
            partition_s,
        }
    }

    /// Total party count.
    pub fn n_parties(&self) -> usize {
        match &self.population {
            Population::Resident(v) => v.len(),
            Population::Lazy(l) => l.n_parties(),
        }
    }

    /// Party `id`'s dataset.
    pub fn party(&self, id: usize) -> Party {
        match &self.population {
            Population::Resident(v) => v[id].clone(),
            Population::Lazy(l) => l.materialize(id),
        }
    }

    fn provider(&self, log: Option<&MaterializeLog>) -> Box<dyn PartyProvider> {
        let inner: Arc<dyn PartyProvider> = match &self.population {
            Population::Resident(v) => Arc::new(ResidentProvider::new(v.clone())),
            Population::Lazy(l) => Arc::clone(l) as Arc<dyn PartyProvider>,
        };
        Box::new(Provided {
            inner,
            log: log.cloned(),
        })
    }

    /// An in-process engine for `config`.
    pub fn sim(&self, config: FlConfig, log: Option<&MaterializeLog>) -> FedSim {
        let sim = match &self.population {
            Population::Resident(v) => {
                FedSim::new(self.model.clone(), v.clone(), self.test.clone(), config)
            }
            Population::Lazy(_) => FedSim::with_provider(
                self.model.clone(),
                self.provider(log),
                self.test.clone(),
                config,
            ),
        };
        sim.expect("valid benchmark config")
    }

    /// A coordinator for `config` with [`WORKERS`] party clients
    /// connected (directly, or through a counting relay), roster complete.
    pub fn remote_job(&self, config: FlConfig, log: Option<&MaterializeLog>, relay: bool) -> Job {
        let sim = self.sim(config.clone(), None);
        let fingerprint = sim.fingerprint();
        let net = NetConfig {
            accept_timeout: Duration::from_secs(60),
            ..NetConfig::default()
        };
        let mut coord =
            Coordinator::bind("127.0.0.1:0", self.n_parties(), fingerprint.clone(), net)
                .expect("bind the coordinator on loopback");
        let server = coord.local_addr().expect("coordinator address");
        let relay = relay.then(|| Relay::start(server).expect("start the loopback relay"));
        let target = relay.as_ref().map_or(server, Relay::addr);
        let provider: Arc<dyn PartyProvider> = Arc::from(self.provider(log));
        let clients = (0..WORKERS)
            .map(|slot| {
                let ids: Vec<usize> = (0..self.n_parties())
                    .filter(|id| id % WORKERS == slot)
                    .collect();
                let mut client = PartyClientConfig::new(
                    ServerAddr::Fixed(target.to_string()),
                    ids,
                    fingerprint.clone(),
                );
                client.reconnect_backoff = Duration::from_millis(20);
                client.max_reconnects = 100;
                let host = PartyHost {
                    model_spec: self.model.clone(),
                    provider: Box::new(Provided {
                        inner: Arc::clone(&provider),
                        log: None,
                    }),
                    config: config.clone(),
                };
                std::thread::spawn(move || run_party_client(&client, &host))
            })
            .collect();
        coord.wait_for_roster().expect("party roster complete");
        Job {
            sim,
            remote: Some(Remote {
                coord,
                clients,
                relay,
            }),
        }
    }

    /// The engines for one pass of the workload.
    pub fn jobs(&self, log: Option<&MaterializeLog>) -> Vec<Job> {
        self.configs
            .iter()
            .map(|c| {
                if self.kind.distributed() {
                    self.remote_job(c.clone(), log, false)
                } else {
                    Job::local(self.sim(c.clone(), log))
                }
            })
            .collect()
    }
}

/// The coordinator of a distributed run with its connected party clients.
pub struct Remote {
    coord: Coordinator,
    clients: Vec<JoinHandle<Result<(), NetError>>>,
    relay: Option<Relay>,
}

/// One ready-to-run FL run: an engine, plus its party clients when the
/// run is distributed.
pub struct Job {
    sim: FedSim,
    remote: Option<Remote>,
}

impl Job {
    /// An in-process run.
    pub fn local(sim: FedSim) -> Job {
        Job { sim, remote: None }
    }

    /// Run to completion under `clock`, returning the result, the clock
    /// reading the moment the engine returned, and (distributed runs
    /// through a relay) the socket byte counts. Distributed runs also shut
    /// their party clients down and join them.
    pub fn run(self, clock: &ClockSink) -> Result<(RunResult, f64, Option<RelayCounts>), String> {
        match self.remote {
            None => {
                let result = self.sim.run_traced(clock).map_err(|e| e.to_string())?;
                Ok((result, clock.now_ms(), None))
            }
            Some(Remote {
                mut coord,
                clients,
                relay,
            }) => {
                let result = self.sim.run_distributed(&mut coord, clock);
                let end = clock.now_ms();
                coord.shutdown_all();
                drop(coord);
                let mut client_errors = Vec::new();
                for c in clients {
                    match c.join() {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => client_errors.push(e.to_string()),
                        Err(_) => client_errors.push("party client panicked".into()),
                    }
                }
                let counts = relay.map(Relay::finish);
                let result = result.map_err(|e| e.to_string())?;
                if !client_errors.is_empty() {
                    return Err(client_errors.join("; "));
                }
                Ok((result, end, counts))
            }
        }
    }
}
