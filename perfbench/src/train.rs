//! The training workloads — `node-products`, `dp-products`,
//! `stream-papers` — and the probes every traced run shares.

use crate::probes::{self, Family, Shapes};
use crate::report::Report;
use crate::stats::{median, tail};
use crate::{host, Args, DATA_SEED, PRODUCTS_SCALE};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use torchgt::{ModelKind, TorchGtBuilder};
use torchgt_ckpt::CheckpointStore;
use torchgt_comm::FaultPlan;
use torchgt_graph::{DatasetKind, NodeDataset};
use torchgt_model::api::ArchDescriptor;
use torchgt_model::{Gt, Pattern, SequenceBatch, SequenceModel};
use torchgt_obs::{Event, MemoryRecorder, MetricsReport, RecorderHandle};
use torchgt_runtime::{
    train_data_parallel_elastic, ElasticStats, EpochStats, Method, TrainConfig, Trainer,
};
use torchgt_tensor::{Param, Tensor, Workspace};

/// `node-products`: the paper's method on the products stand-in.
pub const NODE: Shapes = Shapes {
    family: Family::Graphormer,
    hidden: 64,
    layers: 3,
    heads: 8,
    seq_len: 512,
    clustered: true,
};
/// `dp-products`: GP-sparse GT on the elastic data-parallel driver.
pub const DP: Shapes = Shapes {
    family: Family::Gt,
    hidden: 32,
    layers: 2,
    heads: 4,
    seq_len: 512,
    clustered: false,
};
/// `stream-papers`: a small GP-sparse model streamed from TGDS shards.
pub const STREAM: Shapes = Shapes {
    family: Family::Graphormer,
    hidden: 16,
    layers: 1,
    heads: 2,
    seq_len: 512,
    clustered: false,
};

/// Scale of the papers100M stand-in the streaming workload shards.
pub const PAPERS_SCALE: f64 = 0.002;
/// Data-parallel world size.
pub const DP_WORLD: usize = 2;

/// Seconds one epoch takes on the reference host (2-core AVX-512 Xeon),
/// used only to turn `--seconds` into a fixed epoch count so the losses a
/// run reports depend on the seed and `--seconds`, never on machine speed.
/// In-memory and streaming runs measure at least 3 (node) or 4 (stream)
/// epochs after the warm-up and report their median, so one slow epoch
/// does not set the figure.
const NODE_EPOCH_S: f64 = 7.5;
const STREAM_EPOCH_S: f64 = 4.7;
const DP_EPOCH_S: f64 = 0.48;
const NODE_MIN_EPOCHS: usize = 3;
const STREAM_MIN_EPOCHS: usize = 4;
/// Set-ups timed per run: at least `MIN_SETUPS`, and more while they have
/// taken less than `SETUP_FLOOR_S` in total; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_FLOOR_S: f64 = 3.0;
/// Epochs of each side of a traced data-parallel run.
const DP_TRACED_EPOCHS: usize = 4;

fn epochs_for(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).round() as usize).max(1)
}

pub fn builder(method: Method, sh: &Shapes, seed: u64) -> TorchGtBuilder {
    TorchGtBuilder::new(method)
        .model(match sh.family {
            Family::Graphormer => ModelKind::Graphormer,
            Family::Gt => ModelKind::Gt,
        })
        .seq_len(sh.seq_len)
        .hidden(sh.hidden)
        .layers(sh.layers)
        .heads(sh.heads)
        .lr(2e-3)
        .seed(seed)
}

/// Time repeated set-ups, keep the last, report the median. Each set-up's
/// predecessor is dropped before its clock starts.
fn timed_setups<T>(
    r: &mut Report,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<T, String> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < MIN_SETUPS
        || (times.iter().sum::<f64>() < SETUP_FLOOR_S && times.len() < MAX_SETUPS)
    {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup(times.len())?);
        times.push(t.elapsed().as_secs_f64());
    }
    r.metric("setup_s", median(&times));
    r.note(format!(
        "setup_s samples: {times:?}; peak RSS after set-up {:.1} MB",
        host::peak_rss_mb()
    ));
    Ok(kept.expect("at least one set-up"))
}

/// Run a warm-up epoch, then `measured` epochs, and report the end-to-end
/// training metrics over the measured ones.
fn train_epochs(
    r: &mut Report,
    trainer: &mut dyn Trainer,
    measured: usize,
    tokens_per_epoch: usize,
) {
    let mut runs: Vec<(EpochStats, f64)> = Vec::with_capacity(measured + 1);
    let mut rss = vec![host::peak_rss_mb()];
    for _ in 0..=measured {
        let t = Instant::now();
        let st = trainer.train_epoch();
        runs.push((st, t.elapsed().as_secs_f64()));
        rss.push(host::peak_rss_mb());
    }
    for ((st, wall), rss) in runs.iter().zip(&rss[1..]) {
        r.note(format!(
            "epoch {}: loss {:.4}, test_acc {:.4}, wall {wall:.3} s, {} sparse + {} full steps, beta_thre {:.4}, peak RSS {rss:.1} MB",
            st.epoch, st.loss, st.test_acc, st.sparse_iters, st.full_iters, st.beta_thre
        ));
        let steps = (st.sparse_iters + st.full_iters) as u64;
        r.attempted += steps;
        if !st.loss.is_finite() {
            r.failed += steps;
        }
    }
    let m = &runs[1..];
    let tokens_per_s = median(
        &m.iter()
            .map(|(_, w)| tokens_per_epoch as f64 / w)
            .collect::<Vec<_>>(),
    );
    let step_ms: Vec<f64> = m
        .iter()
        .map(|(st, w)| w * 1e3 / (st.sparse_iters + st.full_iters).max(1) as f64)
        .collect();
    let last = &runs.last().expect("at least one epoch").0;
    // Set-up plus one full epoch: later epochs only add the allocator's
    // slow creep, which varies run to run and is printed per epoch above.
    r.metric("peak_rss_mb", rss[1]);
    r.metric("throughput_per_s", tokens_per_s);
    r.metric("latency_p50_ms", median(&step_ms));
    r.note(format!(
        "train_tokens_per_s {tokens_per_s:.1} 1/s, median of {} measured epoch(s) after 1 warm-up; \
         final_loss {:.4}; test_acc {:.4}",
        m.len(),
        last.loss,
        last.test_acc
    ));
    r.check(
        "every epoch loss is finite",
        runs.iter().all(|(st, _)| st.loss.is_finite()),
    );
}

fn node_trainer(seed: u64) -> Result<(NodeDataset, torchgt_runtime::NodeTrainer), String> {
    let ds = DatasetKind::OgbnProducts.generate_node(PRODUCTS_SCALE, DATA_SEED);
    let trainer = builder(Method::TorchGt, &NODE, seed)
        .build_node(&ds)
        .map_err(|e| e.to_string())?;
    Ok((ds, trainer))
}

/// `node-products`, tracing off.
pub fn node(args: &Args, r: &mut Report) -> Result<(), String> {
    let (ds, mut trainer) = timed_setups(r, |_| node_trainer(args.seed))?;
    r.note(format!(
        "dataset products scale {PRODUCTS_SCALE} seed {DATA_SEED}: {} nodes, {} edges",
        ds.num_nodes(),
        ds.graph.num_edges()
    ));
    let measured = epochs_for(args.seconds, NODE_EPOCH_S).max(NODE_MIN_EPOCHS);
    train_epochs(r, &mut trainer, measured, ds.num_nodes());
    Ok(())
}

/// Epochs each side of a traced in-memory or streaming run trains.
const TRACED_EPOCHS: usize = 2;

/// The traced side of a traced run: its recorder's report and wall time.
struct TracedEpochs {
    wall_s: f64,
    report: MetricsReport,
}

/// Train an untraced and a traced twin epoch by epoch, alternating, and
/// check that every epoch's loss and accuracy agree bit for bit. The
/// tracing overhead compares their summed epoch times. Returns the traced
/// twin.
fn traced_pair<T: Trainer>(
    r: &mut Report,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(TracedEpochs, T), String> {
    let mut plain = build()?;
    let mut traced = build()?;
    let mem = Arc::new(MemoryRecorder::default());
    traced.attach_recorder(mem.clone());
    let mut walls = Vec::with_capacity(TRACED_EPOCHS);
    for _ in 0..TRACED_EPOCHS {
        let t = Instant::now();
        let a = plain.train_epoch();
        let wall_a = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let b = traced.train_epoch();
        let wall_b = t.elapsed().as_secs_f64();
        r.check(
            format!(
                "traced epoch {} loss and accuracy are bit-equal to the untraced twin's",
                b.epoch
            ),
            a.loss.to_bits() == b.loss.to_bits() && a.test_acc.to_bits() == b.test_acc.to_bits(),
        );
        r.check(
            format!("epoch {} losses are finite", b.epoch),
            a.loss.is_finite() && b.loss.is_finite(),
        );
        let steps = (a.sparse_iters + a.full_iters + b.sparse_iters + b.full_iters) as u64;
        r.attempted += steps;
        r.failed += if a.loss.is_finite() && b.loss.is_finite() {
            0
        } else {
            steps
        };
        r.note(format!(
            "traced pair epoch {}: untraced {wall_a:.3} s, traced {wall_b:.3} s, loss {:.4}",
            b.epoch, b.loss
        ));
        walls.push((wall_a, wall_b));
    }
    let (wall_a, wall_b): (f64, f64) = walls
        .iter()
        .fold((0.0, 0.0), |(a, b), w| (a + w.0, b + w.1));
    r.metric("obs.trace_overhead_pct", 100.0 * (wall_b - wall_a) / wall_a);
    Ok((
        TracedEpochs {
            wall_s: wall_b,
            report: mem.report(),
        },
        traced,
    ))
}

/// Runtime rows from a traced epoch's recorder. `initial_preprocess_s` is
/// the set-up preprocessing the first epoch trace is charged with, which
/// ran before the epoch's wall clock started. Returns the attention mix
/// `(sparse steps, full steps, forward + backward seconds)`.
pub fn runtime_rows(
    r: &mut Report,
    rep: &MetricsReport,
    wall_s: f64,
    initial_preprocess_s: f64,
) -> (usize, usize, f64) {
    let sum = |f: fn(&torchgt_obs::EpochTrace) -> f64| rep.epochs.iter().map(f).sum::<f64>();
    let (fwd, bwd) = (sum(|e| e.forward_s), sum(|e| e.backward_s));
    let pct = |s: f64| 100.0 * s / wall_s;
    r.metric("runtime.forward_s", fwd);
    r.metric("runtime.backward_s", bwd);
    r.metric("runtime.other_s", wall_s - fwd - bwd);
    r.metric("runtime.optim_pct", pct(sum(|e| e.optim_s)));
    r.metric("runtime.eval_pct", pct(sum(|e| e.eval_s)));
    r.metric(
        "runtime.preprocess_pct",
        pct((sum(|e| e.preprocess_s) - initial_preprocess_s).max(0.0)),
    );
    let sparse: usize = rep.epochs.iter().map(|e| e.sparse_iters).sum();
    let full: usize = rep.epochs.iter().map(|e| e.full_iters).sum();
    r.metric("runtime.sparse_steps", sparse as f64);
    r.metric("runtime.full_steps", full as f64);
    let step_s = |s: &torchgt_obs::StepTrace| s.forward_s + s.backward_s + s.optim_s;
    let all: f64 = rep.steps.iter().map(step_s).sum();
    let full_s: f64 = rep.steps.iter().filter(|s| !s.sparse).map(step_s).sum();
    r.metric(
        "runtime.full_step_time_share",
        100.0 * full_s / all.max(f64::MIN_POSITIVE),
    );
    let ms: Vec<f64> = rep.steps.iter().map(|s| step_s(s) * 1e3).collect();
    step_rows(r, &ms);
    r.metric(
        "runtime.beta_transitions",
        rep.events_of(Event::BETA_TRANSITION).len() as f64,
    );
    let gauge = |name: &str| {
        rep.gauges
            .iter()
            .find(|g| g.name == name)
            .map_or(0.0, |g| g.value)
    };
    r.metric("tensor.alloc_bytes", gauge("alloc_bytes"));
    r.metric("tensor.arena_reuse_hits", gauge("arena_reuse_hits"));
    (sparse, full, fwd + bwd)
}

fn step_rows(r: &mut Report, ms: &[f64]) {
    r.metric("runtime.step_ms_p50", median(ms));
    if let Some(t) = tail(ms) {
        r.metric("runtime.step_ms_tail", t.value);
        r.note(format!(
            "step time: p50 {:.3} ms, p{} {:.3} ms ({} steps, {} beyond)",
            median(ms),
            t.pct,
            t.value,
            t.samples,
            t.beyond
        ));
    }
}

/// `node-products`, traced.
pub fn node_traced(args: &Args, work: &Path, r: &mut Report) -> Result<(), String> {
    let t = Instant::now();
    let ds = DatasetKind::OgbnProducts.generate_node(PRODUCTS_SCALE, DATA_SEED);
    r.metric("graph.generate_s", t.elapsed().as_secs_f64());
    let probed = common_probes(
        r,
        args,
        work,
        &ds,
        &NODE,
        Source::Generate(DatasetKind::OgbnProducts, PRODUCTS_SCALE),
    )?;
    let mut initial = 0.0;
    let (epochs, mut trainer) = traced_pair(r, || {
        let t = builder(Method::TorchGt, &NODE, args.seed)
            .build_node(&ds)
            .map_err(|e| e.to_string())?;
        initial = t.preprocess_seconds();
        Ok(t)
    })?;
    let steps = runtime_rows(r, &epochs.report, epochs.wall_s, initial);
    probed.attention_share(r, &NODE, steps);
    probed.serve(r, trainer.model_mut(), &ds, args.seed)
}

fn stream_trainer(seed: u64, dir: &Path) -> Result<torchgt_runtime::StreamingTrainer, String> {
    let loader = torchgt_data::ShardLoader::open(dir)
        .map_err(|e| e.to_string())?
        .with_shuffle(seed);
    builder(Method::GpSparse, &STREAM, seed)
        .build_streaming(loader)
        .map_err(|e| e.to_string())
}

/// A directory of shards, removed when dropped.
struct ShardDir(std::path::PathBuf);

impl Drop for ShardDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `stream-papers`, tracing off.
pub fn stream(args: &Args, work: &Path, r: &mut Report) -> Result<(), String> {
    let mut datagen_s = Vec::new();
    let (mut trainer, dir, bytes) = timed_setups(r, |i| {
        let dir = ShardDir(work.join(format!("papers-{i}")));
        let (s, bytes) = crate::datagen_in_child(&dir.0)?;
        datagen_s.push(s);
        Ok((stream_trainer(args.seed, &dir.0)?, dir, bytes))
    })?;
    let man = trainer.loader().manifest().clone();
    let shard_bytes: u64 = man.shards.iter().map(|s| s.bytes).sum();
    r.note(format!(
        "dataset papers100m scale {PAPERS_SCALE} seed {DATA_SEED}: {} nodes, {} shards, {bytes} bytes on disk, id {}",
        man.total_nodes,
        man.shards.len(),
        trainer.dataset_id()
    ));
    let measured = epochs_for(args.seconds, STREAM_EPOCH_S).max(STREAM_MIN_EPOCHS);
    train_epochs(r, &mut trainer, measured, man.total_nodes as usize);
    let rss = host::peak_rss_mb();
    let st = trainer.loader().stats();
    // Each epoch streams every shard twice: once to train, once to evaluate.
    let passes = 2 * (measured as u64 + 1);
    r.check(
        format!(
            "shard bytes read ({}) equal the manifest's shard bytes x {passes} passes",
            st.bytes_read
        ),
        st.bytes_read == shard_bytes * passes,
    );
    r.note(format!(
        "out-of-core: peak RSS {rss:.1} MB after every epoch against {:.1} MB of shards",
        bytes as f64 / (1024.0 * 1024.0)
    ));
    r.note(format!(
        "loader: {} shards, prefetch stall {:.1} ms, {} retries; datagen samples {datagen_s:?} s",
        st.shards_delivered, st.stall_ms, st.retries
    ));
    drop(trainer);
    drop(dir);
    Ok(())
}

/// `stream-papers`, traced.
pub fn stream_traced(args: &Args, work: &Path, r: &mut Report) -> Result<(), String> {
    let dir = work.join("papers");
    let (datagen_s, _) = crate::datagen_in_child(&dir)?;
    let t = Instant::now();
    let ds = DatasetKind::OgbnPapers100M.generate_node(PAPERS_SCALE, DATA_SEED);
    r.metric("graph.generate_s", t.elapsed().as_secs_f64());
    let probed = common_probes(r, args, work, &ds, &STREAM, Source::Shards(&dir, datagen_s))?;
    let (epoch, mut trainer) = traced_pair(r, || stream_trainer(args.seed, &dir))?;
    let st = trainer.loader().stats();
    let shard_bytes: u64 = trainer
        .loader()
        .manifest()
        .shards
        .iter()
        .map(|s| s.bytes)
        .sum();
    r.check(
        format!(
            "shard bytes read ({}) equal the manifest's shard bytes x {} passes",
            st.bytes_read,
            2 * TRACED_EPOCHS
        ),
        st.bytes_read == (2 * TRACED_EPOCHS) as u64 * shard_bytes,
    );
    r.metric("data.shard_bytes_read", st.bytes_read as f64);
    r.metric("data.shards_loaded", st.shards_delivered as f64);
    r.metric("data.io_retries", st.retries as f64);
    r.metric(
        "data.train_stall_pct",
        100.0 * st.stall_ms * 1e-3 / epoch.wall_s,
    );
    let steps = runtime_rows(r, &epoch.report, epoch.wall_s, 0.0);
    probed.attention_share(r, &STREAM, steps);
    probed.serve(r, trainer.model_mut(), &ds, args.seed)
}

/// Each rank's `(forward s, backward s)` per step, pushed as its model drops.
type StepLog = Arc<Mutex<Vec<Vec<(f64, f64)>>>>;

/// A model that times its own forward and backward calls — the benchmark's
/// span around the data-parallel driver's calls into the model layer.
struct Timed {
    inner: Box<dyn SequenceModel>,
    /// `(forward s, backward s)` of each step on this rank.
    steps: Vec<(f64, f64)>,
    log: StepLog,
}

impl Drop for Timed {
    fn drop(&mut self) {
        if let Ok(mut log) = self.log.lock() {
            log.push(std::mem::take(&mut self.steps));
        }
    }
}

impl SequenceModel for Timed {
    fn forward(&mut self, batch: &SequenceBatch<'_>, pattern: Pattern<'_>) -> Tensor {
        let t = Instant::now();
        let out = self.inner.forward(batch, pattern);
        self.steps.push((t.elapsed().as_secs_f64(), 0.0));
        out
    }
    fn backward(&mut self, batch: &SequenceBatch<'_>, pattern: Pattern<'_>, dlogits: &Tensor) {
        let t = Instant::now();
        self.inner.backward(batch, pattern, dlogits);
        if let Some(last) = self.steps.last_mut() {
            last.1 += t.elapsed().as_secs_f64();
        }
    }
    fn forward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        ws: &mut Workspace,
    ) -> Tensor {
        self.inner.forward_ws(batch, pattern, ws)
    }
    fn forward_hidden_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        self.inner.forward_hidden_ws(batch, pattern, ws)
    }
    fn backward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        dlogits: &Tensor,
        ws: &mut Workspace,
    ) {
        self.inner.backward_ws(batch, pattern, dlogits, ws)
    }
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }
    fn set_training(&mut self, on: bool) {
        self.inner.set_training(on)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn rng_state(&self) -> Vec<u64> {
        self.inner.rng_state()
    }
    fn set_rng_state(&mut self, state: &[u64]) {
        self.inner.set_rng_state(state)
    }
    fn num_params(&mut self) -> usize {
        self.inner.num_params()
    }
    fn describe(&self) -> Option<ArchDescriptor> {
        self.inner.describe()
    }
}

/// One elastic data-parallel call over a fresh checkpoint directory.
fn dp_call(
    ds: &NodeDataset,
    seed: u64,
    epochs: usize,
    dir: &Path,
    recorder: RecorderHandle,
    log: Option<StepLog>,
) -> Result<(ElasticStats, f64, CheckpointStore), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = CheckpointStore::new(dir, epochs + 1).map_err(|e| e.to_string())?;
    let mut cfg = TrainConfig::new(Method::GpSparse, DP.seq_len, epochs);
    cfg.lr = 2e-3;
    cfg.seed = seed;
    let gt = DP.gt_config(ds.feat_dim, ds.num_classes);
    let factory = move || -> Box<dyn SequenceModel> {
        let model = Box::new(Gt::new(gt, seed));
        match &log {
            Some(log) => Box::new(Timed {
                inner: model,
                steps: Vec::new(),
                log: log.clone(),
            }),
            None => model,
        }
    };
    let t = Instant::now();
    let out = train_data_parallel_elastic(
        ds,
        cfg,
        DP_WORLD,
        factory,
        FaultPlan::default(),
        None,
        &store,
        recorder,
    )
    .map_err(|e| format!("elastic run failed: {e}"))?;
    Ok((out, t.elapsed().as_secs_f64(), store))
}

/// Lock-step steps per epoch on each rank: the largest shard of the
/// balanced split of `⌈N / seq_len⌉` sequences.
fn dp_steps_per_epoch(ds: &NodeDataset) -> usize {
    ds.num_nodes().div_ceil(DP.seq_len).div_ceil(DP_WORLD)
}

fn dp_checks(r: &mut Report, out: &ElasticStats, store: &CheckpointStore, epochs: usize) {
    r.check(
        format!(
            "final world is {DP_WORLD} after {} restart(s)",
            out.restarts
        ),
        out.final_world == DP_WORLD && out.restarts == 0,
    );
    let kept = store.epochs().unwrap_or_default();
    r.check(
        format!(
            "one snapshot per epoch ({} on disk for {epochs} epochs)",
            kept.len()
        ),
        kept == (1..=epochs).collect::<Vec<_>>(),
    );
    r.check(
        "every epoch loss is finite",
        out.stats.epoch_losses.len() == epochs
            && out.stats.epoch_losses.iter().all(|l| l.is_finite()),
    );
}

/// `dp-products`, tracing off.
pub fn dp(args: &Args, work: &Path, r: &mut Report) -> Result<(), String> {
    let dir = work.join("dp-ckpt");
    let ds = timed_setups(r, |_| {
        let ds = DatasetKind::OgbnProducts.generate_node(PRODUCTS_SCALE, DATA_SEED);
        CheckpointStore::new(&dir, 1).map_err(|e| e.to_string())?;
        Ok(ds)
    })?;
    let epochs = epochs_for(args.seconds, DP_EPOCH_S);
    let (out, wall, store) = dp_call(&ds, args.seed, epochs, &dir, torchgt_obs::noop(), None)?;
    let steps = dp_steps_per_epoch(&ds);
    let step_ms = wall * 1e3 / (epochs * steps) as f64;
    r.metric("throughput_per_s", (ds.num_nodes() * epochs) as f64 / wall);
    r.metric("latency_p50_ms", step_ms);
    r.metric("peak_rss_mb", host::peak_rss_mb());
    r.attempted = (epochs * steps) as u64;
    r.failed = out
        .stats
        .epoch_losses
        .iter()
        .filter(|l| !l.is_finite())
        .count() as u64
        * steps as u64;
    r.note(format!(
        "{epochs} epochs at world {DP_WORLD} in {wall:.3} s (one driver call, its own preparation included): \
         train_tokens_per_s {:.1} 1/s, {steps} lock-step steps per epoch; losses {:?}",
        (ds.num_nodes() * epochs) as f64 / wall,
        out.stats.epoch_losses
    ));
    dp_checks(r, &out, &store, epochs);
    Ok(())
}

/// `dp-products`, traced.
pub fn dp_traced(args: &Args, work: &Path, r: &mut Report) -> Result<(), String> {
    let t = Instant::now();
    let ds = DatasetKind::OgbnProducts.generate_node(PRODUCTS_SCALE, DATA_SEED);
    r.metric("graph.generate_s", t.elapsed().as_secs_f64());
    let probed = common_probes(
        r,
        args,
        work,
        &ds,
        &DP,
        Source::Generate(DatasetKind::OgbnProducts, PRODUCTS_SCALE),
    )?;
    let epochs = DP_TRACED_EPOCHS;
    // The first driver call in a process pays for cold allocations; keep it
    // out of the overhead comparison.
    dp_call(
        &ds,
        args.seed,
        1,
        &work.join("dp-warm"),
        torchgt_obs::noop(),
        None,
    )?;
    let (a, wall_a, _) = dp_call(
        &ds,
        args.seed,
        epochs,
        &work.join("dp-a"),
        torchgt_obs::noop(),
        None,
    )?;
    let mem = Arc::new(MemoryRecorder::default());
    let log = Arc::new(Mutex::new(Vec::new()));
    let (b, wall_b, store) = dp_call(
        &ds,
        args.seed,
        epochs,
        &work.join("dp-b"),
        mem.clone(),
        Some(log.clone()),
    )?;
    let bits = |s: &ElasticStats| {
        s.stats
            .epoch_losses
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>()
    };
    r.check(
        "traced epoch losses are bit-equal to the untraced run's",
        bits(&a) == bits(&b),
    );
    dp_checks(r, &b, &store, epochs);
    r.metric("obs.trace_overhead_pct", 100.0 * (wall_b - wall_a) / wall_a);
    let rep = mem.report();
    let snapshots = rep.events_of(Event::SNAPSHOT).len();
    r.check(
        format!("one snapshot event per epoch ({snapshots} for {epochs})"),
        snapshots == epochs,
    );
    r.metric("ckpt.snapshots", snapshots as f64);
    let steps = dp_steps_per_epoch(&ds);
    r.attempted = (2 * epochs * steps) as u64;
    let per_step = (DP_WORLD * epochs * steps) as f64;
    for (kind, calls, bytes) in [
        (
            "all_reduce",
            "comm.all_reduce_calls_per_step",
            "comm.all_reduce_bytes_per_step",
        ),
        (
            "all_gather",
            "comm.all_gather_calls_per_step",
            "comm.all_gather_bytes_per_step",
        ),
    ] {
        let c = rep.collective(kind);
        r.metric(calls, c.map_or(0.0, |c| c.ops as f64) / per_step);
        r.metric(bytes, c.map_or(0.0, |c| c.payload_bytes as f64) / per_step);
    }
    let ranks = log
        .lock()
        .map_err(|_| "a rank panicked holding the step log")?
        .clone();
    let pairs: Vec<(f64, f64)> = ranks.iter().flatten().copied().collect();
    let per_rank_epoch = (ranks.len().max(1) * epochs) as f64;
    let fwd: f64 = pairs.iter().map(|p| p.0).sum::<f64>() / per_rank_epoch;
    let bwd: f64 = pairs.iter().map(|p| p.1).sum::<f64>() / per_rank_epoch;
    let epoch_s = wall_b / epochs as f64;
    r.metric("runtime.forward_s", fwd);
    r.metric("runtime.backward_s", bwd);
    r.metric("runtime.other_s", epoch_s - fwd - bwd);
    r.metric("runtime.sparse_steps", steps as f64);
    step_rows(
        r,
        &pairs.iter().map(|p| (p.0 + p.1) * 1e3).collect::<Vec<_>>(),
    );
    r.note(format!(
        "traced driver call: untraced {wall_a:.3} s, traced {wall_b:.3} s for {epochs} epochs; \
         {} all-reduces per rank-step; forward/backward per rank-epoch {fwd:.3}/{bwd:.3} s; \
         optimizer, all-reduce and preparation are the other {:.3} s",
        rep.collective("all_reduce").map_or(0.0, |c| c.ops as f64) / per_step,
        epoch_s - fwd - bwd
    ));
    probed.attention_share(r, &DP, (steps * epochs, 0, (fwd + bwd) * epochs as f64));
    probed.serve(
        r,
        DP.fresh_model(ds.feat_dim, ds.num_classes, args.seed)
            .as_mut(),
        &ds,
        args.seed,
    )
}

/// Where a workload's shards come from for the data-layer probes.
pub enum Source<'a> {
    /// Shards the workload streams itself, with their datagen seconds.
    Shards(&'a Path, f64),
    /// An in-memory workload: shard its dataset for the probe.
    Generate(DatasetKind, f64),
}

/// What the shared probes measured that the attention-share figure needs
/// once the workload's own traced epoch has run.
pub struct Probed {
    times: probes::ModelTimes,
    seq: probes::ProbeSeq,
}

impl Probed {
    /// Attention's measured share of the traced run's forward + backward,
    /// given its `(sparse steps, full steps, forward + backward seconds)`.
    pub fn attention_share(
        &self,
        r: &mut Report,
        sh: &Shapes,
        (sparse, full, fwd_bwd): (usize, usize, f64),
    ) {
        probes::attention_share(
            r,
            &self.times,
            sh,
            (sparse, full),
            fwd_bwd,
            self.seq.profile,
        );
    }

    /// The serving probes for a workload that does not serve: freeze its
    /// model to int8, time one packed micro-batch, and serve a short light
    /// session from it.
    pub fn serve(
        &self,
        r: &mut Report,
        model: &mut dyn SequenceModel,
        ds: &NodeDataset,
        seed: u64,
    ) -> Result<(), String> {
        let frozen = probes::freeze_for_probe(model, &self.seq, seed)?;
        probes::serve_kernels(r, &frozen, ds, seed)?;
        probes::serve_session(r, &frozen, ds, seed)
    }
}

/// The layer probes every traced run makes at its workload's shapes, run
/// before the workload's own traced epochs so those start in a warm process.
pub fn common_probes(
    r: &mut Report,
    args: &Args,
    work: &Path,
    ds: &NodeDataset,
    sh: &Shapes,
    source: Source<'_>,
) -> Result<Probed, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut seq = probes::graph_layer(r, ds, sh, args.seed);
    probes::sparse_layer(r, &mut seq, sh, ds.graph.sparsity(), args.seed);
    let times = probes::model_layer(r, &seq, sh, ds.num_classes, args.seed);
    probes::tensor_layer(r, sh, ds.feat_dim, ds.num_classes, args.seed);
    probes::comm_layer(
        r,
        &probes::param_sizes(sh, ds.feat_dim, ds.num_classes, args.seed),
    );
    probes::ckpt_layer(
        r,
        sh,
        ds.feat_dim,
        ds.num_classes,
        args.seed,
        &work.join("probe-ckpt"),
    )
    .map_err(io)?;
    let probe_dir = work.join("probe-shards");
    let (dir, datagen_s) = match source {
        Source::Shards(dir, s) => (dir, s),
        Source::Generate(kind, scale) => (
            probe_dir.as_path(),
            probes::datagen(kind, scale, DATA_SEED, &probe_dir)
                .map_err(io)?
                .0,
        ),
    };
    r.metric("data.datagen_s", datagen_s);
    probes::drain_shards(r, dir).map_err(io)?;
    r.metric("host.triad_gbps", host::triad_gbps());
    r.metric("host.fma_gflops", host::fma_gflops());
    Ok(Probed { times, seq })
}
