//! Layer probes: spans the benchmark records around its own calls into each
//! layer's public functions, on the workload's own dataset and shapes. They
//! run only in a traced run, after the workload itself.

use crate::report::Report;
use crate::serve::{self, Phase, PhaseOut};
use crate::stats::median;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use torchgt_ckpt::{CheckpointStore, Snapshot, TrainerState};
use torchgt_comm::DeviceGroup;
use torchgt_data::{generate_to_dir, ShardLoader};
use torchgt_graph::{
    augment_for_conditions, cluster_order, partition, CsrGraph, DatasetKind, NodeDataset,
};
use torchgt_model::attention::{flash_backward_ws, flash_ws, sparse_backward_ws, sparse_ws};
use torchgt_model::{
    loss, Graphormer, GraphormerConfig, Gt, GtConfig, Pattern, SequenceBatch, SequenceModel,
};
use torchgt_perf::{iteration_cost, GpuSpec, ModelShape, StepSpec};
use torchgt_runtime::AutoTuner;
use torchgt_serve::batch::pack_queries;
use torchgt_serve::{
    ego_subgraph, CalibSet, FreezeOptions, FrozenExecutor, FrozenModel, QuantScheme, Zipf,
};
use torchgt_sparse::{
    access_profile, reform, sub_block_attention_ws, topology_mask, AccessProfile, LayoutKind,
    ReformConfig,
};
use torchgt_tensor::{init, ops, Adam, Optimizer, Tensor, Workspace};

/// Model family of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Graphormer,
    Gt,
}

/// The shapes a workload trains or serves at.
#[derive(Clone, Copy, Debug)]
pub struct Shapes {
    pub family: Family,
    pub hidden: usize,
    pub layers: usize,
    pub heads: usize,
    pub seq_len: usize,
    /// TorchGT's clustered sequence order (the GP-* methods keep the
    /// original order).
    pub clustered: bool,
}

impl Shapes {
    /// The cost model's view of the shapes.
    pub fn model_shape(&self) -> ModelShape {
        ModelShape {
            layers: self.layers,
            hidden: self.hidden,
            heads: self.heads,
        }
    }

    /// A freshly initialised model of this family and size, built exactly as
    /// the workload builds its own.
    pub fn fresh_model(
        &self,
        feat_dim: usize,
        out_dim: usize,
        seed: u64,
    ) -> Box<dyn SequenceModel> {
        match self.family {
            Family::Graphormer => Box::new(Graphormer::new(
                GraphormerConfig {
                    feat_dim,
                    hidden: self.hidden,
                    layers: self.layers,
                    heads: self.heads,
                    ffn_mult: 4,
                    out_dim,
                    max_degree: 64,
                    max_spd: 8,
                    dropout: 0.1,
                },
                seed,
            )),
            Family::Gt => Box::new(Gt::new(self.gt_config(feat_dim, out_dim), seed)),
        }
    }

    /// The GT configuration the data-parallel workload trains.
    pub fn gt_config(&self, feat_dim: usize, out_dim: usize) -> GtConfig {
        GtConfig {
            feat_dim,
            hidden: self.hidden,
            layers: self.layers,
            heads: self.heads,
            ffn_mult: 4,
            out_dim,
            pe_dim: 8,
            dropout: 0.1,
        }
    }
}

/// Micro-batch size and ego-subgraph context of the serving path.
pub const SERVE_MAX_BATCH: usize = 8;
pub const SERVE_CTX_NODES: usize = 32;

/// Calls and wall-time floor of one probe.
const MIN_CALLS: usize = 5;
const MIN_SECONDS: f64 = 0.12;
const MAX_CALLS: usize = 2000;

/// Run `f` at least [`MIN_CALLS`] times and for at least [`MIN_SECONDS`];
/// `f` returns the seconds of each timed part of one call. Returns each
/// part's per-call median in ms and the call count.
fn sample<const P: usize>(mut f: impl FnMut() -> [f64; P]) -> ([f64; P], usize) {
    let start = Instant::now();
    let mut parts: [Vec<f64>; P] = std::array::from_fn(|_| Vec::new());
    let mut calls = 0;
    while calls < MIN_CALLS || (start.elapsed().as_secs_f64() < MIN_SECONDS && calls < MAX_CALLS) {
        for (acc, s) in parts.iter_mut().zip(f()) {
            acc.push(s * 1e3);
        }
        calls += 1;
    }
    (std::array::from_fn(|i| median(&parts[i])), calls)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn gflops(flops: f64, ms: f64) -> f64 {
    flops / (ms * 1e-3) / 1e9
}

/// One sequence of the workload: its first `seq_len` tokens in the order the
/// trainer chunks them (after the cluster reorder for TorchGT).
pub struct ProbeSeq {
    pub features: Tensor,
    pub graph: CsrGraph,
    /// The mask the workload's sparse steps attend over: the topology mask,
    /// replaced by [`sparse_layer`] with the reformed one for TorchGT.
    pub mask: CsrGraph,
    /// Access profile of `mask` in the layout the sparse kernel reads.
    pub profile: AccessProfile,
    pub labels: Vec<u32>,
    /// Every sequence's topology mask, for the reformation probe.
    pub masks: Vec<CsrGraph>,
}

/// Time the graph layer on the workload's dataset and cut its sequences:
/// `partition` + `cluster_order` at the trainer's cluster count, then the
/// per-sequence induced subgraphs and topology masks.
pub fn graph_layer(r: &mut Report, ds: &NodeDataset, sh: &Shapes, seed: u64) -> ProbeSeq {
    let gpu = GpuSpec::rtx3090();
    let k = gpu.tune_k(sh.hidden).max(2);
    let t = Instant::now();
    let assign = partition(&ds.graph, k, seed);
    let order = cluster_order(&assign, k);
    r.metric("graph.partition_s", secs(t));
    let (graph, perm): (CsrGraph, Vec<u32>) = if sh.clustered {
        (ds.graph.permute(&order.perm), order.perm.clone())
    } else {
        (ds.graph.clone(), (0..ds.num_nodes() as u32).collect())
    };
    let s = sh.seq_len.min(ds.num_nodes());
    let chunks = (ds.num_nodes() / s).clamp(1, 48);
    let masks: Vec<CsrGraph> = (0..chunks)
        .map(|c| {
            let nodes: Vec<u32> = ((c * s) as u32..((c + 1) * s) as u32).collect();
            topology_mask(&graph.induced_subgraph(&nodes), true)
        })
        .collect();
    let nodes: Vec<u32> = (0..s as u32).collect();
    let mut features = Tensor::zeros(s, ds.feat_dim);
    for (i, &v) in perm[..s].iter().enumerate() {
        features
            .row_mut(i)
            .copy_from_slice(ds.feature_row(v as usize));
    }
    ProbeSeq {
        features,
        graph: graph.induced_subgraph(&nodes),
        mask: masks[0].clone(),
        profile: access_profile(&masks[0]),
        labels: perm[..s].iter().map(|&v| ds.labels[v as usize]).collect(),
        masks,
    }
}

/// The sparse layer: the reformation over every probe sequence at the
/// Auto Tuner's starting `β_thre`, and the sub-block kernel on the first.
/// For TorchGT shapes the first sequence's mask becomes the one its sparse
/// steps attend over, as the trainer builds it: reformed, back in sequence
/// order, and augmented for the attention conditions.
pub fn sparse_layer(r: &mut Report, seq: &mut ProbeSeq, sh: &Shapes, beta_g: f64, seed: u64) {
    let gpu = GpuSpec::rtx3090();
    let db = AutoTuner::tune_shape(&gpu, sh.hidden, seq.mask.num_arcs())
        .1
        .max(1);
    let beta_thre = AutoTuner::new(beta_g, 10).beta_thre();
    let k = gpu.tune_k(sh.hidden);
    let (mut before, mut after) = (0usize, 0usize);
    let mut first = None;
    let t = Instant::now();
    for (i, mask) in seq.masks.iter().enumerate() {
        let assign = partition(mask, k.min(mask.num_nodes()).max(1), seed ^ i as u64);
        let kk = assign.iter().copied().max().unwrap_or(0) as usize + 1;
        let order = cluster_order(&assign, kk);
        let reformed = reform(
            &mask.permute(&order.perm),
            &order,
            ReformConfig { db, beta_thre },
        );
        before += reformed.stats.nnz_before;
        after += reformed.stats.nnz_after;
        first.get_or_insert((reformed, order));
    }
    r.metric("sparse.reform_s", secs(t));
    r.metric(
        "sparse.compaction_ratio",
        after as f64 / before.max(1) as f64,
    );
    let (reformed, order) = first.expect("at least one sequence");
    if sh.clustered {
        seq.mask = augment_for_conditions(&reformed.mask.permute(&order.inverse));
        seq.profile = access_profile(&reformed.mask);
    }
    let blocks = reformed.blocked();
    let (q, k, v) = qkv(seq.mask.num_nodes(), sh.hidden, seed);
    let mut ws = Workspace::new();
    let ([ms], calls) = sample(|| {
        let t = Instant::now();
        let out = sub_block_attention_ws(&q, &k, &v, sh.heads, &blocks, &mut ws);
        let s = secs(t);
        ws.give(black_box(out));
        [s]
    });
    let flops = 4.0 * (blocks.num_blocks() * db * db * sh.hidden) as f64;
    r.metric("sparse.subblock_fwd_ms", ms);
    r.metric("sparse.subblock_gflops", gflops(flops, ms));
    r.note(format!(
        "probe sparse.subblock: {calls} calls, {} blocks of {db}x{db}, beta_thre {beta_thre:.4}",
        blocks.num_blocks()
    ));
}

fn qkv(s: usize, d: usize, seed: u64) -> (Tensor, Tensor, Tensor) {
    (
        init::normal(s, d, 0.0, 1.0, seed ^ 1),
        init::normal(s, d, 0.0, 1.0, seed ^ 2),
        init::normal(s, d, 0.0, 1.0, seed ^ 3),
    )
}

/// Attention probe timings (ms per call) of one pattern.
#[derive(Clone, Copy, Debug)]
pub struct AttnTimes {
    pub fwd_ms: f64,
    pub bwd_ms: f64,
}

/// What the model layer's probes measured, for the attention-share figure.
pub struct ModelTimes {
    pub flash: AttnTimes,
    pub sparse: AttnTimes,
}

/// The model layer: flash and sparse attention forward/backward on the
/// probe sequence's shapes, and the whole model's forward/backward on it.
/// Each kernel row gets FLOPs and bytes computed from its tensor sizes,
/// printed beside the `torchgt-perf` model's count for the same op.
pub fn model_layer(
    r: &mut Report,
    seq: &ProbeSeq,
    sh: &Shapes,
    out_dim: usize,
    seed: u64,
) -> ModelTimes {
    let (s, d, h) = (seq.mask.num_nodes(), sh.hidden, sh.heads);
    let (q, k, v) = qkv(s, d, seed);
    let dout = init::normal(s, d, 0.0, 1.0, seed ^ 4);
    let mut ws = Workspace::new();
    let mb = |floats: usize| (floats * 4) as f64 / 1e6;
    let (sf, df, hf) = (s as f64, d as f64, h as f64);

    let ([fwd, bwd], calls) = sample(|| {
        let t = Instant::now();
        let fw = flash_ws(&q, &k, &v, h, &mut ws);
        let tf = secs(t);
        let t = Instant::now();
        let g = flash_backward_ws(&q, &k, &v, h, fw.cache, &fw.out, &dout, &mut ws);
        let tb = secs(t);
        ws.give(fw.out);
        for x in [g.dq, g.dk, g.dv] {
            ws.give(x);
        }
        [tf, tb]
    });
    // Matmul FLOPs (QKᵀ, PV; backward recomputes QKᵀ then dV, dP, dQ, dK)
    // plus four ops per score for the softmax (max, subtract, exp, sum).
    let flash_fwd_flops = 4.0 * sf * sf * df + 4.0 * hf * sf * sf;
    let flash_bwd_flops = 10.0 * sf * sf * df + 6.0 * hf * sf * sf;
    attn_rows(r, "flash", (fwd, bwd), (flash_fwd_flops, flash_bwd_flops));
    r.metric("model.attn_flash_fwd_mb", mb(4 * s * d + 2 * h * s));
    r.metric("model.attn_flash_bwd_mb", mb(8 * s * d + 2 * h * s));
    let flash = AttnTimes {
        fwd_ms: fwd,
        bwd_ms: bwd,
    };
    perf_cross_check(
        r,
        "flash",
        calls,
        (flash_fwd_flops, flash_bwd_flops),
        (4.0 * sf * sf * df, 2.5),
    );

    let nnz = seq.mask.num_arcs();
    let nf = nnz as f64;
    let ([fwd, bwd], calls) = sample(|| {
        let t = Instant::now();
        let fw = sparse_ws(&q, &k, &v, h, &seq.mask, None, &mut ws);
        let tf = secs(t);
        let t = Instant::now();
        let g = sparse_backward_ws(&q, &k, &v, h, &seq.mask, fw.cache, &dout, false, &mut ws);
        let tb = secs(t);
        ws.give(fw.out);
        for x in [g.dq, g.dk, g.dv] {
            ws.give(x);
        }
        [tf, tb]
    });
    let sparse_fwd_flops = 4.0 * nf * df + 4.0 * hf * nf;
    let sparse_bwd_flops = 8.0 * nf * df + 3.0 * hf * nf;
    attn_rows(
        r,
        "sparse",
        (fwd, bwd),
        (sparse_fwd_flops, sparse_bwd_flops),
    );
    // Q, K, V, O and the per-head edge probabilities, plus the mask's CSR.
    let csr_floats = nnz + 2 * (s + 1);
    r.metric(
        "model.attn_sparse_fwd_mb",
        mb(4 * s * d + h * nnz + csr_floats),
    );
    r.metric(
        "model.attn_sparse_bwd_mb",
        mb(7 * s * d + h * nnz + csr_floats),
    );
    let sparse = AttnTimes {
        fwd_ms: fwd,
        bwd_ms: bwd,
    };
    // The cost model prices sparse backward at 2 × ATOMIC (2) × forward.
    perf_cross_check(
        r,
        "sparse",
        calls,
        (sparse_fwd_flops, sparse_bwd_flops),
        (4.0 * nf * df, 4.0),
    );

    let mut model = sh.fresh_model(seq.features.cols(), out_dim, seed);
    let positions: Vec<u32> = (0..s as u32).collect();
    let batch = SequenceBatch {
        features: &seq.features,
        graph: &seq.graph,
        spd: None,
    };
    let mut pass = |pattern: Pattern<'_>| {
        sample(|| {
            let t = Instant::now();
            let logits = model.forward_ws(&batch, pattern, &mut ws);
            let (_, dlogits) =
                loss::masked_softmax_cross_entropy_ws(&logits, &seq.labels, &positions, &mut ws);
            let tf = secs(t);
            let t = Instant::now();
            model.backward_ws(&batch, pattern, &dlogits, &mut ws);
            let tb = secs(t);
            ws.give(dlogits);
            ws.give(logits);
            for p in model.params_mut() {
                p.zero_grad();
            }
            [tf, tb]
        })
    };
    let ([fwd, bwd], calls) = pass(Pattern::Sparse(&seq.mask));
    r.metric("model.forward_ms", fwd);
    r.metric("model.backward_ms", bwd);
    let ([ffwd, fbwd], fcalls) = pass(Pattern::Flash);
    r.note(format!(
        "probe model sparse pattern: forward {fwd:.3} ms / backward {bwd:.3} ms ({calls} calls); \
         flash pattern: {ffwd:.3} / {fbwd:.3} ms ({fcalls} calls)"
    ));
    ModelTimes { flash, sparse }
}

fn attn_rows(r: &mut Report, kind: &str, (fwd, bwd): (f64, f64), (ff, bf): (f64, f64)) {
    let set = |r: &mut Report, dir: &str, ms: f64, flops: f64| {
        let name = |what: &str| -> &'static str {
            let n = format!("model.attn_{kind}_{dir}_{what}");
            crate::report::LAYERS
                .iter()
                .find(|(m, _)| *m == n)
                .expect("registered")
                .0
        };
        r.metric(name("ms"), ms);
        r.metric(name("gflops"), gflops(flops, ms));
    };
    set(r, "fwd", fwd, ff);
    set(r, "bwd", bwd, bf);
}

/// Print the benchmark's FLOP count beside the cost model's for one kernel:
/// the model counts `model_fwd` forward FLOPs and prices backward at
/// `bwd_factor` × forward. Mismatches are reported, not gated on.
fn perf_cross_check(
    r: &mut Report,
    kind: &str,
    calls: usize,
    (fwd, bwd): (f64, f64),
    (model_fwd, bwd_factor): (f64, f64),
) {
    let model_bwd = model_fwd * bwd_factor;
    r.note(format!(
        "probe attn {kind}: {calls} calls; FLOPs fwd {fwd:.4e} (perf model {model_fwd:.4e}, {:+.1}%), \
         bwd {bwd:.4e} (perf model {model_bwd:.4e}, {:+.1}%)",
        100.0 * (fwd / model_fwd - 1.0),
        100.0 * (bwd / model_bwd - 1.0)
    ));
}

/// The paper's Fig. 2 figure measured: attention's share of forward +
/// backward time, as the probe times × the epoch's attention calls over the
/// measured forward + backward seconds. Printed beside the cost model's
/// attention share for the same step mix.
pub fn attention_share(
    r: &mut Report,
    times: &ModelTimes,
    sh: &Shapes,
    (sparse_steps, full_steps): (usize, usize),
    fwd_bwd_s: f64,
    profile: AccessProfile,
) {
    let per_step = |t: AttnTimes| (t.fwd_ms + t.bwd_ms) * 1e-3 * sh.layers as f64;
    let attn_s =
        per_step(times.sparse) * sparse_steps as f64 + per_step(times.flash) * full_steps as f64;
    let share = 100.0 * attn_s / fwd_bwd_s;
    r.metric("model.attn_share", share);
    let spec = |layout| StepSpec {
        gpu: GpuSpec::rtx3090(),
        topology: torchgt_comm::ClusterTopology::rtx3090(1),
        shape: sh.model_shape(),
        layout,
        seq_len: sh.seq_len,
        profile,
    };
    let sparse_layout = if sh.clustered {
        LayoutKind::ClusterSparse
    } else {
        LayoutKind::Topology
    };
    let (mut attn, mut total) = (0.0, 0.0);
    for (layout, n) in [
        (sparse_layout, sparse_steps),
        (LayoutKind::Flash, full_steps),
    ] {
        let c = iteration_cost(&spec(layout));
        attn += c.attention * n as f64;
        total += c.total() * n as f64;
    }
    r.note(format!(
        "attention share of forward+backward: measured {share:.1}% over {sparse_steps} sparse + \
         {full_steps} full steps; perf model {:.1}% (EXPERIMENTS.md reports 89-99.8% at paper scale)",
        100.0 * attn / total.max(f64::MIN_POSITIVE)
    ));
}

/// The tensor layer: the hot kernels at the workload's projection, FFN and
/// serving shapes, and one Adam step over a model of the workload's size.
pub fn tensor_layer(r: &mut Report, sh: &Shapes, feat_dim: usize, out_dim: usize, seed: u64) {
    let (s, d) = (sh.seq_len, sh.hidden);
    let serve_rows = SERVE_MAX_BATCH * SERVE_CTX_NODES;
    let x = init::normal(s, d, 0.0, 1.0, seed);
    let w = init::normal(d, d, 0.0, 0.1, seed ^ 1);
    let w_ffn = init::normal(d, 4 * d, 0.0, 0.1, seed ^ 2);
    let xs = init::normal(serve_rows, d, 0.0, 1.0, seed ^ 3);
    let mm = |r: &mut Report, a: &Tensor, b: &Tensor, name: (&'static str, &'static str)| {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        let ([ms], _) = sample(|| {
            let t = Instant::now();
            ops::matmul_into(a, b, &mut out);
            [secs(t)]
        });
        r.metric(name.0, ms);
        r.metric(
            name.1,
            gflops(2.0 * (a.rows() * a.cols() * b.cols()) as f64, ms),
        );
    };
    mm(
        r,
        &x,
        &w,
        ("tensor.matmul_qkv_ms", "tensor.matmul_qkv_gflops"),
    );
    mm(
        r,
        &x,
        &w_ffn,
        ("tensor.matmul_ffn_ms", "tensor.matmul_ffn_gflops"),
    );
    mm(
        r,
        &xs,
        &w,
        ("tensor.matmul_serve_ms", "tensor.matmul_serve_gflops"),
    );

    let mut one = |name: &'static str, rows: usize, cols: usize, f: &mut dyn FnMut(&mut Tensor)| {
        let mut out = Tensor::zeros(rows, cols);
        let ([ms], _) = sample(|| {
            let t = Instant::now();
            f(&mut out);
            [secs(t)]
        });
        r.metric(name, ms);
    };
    // Input-gradient and weight-gradient products of a projection.
    one("tensor.matmul_bt_ms", s, d, &mut |o| {
        ops::matmul_bt_into(&x, &w, o)
    });
    one("tensor.matmul_at_ms", d, d, &mut |o| {
        ops::matmul_at_into(&x, &x, o)
    });
    let scores = init::normal(s, s, 0.0, 1.0, seed ^ 4);
    one("tensor.softmax_ms", s, s, &mut |o| {
        ops::row_softmax_into(&scores, o)
    });
    let (gamma, beta) = (Tensor::full(1, d, 1.0), Tensor::zeros(1, d));
    one("tensor.layernorm_ms", s, d, &mut |o| {
        ops::layer_norm_into(&x, &gamma, &beta, 1e-5, o)
    });
    let hidden = init::normal(s, 4 * d, 0.0, 1.0, seed ^ 5);
    one("tensor.gelu_ms", s, 4 * d, &mut |o| {
        ops::gelu_into(&hidden, o)
    });

    let mut model = sh.fresh_model(feat_dim, out_dim, seed);
    let mut opt = Adam::with_lr(1e-3);
    let ([ms], _) = sample(|| {
        let mut params = model.params_mut();
        let t = Instant::now();
        opt.step(&mut params);
        [secs(t)]
    });
    r.metric("tensor.adam_step_ms", ms);
}

/// Scalar lengths of every parameter of a model of the workload's size.
pub fn param_sizes(sh: &Shapes, feat_dim: usize, out_dim: usize, seed: u64) -> Vec<usize> {
    sh.fresh_model(feat_dim, out_dim, seed)
        .params_mut()
        .iter()
        .map(|p| p.len())
        .collect()
}

/// The comm layer: a two-rank group all-reducing one buffer per parameter
/// of the workload's model, blocking and through `all_reduce_begin`/`wait`.
pub fn comm_layer(r: &mut Report, sizes: &[usize]) {
    let group = DeviceGroup::new(2);
    let rounds = 5;
    let times = group.run(|comm| {
        let (mut sync, mut asyn) = (Vec::new(), Vec::new());
        for _ in 0..rounds {
            for &n in sizes {
                let t = Instant::now();
                black_box(comm.all_reduce_sum(vec![1.0; n]));
                sync.push(secs(t) * 1e3);
                let t = Instant::now();
                black_box(comm.all_reduce_begin(vec![1.0; n]).wait());
                asyn.push(secs(t) * 1e3);
            }
        }
        (median(&sync), median(&asyn))
    });
    r.metric("comm.all_reduce_ms", times[0].0);
    r.metric("comm.all_reduce_async_ms", times[0].1);
    r.note(format!(
        "probe comm: 2 ranks, {} all-reduce sizes x {rounds} rounds, {} floats in total per round",
        sizes.len(),
        sizes.iter().sum::<usize>()
    ));
}

/// The ckpt layer: atomic snapshot saves of a model of the workload's size.
pub fn ckpt_layer(
    r: &mut Report,
    sh: &Shapes,
    feat_dim: usize,
    out_dim: usize,
    seed: u64,
    dir: &Path,
) -> std::io::Result<()> {
    let store = CheckpointStore::new(dir, 2)?;
    let mut model = sh.fresh_model(feat_dim, out_dim, seed);
    let params = model.params_mut();
    let refs: Vec<&torchgt_tensor::Param> = params.iter().map(|p| &**p).collect();
    let snap = Snapshot::capture(TrainerState::basic(1, 1), &refs);
    let mut err = None;
    let ([ms], calls) = sample(|| {
        let t = Instant::now();
        if let Err(e) = store.save(&snap) {
            err = Some(e);
        }
        [secs(t)]
    });
    if let Some(e) = err {
        return Err(e);
    }
    let bytes = std::fs::metadata(store.path_for(1))?.len();
    r.metric("ckpt.save_ms", ms);
    r.metric("ckpt.snapshot_bytes", bytes as f64);
    r.note(format!("probe ckpt: {calls} saves of {bytes} bytes"));
    Ok(())
}

/// Datagen of a dataset to TGDS shards in `dir`; returns its seconds and
/// the bytes written.
pub fn datagen(
    kind: DatasetKind,
    scale: f64,
    seed: u64,
    dir: &Path,
) -> std::io::Result<(f64, u64)> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let report = generate_to_dir(kind, scale, seed, dir, 16384)?;
    Ok((secs(t), report.total_bytes))
}

/// The data layer's read path: drain one epoch of shards with no compute.
pub fn drain_shards(r: &mut Report, dir: &Path) -> std::io::Result<()> {
    let loader = ShardLoader::open(dir)?;
    let t = Instant::now();
    let mut stream = loader.stream_epoch(0);
    while stream.next()?.is_some() {}
    drop(stream);
    let s = secs(t);
    let st = loader.stats();
    r.metric("data.read_mb_per_s", st.bytes_read as f64 / 1e6 / s);
    r.metric("data.prefetch_stall_ms", st.stall_ms);
    r.note(format!(
        "probe data drain: {} shards, {} bytes in {s:.3} s",
        st.shards_delivered, st.bytes_read
    ));
    Ok(())
}

/// Freeze a workload's model to int8 for the serving probes, calibrated on
/// the probe sequence. The accuracy gate is opened fully: the probe times
/// the serving path, it does not judge the model.
pub fn freeze_for_probe(
    model: &mut dyn SequenceModel,
    seq: &ProbeSeq,
    seed: u64,
) -> Result<FrozenModel, String> {
    let calib = CalibSet {
        features: seq.features.clone(),
        graph: seq.graph.clone(),
        mask: seq.graph.with_self_loops(),
        labels: seq.labels.clone(),
        eval: (0..seq.labels.len().min(64) as u32).collect(),
    };
    let opts = FreezeOptions {
        scheme: QuantScheme::Int8,
        max_acc_drop: 1.0,
    };
    torchgt_serve::freeze::freeze_model(model, &calib, opts, seed).map_err(|e| e.to_string())
}

/// The serve layer's pieces on one full micro-batch: ego-subgraph
/// extraction + packing, and the frozen int8 forward.
pub fn serve_kernels(
    r: &mut Report,
    frozen: &FrozenModel,
    ds: &NodeDataset,
    seed: u64,
) -> Result<(), String> {
    let mut exec = FrozenExecutor::new(frozen).map_err(|e| e.to_string())?;
    let mut zipf = Zipf::new(ds.num_nodes(), serve::ZIPF_S, seed);
    let roots: Vec<u32> = (0..SERVE_MAX_BATCH).map(|_| zipf.sample() as u32).collect();
    let ([pack_ms, exec_ms], calls) = sample(|| {
        let t = Instant::now();
        let subs: Vec<_> = roots
            .iter()
            .map(|&n| ego_subgraph(&ds.graph, n, SERVE_CTX_NODES))
            .collect();
        let packed = pack_queries(&subs, &ds.features, ds.feat_dim);
        let tp = secs(t);
        let batch = SequenceBatch {
            features: &packed.features,
            graph: &packed.graph,
            spd: None,
        };
        let t = Instant::now();
        black_box(exec.forward(&batch, Pattern::Sparse(&packed.mask)));
        [tp, secs(t)]
    });
    r.metric("serve.pack_ms", pack_ms);
    r.metric("serve.exec_ms", exec_ms);
    r.note(format!("probe serve batch: {calls} calls of {SERVE_MAX_BATCH} queries x {SERVE_CTX_NODES} context nodes"));
    Ok(())
}

/// Record the serving-loop metrics of one open-loop phase.
pub fn serve_loop_rows(r: &mut Report, out: &PhaseOut) {
    r.metric("serve.avg_batch", out.stats.avg_batch_size);
    r.metric("serve.batches", out.stats.batches as f64);
    r.metric("serve.max_queue_depth", out.stats.max_queue_depth as f64);
    r.metric("serve.shed", out.stats.shed as f64);
    r.metric("serve.server_p99_ms", out.stats.p99_latency_ms);
    r.metric("serve.generator_lag_ms", out.lag_p99_ms());
}

/// Serve a short light phase from a frozen model of the workload's size,
/// for the serving-loop rows of a workload that does not serve.
pub fn serve_session(
    r: &mut Report,
    frozen: &FrozenModel,
    ds: &NodeDataset,
    seed: u64,
) -> Result<(), String> {
    let phase = Phase {
        rate: serve::LIGHT_QPS,
        seconds: 1.0,
        deadline: None,
    };
    let out = serve::run_phase(frozen, ds, &phase, seed, torchgt_obs::noop())?;
    serve_loop_rows(r, &out);
    r.note(format!("probe serve session: {}", out.summary()));
    Ok(())
}
