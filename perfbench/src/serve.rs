//! The `serve-zipf` workload and the open-loop load generator it uses.
//!
//! One generator thread sends Zipf-distributed node queries on a seeded
//! Poisson arrival schedule with `try_send`: a full queue refuses the query
//! instead of slowing the generator down, so the offered load never adapts
//! to the server. Each query's latency runs from its due time on the
//! schedule to its reply.

use crate::probes::{self, SERVE_CTX_NODES, SERVE_MAX_BATCH};
use crate::report::Report;
use crate::stats::{median, percentile_sorted, poisson_schedule, tail, window_rates, QueryTiming};
use crate::{host, train, Args};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use torchgt_compat::sync::channel::{bounded, unbounded, Receiver};
use torchgt_graph::{DatasetKind, NodeDataset};
use torchgt_model::{Pattern, SequenceBatch};
use torchgt_obs::{MemoryRecorder, RecorderHandle};
use torchgt_runtime::Method;
use torchgt_serve::batch::pack_queries;
use torchgt_serve::{
    ego_subgraph, CalibSet, Freezable, FreezeOptions, FrozenExecutor, FrozenModel, QuantScheme,
    Query, ServeConfig, ServeLoop, ServeReply, ServeStats, Zipf,
};

/// Zipf skew of the query mix.
pub const ZIPF_S: f64 = 1.1;
/// Offered load of the `light` phase, about 20% of the reference host's
/// capacity (queries per second).
pub const LIGHT_QPS: f64 = 100.0;
/// Offered load of the `overload` phase, well past that capacity (~1.6×).
pub const OVERLOAD_QPS: f64 = 1100.0;
/// Latency objective, from due time to reply.
pub const SLO: Duration = Duration::from_millis(100);
/// Overload shedding: a query that waited longer than this in the queue is
/// shed at dequeue, leaving the rest of the SLO for batching and execution.
pub const SHED_DEADLINE: Duration = Duration::from_millis(50);
/// Bounded request-queue capacity.
pub const QUEUE_CAP: usize = 64;
/// Micro-batch latency budget: how long a partial batch waits to fill.
pub const BATCH_BUDGET: Duration = Duration::from_millis(2);
/// Share of the measured seconds given to the `light` phase.
const LIGHT_SHARE: f64 = 0.6;
/// Fixed probe set for the packed ≡ single-query check.
const PROBE_QUERIES: usize = 64;

/// One fixed-rate phase of open-loop load.
pub struct Phase {
    pub rate: f64,
    pub seconds: f64,
    /// Shed queries that waited longer than this at dequeue (the overload
    /// phase turns it on).
    pub deadline: Option<Duration>,
}

/// What one phase measured.
pub struct PhaseOut {
    pub stats: ServeStats,
    /// Schedule length in seconds.
    pub schedule_s: f64,
    /// Queries on the schedule.
    pub scheduled: u64,
    /// Refused at the full queue.
    pub refused: u64,
    /// Answered with a prediction.
    pub answered: u64,
    /// Shed by admission control with a typed reply.
    pub shed: u64,
    /// Sent but never replied to, or replied to more than once.
    pub lost: u64,
    /// Due-to-reply milliseconds of every answered query.
    pub latencies_ms: Vec<f64>,
    /// Due time of every query answered within the SLO.
    pub good_due: Vec<Duration>,
    /// Generator lateness of every sent query, in ms.
    pub lags_ms: Vec<f64>,
    /// `(node, label)` of each answered query, in schedule order.
    pub answers: Vec<(u32, u32)>,
}

impl PhaseOut {
    /// Answered queries whose reply came within the SLO.
    pub fn within_slo(&self) -> u64 {
        self.good_due.len() as u64
    }

    /// Replies within the SLO in each whole second of the schedule, by due
    /// time.
    pub fn goodput_windows(&self) -> Vec<f64> {
        let secs = Duration::from_secs_f64(self.schedule_s);
        window_rates(&self.good_due, Duration::from_secs(1), secs)
    }

    /// Goodput: replies within the SLO per second of schedule, the median
    /// over whole seconds, so a stall of the host in one second does not
    /// set the figure.
    pub fn goodput(&self) -> f64 {
        median(&self.goodput_windows())
    }

    /// Queries that missed: refused, shed, lost, or answered late.
    pub fn missed(&self) -> u64 {
        self.scheduled - self.within_slo()
    }

    /// The generator's lateness at its 99th percentile, in ms.
    pub fn lag_p99_ms(&self) -> f64 {
        let mut v = self.lags_ms.clone();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            0.0
        } else {
            percentile_sorted(&v, 99.0)
        }
    }

    pub fn summary(&self) -> String {
        let t = tail(&self.latencies_ms);
        format!(
            "{} scheduled over {:.1} s: {} answered ({} within {} ms), {} refused, {} shed, {} lost; \
             due-to-reply p50 {:.3} ms, {}; generator lag p99 {:.3} ms; avg batch {:.2}",
            self.scheduled,
            self.schedule_s,
            self.answered,
            self.within_slo(),
            SLO.as_millis(),
            self.refused,
            self.shed,
            self.lost,
            median(&self.latencies_ms),
            t.map_or("no tail".into(), |t| format!(
                "p{} {:.3} ms ({} of {} samples beyond)",
                t.pct, t.value, t.beyond, t.samples
            )),
            self.lag_p99_ms(),
            self.stats.avg_batch_size,
        )
    }
}

/// A serving loop over the dataset's graph with the benchmark's batching.
pub fn serve_loop(
    frozen: &FrozenModel,
    ds: &NodeDataset,
    deadline: Option<Duration>,
    recorder: RecorderHandle,
) -> Result<ServeLoop, String> {
    let cfg = ServeConfig {
        max_batch: SERVE_MAX_BATCH,
        latency_budget: BATCH_BUDGET,
        ctx_nodes: SERVE_CTX_NODES,
        shed_watermark: None,
        deadline,
    };
    ServeLoop::new(frozen, ds.graph.clone(), ds.features.clone(), cfg, recorder)
        .map_err(|e| format!("cannot start serve loop: {e}"))
}

/// Build a loop and run one phase through it.
pub fn run_phase(
    frozen: &FrozenModel,
    ds: &NodeDataset,
    phase: &Phase,
    seed: u64,
    recorder: RecorderHandle,
) -> Result<PhaseOut, String> {
    let mut sl = serve_loop(frozen, ds, phase.deadline, recorder)?;
    Ok(drive(&mut sl, ds.num_nodes(), phase, seed))
}

/// Offer one phase of open-loop load to a serving loop and collect every
/// reply.
pub fn drive(sl: &mut ServeLoop, num_nodes: usize, phase: &Phase, seed: u64) -> PhaseOut {
    let schedule = poisson_schedule(phase.rate, phase.seconds, seed);
    let mut zipf = Zipf::new(num_nodes, ZIPF_S, seed ^ 0x51F);
    let nodes: Vec<u32> = schedule.iter().map(|_| zipf.sample() as u32).collect();
    let (tx, rx) = bounded::<Query>(QUEUE_CAP);
    let mut timings = Vec::with_capacity(schedule.len());
    let mut inboxes: Vec<Option<Receiver<ServeReply>>> = Vec::with_capacity(schedule.len());
    let stats = std::thread::scope(|s| {
        let server = s.spawn(move || sl.run(rx));
        let t0 = Instant::now();
        for (&due, &node) in schedule.iter().zip(&nodes) {
            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            let (reply_tx, reply_rx) = unbounded();
            let q = Query::new(node, reply_tx);
            timings.push(QueryTiming {
                due,
                sent: q.enqueued.duration_since(t0),
            });
            inboxes.push(tx.try_send(q).is_ok().then_some(reply_rx));
        }
        drop(tx);
        server.join().expect("serve loop panicked")
    });
    let mut out = PhaseOut {
        stats,
        schedule_s: phase.seconds,
        scheduled: schedule.len() as u64,
        refused: 0,
        answered: 0,
        shed: 0,
        lost: 0,
        latencies_ms: Vec::new(),
        good_due: Vec::new(),
        lags_ms: Vec::new(),
        answers: Vec::new(),
    };
    for ((timing, inbox), &node) in timings.iter().zip(&inboxes).zip(&nodes) {
        let Some(inbox) = inbox else {
            out.refused += 1;
            continue;
        };
        out.lags_ms.push(timing.lag().as_secs_f64() * 1e3);
        match (inbox.try_recv(), inbox.try_recv()) {
            (Some(ServeReply::Answered(p)), None) if p.node == node => {
                out.answered += 1;
                let latency = timing.due_to_reply(p.latency);
                out.latencies_ms.push(latency.as_secs_f64() * 1e3);
                if latency <= SLO {
                    out.good_due.push(timing.due);
                }
                out.answers.push((node, p.label));
            }
            (Some(ServeReply::Overloaded(_)), None) => out.shed += 1,
            _ => out.lost += 1,
        }
    }
    out
}

/// Single-query answers of the frozen model: each node's ego subgraph run
/// alone through the executor.
fn single_answers(exec: &mut FrozenExecutor, ds: &NodeDataset, nodes: &[u32]) -> Vec<u32> {
    nodes
        .iter()
        .map(|&n| {
            let packed = pack_queries(
                &[ego_subgraph(&ds.graph, n, SERVE_CTX_NODES)],
                &ds.features,
                ds.feat_dim,
            );
            let batch = SequenceBatch {
                features: &packed.features,
                graph: &packed.graph,
                spd: None,
            };
            exec.forward_argmax(&batch, Pattern::Sparse(&packed.mask))[0]
        })
        .collect()
}

/// Output checks of the serving path: a fixed probe set answered in packed
/// micro-batches must equal its single-query answers, and so must every
/// answer the loop served.
fn check_answers(
    r: &mut Report,
    frozen: &FrozenModel,
    ds: &NodeDataset,
    served: &[(u32, u32)],
    seed: u64,
) -> Result<(), String> {
    let mut exec = FrozenExecutor::new(frozen).map_err(|e| e.to_string())?;
    let mut zipf = Zipf::new(ds.num_nodes(), ZIPF_S, seed ^ 0x9E0BE);
    let probe: Vec<u32> = (0..PROBE_QUERIES).map(|_| zipf.sample() as u32).collect();
    let mut packed_answers = Vec::with_capacity(probe.len());
    for chunk in probe.chunks(SERVE_MAX_BATCH) {
        let subs: Vec<_> = chunk
            .iter()
            .map(|&n| ego_subgraph(&ds.graph, n, SERVE_CTX_NODES))
            .collect();
        let packed = pack_queries(&subs, &ds.features, ds.feat_dim);
        let batch = SequenceBatch {
            features: &packed.features,
            graph: &packed.graph,
            spd: None,
        };
        let preds = exec.forward_argmax(&batch, Pattern::Sparse(&packed.mask));
        packed_answers.extend(packed.segments.iter().map(|&(start, _)| preds[start]));
    }
    let single = single_answers(&mut exec, ds, &probe);
    r.check(
        "packed answers of the probe set equal single-query answers",
        packed_answers == single,
    );
    let mut nodes: Vec<u32> = served.iter().map(|&(n, _)| n).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let truth: std::collections::HashMap<u32, u32> = nodes
        .iter()
        .copied()
        .zip(single_answers(&mut exec, ds, &nodes))
        .collect();
    let wrong = served.iter().filter(|(n, l)| truth[n] != *l).count();
    r.check(
        format!(
            "every served answer equals its single-query answer ({wrong} of {} differ)",
            served.len()
        ),
        wrong == 0,
    );
    Ok(())
}

/// The model every serve run deploys: Graphormer (hidden 64, 3 layers,
/// 8 heads) trained one TorchGT epoch on the products stand-in, frozen to
/// int8 behind the 1% accuracy gate, written as TGTF and loaded back.
struct Deployed {
    ds: NodeDataset,
    frozen: FrozenModel,
    loss: f32,
    epoch_wall_s: f64,
    trace: Option<Arc<MemoryRecorder>>,
    generate_s: f64,
    initial_preprocess_s: f64,
}

fn deploy(seed: u64, work: &Path, traced: bool) -> Result<Deployed, String> {
    let t = Instant::now();
    let ds = DatasetKind::OgbnProducts.generate_node(crate::PRODUCTS_SCALE, crate::DATA_SEED);
    let generate_s = t.elapsed().as_secs_f64();
    let mut trainer = train::builder(Method::TorchGt, &train::NODE, seed)
        .epochs(1)
        .build_node(&ds)
        .map_err(|e| e.to_string())?;
    let initial_preprocess_s = trainer.preprocess_seconds();
    let trace = traced.then(|| Arc::new(MemoryRecorder::default()));
    if let Some(mem) = &trace {
        trainer.attach_recorder(mem.clone());
    }
    let t = Instant::now();
    let stats = trainer.train_epoch();
    let epoch_wall_s = t.elapsed().as_secs_f64();
    // The accuracy gate judges the whole test split: on a 256-node sample
    // of this one-epoch model, sampling alone moves the drop by about 1%.
    let calib = CalibSet::from_dataset(&ds, ds.split.test.len(), seed);
    let opts = FreezeOptions {
        scheme: QuantScheme::Int8,
        max_acc_drop: 0.01,
    };
    let frozen = trainer
        .freeze_with(&calib, opts)
        .map_err(|e| format!("freeze rejected: {e}"))?;
    let path = work.join("serve.tgtf");
    frozen.save(&path).map_err(|e| e.to_string())?;
    let frozen = FrozenModel::load(&path).map_err(|e| e.to_string())?;
    Ok(Deployed {
        ds,
        frozen,
        loss: stats.loss,
        epoch_wall_s,
        trace,
        generate_s,
        initial_preprocess_s,
    })
}

fn phases(seconds: f64) -> (Phase, Phase) {
    (
        Phase {
            rate: LIGHT_QPS,
            seconds: seconds * LIGHT_SHARE,
            deadline: None,
        },
        Phase {
            rate: OVERLOAD_QPS,
            seconds: seconds * (1.0 - LIGHT_SHARE),
            deadline: Some(SHED_DEADLINE),
        },
    )
}

/// The tracing-off run: deploy, then a light and an overload phase.
pub fn run(args: &Args, work: &Path, r: &mut Report) -> Result<(), String> {
    let t = Instant::now();
    let d = deploy(args.seed, work, false)?;
    let light_loop = serve_loop(&d.frozen, &d.ds, None, torchgt_obs::noop());
    let over_loop = serve_loop(&d.frozen, &d.ds, Some(SHED_DEADLINE), torchgt_obs::noop());
    let (mut light_loop, mut over_loop) = (light_loop?, over_loop?);
    r.metric("setup_s", t.elapsed().as_secs_f64());
    r.note(format!(
        "dataset products scale {} seed {}; frozen {:?}, f32 acc {:.4} -> int8 acc {:.4}",
        crate::PRODUCTS_SCALE,
        crate::DATA_SEED,
        d.frozen.scheme,
        d.frozen.f32_acc,
        d.frozen.frozen_acc
    ));
    let (light, over) = phases(args.seconds);
    let l = drive(&mut light_loop, d.ds.num_nodes(), &light, args.seed);
    let o = drive(&mut over_loop, d.ds.num_nodes(), &over, args.seed ^ 0x0E);
    r.note(format!("phase light @ {LIGHT_QPS} qps: {}", l.summary()));
    r.note(format!(
        "phase overload @ {OVERLOAD_QPS} qps: {}",
        o.summary()
    ));
    let goodput = o.goodput();
    r.metric("throughput_per_s", goodput);
    r.note(format!(
        "overload goodput per second: {:?}",
        o.goodput_windows()
    ));
    r.metric("latency_p50_ms", median(&l.latencies_ms));
    let t = tail(&l.latencies_ms).ok_or("no light-phase replies")?;
    r.metric("peak_rss_mb", host::peak_rss_mb());
    r.note(format!(
        "serve_p50_ms {:.3} ms, serve_p{}_ms {:.3} ms ({} samples, {} beyond), serve_goodput_qps {goodput:.1} 1/s; \
         light-phase SLO misses {} of {}; final_loss {:.4}",
        median(&l.latencies_ms), t.pct, t.value, t.samples, t.beyond, l.missed(), l.scheduled, d.loss
    ));
    // Refusing, shedding and answering late are load responses, measured by
    // the latency and goodput figures; only a lost reply is a failure.
    r.attempted = l.scheduled + o.scheduled;
    r.failed = l.lost + o.lost;
    r.check(
        "exactly one reply per query sent",
        l.lost == 0 && o.lost == 0,
    );
    r.check("the training loss is finite", d.loss.is_finite());
    check_answers(r, &d.frozen, &d.ds, &l.answers, args.seed)
}

/// The traced run: the layer probes at the serving shapes, then the same
/// deployment untraced and traced with the light phase through each.
pub fn run_traced(args: &Args, work: &Path, r: &mut Report) -> Result<(), String> {
    let (light, _) = phases(args.seconds);
    let plain = deploy(args.seed, work, false)?;
    r.metric("graph.generate_s", plain.generate_s);
    let source = crate::train::Source::Generate(DatasetKind::OgbnProducts, crate::PRODUCTS_SCALE);
    let probed = crate::train::common_probes(r, args, work, &plain.ds, &train::NODE, source)?;
    probes::serve_kernels(r, &plain.frozen, &plain.ds, args.seed)?;
    let d = deploy(args.seed, work, true)?;
    r.check(
        "traced training loss is bit-equal to the untraced deployment's",
        plain.loss.to_bits() == d.loss.to_bits() && d.loss.is_finite(),
    );
    // Untraced and traced deployments serve alternating half phases of the
    // same schedules, so a slow stretch of the host lands on both sides.
    let half = Phase {
        seconds: light.seconds / 2.0,
        ..light
    };
    let (mut p50s, mut last) = ([0.0f64; 2], None);
    for i in 0..2u64 {
        let seed = args.seed ^ i;
        let a = run_phase(&plain.frozen, &plain.ds, &half, seed, torchgt_obs::noop())?;
        let b = run_phase(
            &d.frozen,
            &d.ds,
            &half,
            seed,
            Arc::new(MemoryRecorder::default()),
        )?;
        r.check(
            format!("traced and untraced deployments serve identical answers (pair {i})"),
            a.answers == b.answers,
        );
        r.check(
            format!("exactly one reply per query sent (pair {i})"),
            a.lost == 0 && b.lost == 0,
        );
        p50s[0] += median(&a.latencies_ms);
        p50s[1] += median(&b.latencies_ms);
        r.note(format!("untraced light half phase {i}: {}", a.summary()));
        r.note(format!("traced light half phase {i}: {}", b.summary()));
        // Queries the tracing itself makes late are not failures of the
        // program; lost replies are.
        r.attempted += a.scheduled + b.scheduled;
        r.failed += a.lost + b.lost;
        last = Some(b);
    }
    r.metric(
        "obs.trace_overhead_pct",
        100.0 * (p50s[1] - p50s[0]) / p50s[0],
    );
    probes::serve_loop_rows(r, &last.expect("two pairs"));
    let rep = d.trace.as_ref().expect("traced deployment").report();
    let steps = crate::train::runtime_rows(r, &rep, d.epoch_wall_s, d.initial_preprocess_s);
    probed.attention_share(r, &train::NODE, steps);
    Ok(())
}
