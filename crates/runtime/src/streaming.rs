//! Out-of-core node-level training: [`ShardSource`] feeds the one
//! [`NodeTrainer`] epoch loop from disk through a
//! [`torchgt_data::ShardLoader`] instead of an in-memory
//! [`torchgt_graph::NodeDataset`]; [`StreamingTrainer`] names that trainer.
//!
//! The source never materialises the full graph. Each pass streams `TGDS`
//! shards through the loader's prefetch thread, carries the sub-`seq_len`
//! remainder of each shard into the next one, and emits exactly the chunks
//! the in-memory preprocessing pipeline would have produced: with the
//! default (identity) shard order the per-epoch loss history is
//! **bit-identical** to the in-memory trainer over the same generated
//! dataset — asserted by this module's tests and by `tests/data_pipeline.rs`.
//! Every epoch reads the shards twice: once to train, once to evaluate.
//!
//! Only the GP-* baselines stream: TorchGT's cluster-aware reordering is a
//! global permutation of the node sequence, which requires the whole graph
//! up front. Construction refuses [`Method::TorchGt`] with [`CannotStream`].
//!
//! Dataset identity: snapshots taken over a shard source carry the
//! dataset's manifest hash ([`torchgt_data::Manifest::hash`]); restoring a
//! snapshot taken against a *different* dataset fails unless explicitly
//! overridden.

use crate::config::{Method, TrainConfig};
use crate::preprocess::{positions, split_marks, Sequence};
use crate::trainer::{NodeTrainer, SequenceSource, Step};
use std::{fmt, io};
use torchgt_comm::ClusterTopology;
use torchgt_data::{Shard, ShardLoader};
use torchgt_graph::{CsrGraph, DatasetKind, Split};
use torchgt_model::SequenceModel;
use torchgt_obs::RecorderHandle;
use torchgt_perf::{GpuSpec, ModelShape};
use torchgt_sparse::{access_profile, topology_mask};
use torchgt_tensor::Tensor;

/// The node-level trainer fed from an on-disk sharded dataset.
pub type StreamingTrainer = NodeTrainer<ShardSource>;

/// [`StreamingTrainer::from_shards`] was given [`Method::TorchGt`], whose
/// global cluster reorder cannot stream shard by shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CannotStream;

impl fmt::Display for CannotStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(
            "TorchGT's global cluster reorder cannot stream; use a GP-* method (e.g. gp-sparse)",
        )
    }
}

impl std::error::Error for CannotStream {}

/// Re-chunks a shard stream into `seq_len`-node sequences, carrying the
/// remainder of each shard into the next so chunk boundaries are identical
/// to the in-memory pipeline's regardless of how the dataset was sharded.
struct Chunker<'a> {
    stream: torchgt_data::ShardStream,
    seq_len: usize,
    feat_dim: usize,
    /// Scratch global→local map (`u32::MAX` = not in chunk), sized to the
    /// full node count and cleared after each chunk.
    remap: &'a mut [u32],
    ids: Vec<u32>,
    rows: Vec<Vec<u32>>,
    labels: Vec<u32>,
    feats: Vec<f32>,
}

impl Chunker<'_> {
    fn absorb(&mut self, shard: &Shard) {
        for local in 0..shard.node_count {
            self.ids.push((shard.node_start + local) as u32);
            self.rows.push(shard.neighbors(local).to_vec());
        }
        self.labels.extend_from_slice(&shard.labels);
        self.feats.extend_from_slice(&shard.features);
    }

    /// The next chunk as a [`Sequence`] whose `nodes` are global ids.
    fn next(&mut self) -> io::Result<Option<Sequence>> {
        while self.rows.len() < self.seq_len {
            match self.stream.next()? {
                Some(shard) => self.absorb(&shard),
                None => break,
            }
        }
        if self.rows.is_empty() {
            return Ok(None);
        }
        let k = self.seq_len.min(self.rows.len());
        let ids: Vec<u32> = self.ids.drain(..k).collect();
        let rows: Vec<Vec<u32>> = self.rows.drain(..k).collect();
        let labels: Vec<u32> = self.labels.drain(..k).collect();
        let feats: Vec<f32> = self.feats.drain(..k * self.feat_dim).collect();
        for (local, &g) in ids.iter().enumerate() {
            self.remap[g as usize] = local as u32;
        }
        let mut row_ptr = Vec::with_capacity(k + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        for row in &rows {
            scratch.clear();
            for &nb in row {
                let m = self.remap[nb as usize];
                if m != u32::MAX {
                    scratch.push(m);
                }
            }
            // Rows arrive sorted by global id; with the identity shard order
            // the local mapping is monotonic and this sort is a no-op, but a
            // shuffled epoch permutes the mapping.
            scratch.sort_unstable();
            col_idx.extend_from_slice(&scratch);
            row_ptr.push(col_idx.len());
        }
        for &g in &ids {
            self.remap[g as usize] = u32::MAX;
        }
        let graph = CsrGraph::from_raw(row_ptr, col_idx);
        let mask = topology_mask(&graph, true);
        let profile = access_profile(&mask);
        let mut features = Tensor::zeros(k, self.feat_dim);
        features.data_mut().copy_from_slice(&feats);
        Ok(Some(Sequence { nodes: ids, graph, mask, features, labels, profile }))
    }
}

/// Sequences streamed from an on-disk sharded dataset, with the split
/// re-derived from the manifest seed and the dataset's identity hash.
pub struct ShardSource {
    loader: ShardLoader,
    dataset_id: String,
    allow_dataset_mismatch: bool,
    train_mark: Vec<bool>,
    test_mark: Vec<bool>,
    /// Scratch global→local map shared by every chunk build.
    remap: Vec<u32>,
    seq_len: usize,
}

impl ShardSource {
    fn new(loader: ShardLoader, seq_len: usize) -> Self {
        let m = loader.manifest();
        let n = m.total_nodes as usize;
        let split = Split::standard(n, m.seed ^ DatasetKind::SPLIT_SEED_XOR);
        Self {
            dataset_id: loader.hash().to_string(),
            allow_dataset_mismatch: false,
            train_mark: split_marks(n, &split.train),
            test_mark: split_marks(n, &split.test),
            remap: vec![u32::MAX; n],
            seq_len: seq_len.min(n).max(1),
            loader,
        }
    }
}

impl SequenceSource for ShardSource {
    /// β_G from the manifest — no shard reads needed.
    fn beta_g(&self) -> f64 {
        self.loader.manifest().beta_g()
    }

    fn for_each_step(&mut self, epoch: usize, visit: &mut dyn FnMut(Step<'_>)) -> io::Result<()> {
        let mut chunker = Chunker {
            stream: self.loader.stream_epoch(epoch),
            seq_len: self.seq_len,
            feat_dim: self.loader.manifest().feat_dim as usize,
            remap: &mut self.remap,
            ids: Vec::new(),
            rows: Vec::new(),
            labels: Vec::new(),
            feats: Vec::new(),
        };
        while let Some(seq) = chunker.next()? {
            visit(Step {
                features: &seq.features,
                graph: &seq.graph,
                labels: &seq.labels,
                train_pos: &positions(&seq.nodes, &self.train_mark),
                test_pos: &positions(&seq.nodes, &self.test_mark),
                mask: &seq.mask,
                profile: seq.profile,
                report: None,
                reform_ratio: 1.0,
            });
        }
        Ok(())
    }

    /// The loader's prefetch gauges.
    fn attach_recorder(&mut self, recorder: &RecorderHandle) {
        self.loader.attach_recorder(recorder.clone());
    }

    fn dataset_id(&self) -> Option<&str> {
        Some(&self.dataset_id)
    }

    fn check_dataset(&self, id: &str) -> io::Result<()> {
        if id == self.dataset_id || self.allow_dataset_mismatch {
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "snapshot was taken against dataset {id}, but the loaded dataset is {}; \
                 pass --allow-dataset-mismatch to restore anyway",
                self.dataset_id
            ),
        ))
    }
}

impl StreamingTrainer {
    /// Build a trainer over an opened shard loader. Refuses
    /// [`Method::TorchGt`], whose cluster-aware reordering is a global
    /// permutation and cannot stream shard by shard.
    pub fn from_shards(
        cfg: TrainConfig,
        loader: ShardLoader,
        model: Box<dyn SequenceModel>,
        shape: ModelShape,
        gpu: GpuSpec,
        topology: ClusterTopology,
    ) -> Result<Self, CannotStream> {
        if cfg.method == Method::TorchGt {
            return Err(CannotStream);
        }
        let source = ShardSource::new(loader, cfg.seq_len);
        Ok(Self::with_source(cfg, source, model, shape, gpu, topology))
    }

    /// Identity hash of the dataset being streamed.
    pub fn dataset_id(&self) -> &str {
        &self.source.dataset_id
    }

    /// The shard loader driving this trainer (prefetch stats live here).
    pub fn loader(&self) -> &ShardLoader {
        &self.source.loader
    }

    /// Accept snapshots whose dataset identity differs from the loaded
    /// dataset (the `--allow-dataset-mismatch` escape hatch).
    pub fn set_allow_dataset_mismatch(&mut self, allow: bool) {
        self.source.allow_dataset_mismatch = allow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::NodeTrainer;
    use crate::traits::Trainer;
    use torchgt_data::generate_to_dir;
    use torchgt_model::{Graphormer, GraphormerConfig};

    const KIND: DatasetKind = DatasetKind::OgbnArxiv;
    const SCALE: f64 = 0.004;
    const SEED: u64 = 11;

    fn make_model(feat_dim: usize, out_dim: usize) -> Box<Graphormer> {
        let mcfg = GraphormerConfig {
            feat_dim,
            hidden: 16,
            layers: 2,
            heads: 2,
            ffn_mult: 2,
            out_dim,
            max_degree: 16,
            max_spd: 4,
            dropout: 0.1,
        };
        Box::new(Graphormer::new(mcfg, 5))
    }

    fn config(epochs: usize) -> TrainConfig {
        config_for(Method::GpSparse, epochs)
    }

    fn config_for(method: Method, epochs: usize) -> TrainConfig {
        let mut cfg = TrainConfig::new(method, 128, epochs);
        cfg.seed = 3;
        cfg
    }

    fn sharded_dir(tag: &str, seed: u64) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tgt-streaming-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        generate_to_dir(KIND, SCALE, seed, &dir, 300).unwrap();
        dir
    }

    fn streaming(dir: &std::path::Path, epochs: usize) -> StreamingTrainer {
        streaming_with(dir, config(epochs))
    }

    fn streaming_with(dir: &std::path::Path, cfg: TrainConfig) -> StreamingTrainer {
        let loader = ShardLoader::open(dir).unwrap();
        let m = loader.manifest();
        let model = make_model(m.feat_dim as usize, m.num_classes as usize);
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        StreamingTrainer::from_shards(
            cfg,
            loader,
            model,
            shape,
            GpuSpec::rtx3090(),
            ClusterTopology::rtx3090(1),
        )
        .expect("GP-* methods stream")
    }

    #[test]
    fn streaming_matches_in_memory_bit_for_bit() {
        let dir = sharded_dir("parity", SEED);
        let d = KIND.generate_node(SCALE, SEED);
        // Every method that can stream; GP-FLASH trains in bf16.
        for method in [Method::GpSparse, Method::GpRaw, Method::GpFlash] {
            let model = make_model(d.feat_dim, d.num_classes);
            let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
            let mut mem = NodeTrainer::new(
                config_for(method, 2),
                &d,
                model,
                shape,
                GpuSpec::rtx3090(),
                ClusterTopology::rtx3090(1),
            );
            let mut ooc = streaming_with(&dir, config_for(method, 2));
            let mem_stats = mem.run();
            let ooc_stats = ooc.run();
            assert_eq!(mem_stats.len(), ooc_stats.len());
            for (a, b) in mem_stats.iter().zip(&ooc_stats) {
                assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{method:?} epoch {} loss", a.epoch);
                assert_eq!(a.train_acc, b.train_acc, "{method:?} epoch {} train acc", a.epoch);
                assert_eq!(a.test_acc, b.test_acc, "{method:?} epoch {} test acc", a.epoch);
                assert_eq!(a.sim_seconds, b.sim_seconds, "{method:?} epoch {} sim", a.epoch);
                assert_eq!(a.beta_thre, b.beta_thre, "{method:?} epoch {} beta", a.epoch);
                assert_eq!(
                    (a.sparse_iters, a.full_iters),
                    (b.sparse_iters, b.full_iters),
                    "{method:?} epoch {} iter mix",
                    a.epoch
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_resume_continues_bit_for_bit() {
        let dir = sharded_dir("resume", SEED);
        let mut full = streaming(&dir, 3);
        let full_stats = full.run();

        let mut first = streaming(&dir, 3);
        first.train_epoch();
        let snap = Trainer::snapshot(&mut first);
        assert_eq!(snap.dataset_id.as_deref(), Some(first.dataset_id()));
        drop(first);

        let mut second = streaming(&dir, 3);
        Trainer::restore(&mut second, &snap).unwrap();
        assert_eq!(second.epoch, 1);
        let mut resumed = Vec::new();
        while second.epoch < 3 {
            resumed.push(second.train_epoch());
        }
        assert_eq!(resumed.len(), 2);
        for (a, b) in full_stats[1..].iter().zip(&resumed) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {} loss", a.epoch);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_refuses_a_different_dataset() {
        let dir_a = sharded_dir("id-a", SEED);
        let dir_b = sharded_dir("id-b", SEED + 1);
        let mut a = streaming(&dir_a, 2);
        a.train_epoch();
        let snap = Trainer::snapshot(&mut a);

        let mut b = streaming(&dir_b, 2);
        let err = Trainer::restore(&mut b, &snap).unwrap_err();
        assert!(err.to_string().contains("allow-dataset-mismatch"), "{err}");
        assert_eq!(b.epoch, 0, "failed restore must leave the trainer untouched");
        // The escape hatch: same architecture, so the restore itself works.
        b.set_allow_dataset_mismatch(true);
        Trainer::restore(&mut b, &snap).unwrap();
        assert_eq!(b.epoch, 1);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn shuffled_epochs_still_train() {
        let dir = sharded_dir("shuffle", SEED);
        let loader = ShardLoader::open(&dir).unwrap().with_shuffle(99);
        let m = loader.manifest();
        let model = make_model(m.feat_dim as usize, m.num_classes as usize);
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        let mut t = StreamingTrainer::from_shards(
            config(2),
            loader,
            model,
            shape,
            GpuSpec::rtx3090(),
            ClusterTopology::rtx3090(1),
        )
        .expect("GP-* methods stream");
        let stats = t.run();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.loss.is_finite()));
        assert!(stats[1].loss < stats[0].loss * 1.5, "shuffled run must still learn");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torchgt_method_is_rejected() {
        let dir = sharded_dir("reject", SEED);
        let loader = ShardLoader::open(&dir).unwrap();
        let m = loader.manifest();
        let model = make_model(m.feat_dim as usize, m.num_classes as usize);
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        let res = StreamingTrainer::from_shards(
            TrainConfig::new(Method::TorchGt, 128, 1),
            loader,
            model,
            shape,
            GpuSpec::rtx3090(),
            ClusterTopology::rtx3090(1),
        );
        assert!(matches!(res, Err(CannotStream)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
