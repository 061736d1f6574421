//! The LLM training step-time model used by the Table 3 search.

use crate::plan::{AxisMapping, Partitioning, ShardingSpec};
use serde::{Deserialize, Serialize};
use tpu_spec::consts::{GIGA, TERA};
use tpu_spec::ChipSpec;
use tpu_topology::SliceShape;

/// A decoder-only LLM training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlmConfig {
    /// Model name.
    pub name: String,
    /// Total parameters.
    pub params: u64,
    /// Transformer layers.
    pub layers: u32,
    /// Hidden width.
    pub d_model: u32,
    /// Sequence length, tokens.
    pub seq_len: u32,
    /// Global batch, sequences.
    pub batch_seqs: u32,
    /// Bytes per activation element (bf16).
    pub act_bytes: u32,
}

impl LlmConfig {
    /// The internal LLM of Table 3's first case (sized so 512 chips is a
    /// sensible slice: ~30 B parameters).
    pub fn table3_llm() -> LlmConfig {
        LlmConfig {
            name: "LLM (internal)".into(),
            params: 30_000_000_000,
            layers: 48,
            d_model: 7168,
            seq_len: 2048,
            batch_seqs: 512,
            act_bytes: 2,
        }
    }

    /// GPT-3 pre-training (Table 3's second case): 175 B parameters.
    pub fn gpt3() -> LlmConfig {
        LlmConfig {
            name: "GPT-3".into(),
            params: 175_000_000_000,
            layers: 96,
            d_model: 12288,
            seq_len: 2048,
            batch_seqs: 512,
            act_bytes: 2,
        }
    }

    /// Training FLOPs per token (forward + backward ≈ 6 × parameters).
    pub fn flops_per_token(&self) -> f64 {
        6.0 * self.params as f64
    }

    /// Tokens per training step.
    pub fn tokens_per_step(&self) -> f64 {
        f64::from(self.batch_seqs) * f64::from(self.seq_len)
    }
}

/// Fraction of MXU work that is useful when `width` is sharded `ways`
/// ways and padded up to the 128-lane systolic tile.
fn mxu_padding_efficiency(width: u32, ways: u32) -> f64 {
    if ways <= 1 {
        return 1.0;
    }
    let shard = width.div_ceil(ways);
    let padded = shard.div_ceil(128) * 128;
    f64::from(shard) / f64::from(padded)
}

/// The evaluated cost of one (topology, plan, sharding) choice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingCost {
    compute_s: f64,
    model_comm_s: f64,
    data_comm_s: f64,
    pipeline_s: f64,
    step_s: f64,
    seqs_per_s: f64,
    mfu: f64,
}

impl TrainingCost {
    /// Evaluates a configuration, returning `None` when the plan does not
    /// map onto the topology (degree products don't match the dims) or
    /// does not fit in HBM.
    pub fn evaluate(
        llm: &LlmConfig,
        shape: SliceShape,
        plan: Partitioning,
        sharding: ShardingSpec,
    ) -> Option<TrainingCost> {
        if plan.chips() != shape.volume() {
            return None;
        }
        let mappings = AxisMapping::enumerate(shape, plan);
        mappings
            .into_iter()
            .filter_map(|m| TrainingCost::with_mapping(llm, shape, plan, sharding, m))
            // tpu-lint: allow(panic-policy) -- unreachable: finite times
            .min_by(|a, b| a.step_s.partial_cmp(&b.step_s).expect("finite times"))
    }

    /// Evaluates one explicit axis mapping.
    pub fn with_mapping(
        llm: &LlmConfig,
        shape: SliceShape,
        plan: Partitioning,
        sharding: ShardingSpec,
        mapping: AxisMapping,
    ) -> Option<TrainingCost> {
        let spec = ChipSpec::tpu_v4();
        let chips = shape.volume() as f64;
        let link_bw = spec.ici_gbps_per_link * GIGA;

        // HBM capacity: weights + optimizer state must fit the chips each
        // parameter is sharded over (pipeline x model).
        let shard_ways = f64::from(plan.pipeline) * f64::from(plan.model_parallel());
        let bytes_per_param = 2.0 + 4.0 + 4.0; // bf16 weight + fp32 m/v
        let per_chip_param_bytes = llm.params as f64 * bytes_per_param / shard_ways;
        if per_chip_param_bytes > spec.hbm_gib * 1.073e9 * 0.8 {
            return None;
        }

        // Compute: perfectly sharded across all chips; MXU efficiency
        // falls with model-parallel fragmentation (smaller matmuls) and
        // with 128-lane padding when the sharded width does not divide
        // into whole MXU tiles.
        let m = f64::from(plan.model_parallel());
        let frag_eff = 0.55 / (1.0 + 0.08 * m.log2().max(0.0));
        let pad_eff = mxu_padding_efficiency(llm.d_model, plan.model1)
            * mxu_padding_efficiency(llm.d_model, plan.model2);
        let mxu_eff = frag_eff * pad_eff;
        let compute_s = llm.flops_per_token() * llm.tokens_per_step()
            / (chips * spec.peak_tflops * TERA * mxu_eff);

        // Model-parallel collectives: per layer, the activations of this
        // replica's shard cross the model group twice each direction.
        let replicas = f64::from(plan.data);
        let act_elems =
            f64::from(llm.batch_seqs) / replicas * f64::from(llm.seq_len) * f64::from(llm.d_model);
        let act_bytes = act_elems * f64::from(llm.act_bytes);
        let volume_factor = sharding.comm_volume_factor(plan.model_parallel());
        let model_links = mapping.links_for_axis(2) + mapping.links_for_axis(3);
        let model_comm_s = if plan.model_parallel() > 1 {
            let links = f64::from(model_links.max(1));
            4.0 * f64::from(llm.layers) * act_bytes * volume_factor
                / (f64::from(plan.pipeline) * links * link_bw)
        } else {
            0.0
        };

        // Data-parallel gradient all-reduce of this chip's weight shard.
        let data_links = mapping.links_for_axis(1);
        let data_comm_s = if plan.data > 1 {
            let links = f64::from(data_links.max(1));
            let shard_bytes = llm.params as f64 * 2.0 / shard_ways;
            2.0 * (replicas - 1.0) / replicas * shard_bytes / (links * link_bw)
        } else {
            0.0
        };

        // Pipeline: bubble overhead plus stage-boundary transfers.
        let pipe = f64::from(plan.pipeline);
        let (pipeline_s, bubble) = if plan.pipeline > 1 {
            let microbatches = (f64::from(llm.batch_seqs) / replicas).max(pipe);
            let bubble = (pipe - 1.0) / (microbatches + pipe - 1.0);
            let links = f64::from(mapping.links_for_axis(0).max(1));
            let boundary_bytes = act_bytes / m * 2.0; // fwd + bwd per boundary
            (boundary_bytes / (links * link_bw), bubble)
        } else {
            (0.0, 0.0)
        };

        // Dense compute overlaps with async collectives [59] at ~50%; the
        // bubble stretches the whole step.
        let overlapped_comm = 0.5 * model_comm_s + data_comm_s + pipeline_s;
        let step_s = (compute_s + overlapped_comm) / (1.0 - bubble);

        let seqs_per_s = f64::from(llm.batch_seqs) / step_s;
        let ideal =
            llm.flops_per_token() * llm.tokens_per_step() / (chips * spec.peak_tflops * TERA);
        Some(TrainingCost {
            compute_s,
            model_comm_s,
            data_comm_s,
            pipeline_s,
            step_s,
            seqs_per_s,
            mfu: ideal / step_s,
        })
    }

    /// Step time, seconds.
    pub fn step_s(&self) -> f64 {
        self.step_s
    }

    /// Throughput in sequences per second (Table 3's metric).
    pub fn throughput_seqs_per_s(&self) -> f64 {
        self.seqs_per_s
    }

    /// Model FLOPs utilization (the §9 "57.8% of peak" metric for PaLM).
    pub fn mfu(&self) -> f64 {
        self.mfu
    }

    /// Pure compute time, seconds.
    pub fn compute_s(&self) -> f64 {
        self.compute_s
    }

    /// Model-parallel communication time, seconds.
    pub fn model_comm_s(&self) -> f64 {
        self.model_comm_s
    }

    /// Data-parallel communication time, seconds.
    pub fn data_comm_s(&self) -> f64 {
        self.data_comm_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(x: u32, y: u32, z: u32) -> SliceShape {
        SliceShape::new(x, y, z).unwrap()
    }

    #[test]
    fn mismatched_plan_rejected() {
        let llm = LlmConfig::table3_llm();
        let c = TrainingCost::evaluate(
            &llm,
            shape(8, 8, 8),
            Partitioning::new(1, 1, 16, 16),
            ShardingSpec::new(1, 1),
        );
        assert!(c.is_none());
    }

    #[test]
    fn throughput_positive_and_mfu_below_one() {
        let llm = LlmConfig::table3_llm();
        let c = TrainingCost::evaluate(
            &llm,
            shape(8, 8, 8),
            Partitioning::new(1, 1, 64, 8),
            ShardingSpec::new(1, 2),
        )
        .unwrap();
        assert!(c.throughput_seqs_per_s() > 0.0);
        assert!(c.mfu() > 0.05 && c.mfu() < 0.65, "mfu {}", c.mfu());
    }

    #[test]
    fn paper_best_config_is_competitive_with_novice() {
        // Table 3's published winner should be at least in the same
        // performance class as the novice pick under our model (the full
        // 2.3x separation needs production-stack effects the analytic
        // model cannot see; the search test below checks the search still
        // finds a strictly better configuration).
        let llm = LlmConfig::table3_llm();
        let novice = TrainingCost::evaluate(
            &llm,
            shape(4, 8, 16),
            Partitioning::new(1, 1, 16, 32),
            ShardingSpec::new(2, 2),
        )
        .unwrap();
        let paper_best = TrainingCost::evaluate(
            &llm,
            shape(8, 8, 8),
            Partitioning::new(1, 1, 64, 8),
            ShardingSpec::new(1, 2),
        )
        .unwrap();
        let gain = paper_best.throughput_seqs_per_s() / novice.throughput_seqs_per_s();
        assert!(gain > 0.7, "paper best implausibly bad in model: {gain}");
    }

    #[test]
    fn gpt3_does_not_fit_without_model_parallelism() {
        // 175B params x 10 B/param over 512 chips data-parallel only:
        // 3.4 TB per chip — impossible.
        let llm = LlmConfig::gpt3();
        let c = TrainingCost::evaluate(
            &llm,
            shape(8, 8, 8),
            Partitioning::new(1, 512, 1, 1),
            ShardingSpec::new(1, 1),
        );
        assert!(c.is_none(), "must be rejected for HBM capacity");
    }

    #[test]
    fn pipeline_bubble_hurts_at_high_depth() {
        let llm = LlmConfig::gpt3();
        let shallow = TrainingCost::evaluate(
            &llm,
            shape(8, 8, 8),
            Partitioning::new(8, 1, 8, 8),
            ShardingSpec::new(2, 2),
        )
        .unwrap();
        let deep = TrainingCost::evaluate(
            &llm,
            shape(8, 8, 8),
            Partitioning::new(64, 1, 1, 8),
            ShardingSpec::new(2, 2),
        )
        .unwrap();
        assert!(
            deep.step_s() > shallow.step_s() * 0.8,
            "very deep pipelines pay bubbles"
        );
    }

    #[test]
    fn flops_accounting() {
        let llm = LlmConfig::gpt3();
        assert!((llm.flops_per_token() - 1.05e12).abs() / 1.05e12 < 1e-9);
        assert_eq!(llm.tokens_per_step(), 512.0 * 2048.0);
    }
}
