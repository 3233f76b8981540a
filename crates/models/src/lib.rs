//! # nnrt-models
//!
//! Training-step dataflow graphs for the paper's four evaluation networks:
//!
//! * [`resnet50`] — ResNet-50 on CIFAR-10, batch 64,
//! * [`dcgan`] — DCGAN on MNIST, batch 64,
//! * [`inception_v3`] — Inception-v3 on ImageNet, batch 16,
//! * [`lstm`] — a 2-layer LSTM language model on PTB, batch 20.
//!
//! Beyond the paper, [`transformer`] builds a 12-layer BERT-base-like
//! encoder — the "future NN models \[with\] more diverse and larger number of
//! operations" the paper's introduction anticipates.
//!
//! Each builder emits one training step: forward pass, backward pass and the
//! optimizer updates, with the dependency structure that matters for
//! scheduling — e.g. `Conv2DBackpropFilter` and `Conv2DBackpropInput` of a
//! layer are *siblings* (both depend on the incoming gradient), which is the
//! co-run pair the paper studies in Table III; inception modules have four
//! parallel branches; LSTM time steps chain serially.
//!
//! Shapes and channel widths follow the real architectures; learned values
//! are irrelevant to scheduling, so no weights exist. The graphs also include
//! the MKL-DNN layout-conversion ops (`InputConversion`, `ToTf`) and the
//! broadcasting `Tile`/`Mul` ops that the paper's Table VI shows among
//! ResNet-50's most time-consuming operations.

#![warn(missing_docs)]

pub mod common;
pub mod datasets;
mod dcgan;
mod inception;
mod lstm;
mod resnet;
mod transformer;

pub use dcgan::dcgan;
pub use inception::inception_v3;
pub use lstm::lstm;
pub use resnet::resnet50;
pub use transformer::transformer;

use nnrt_graph::DataflowGraph;

/// A built model: its name, batch size and one-training-step graph.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Human-readable name as the paper prints it.
    pub name: &'static str,
    /// Batch size of the training step.
    pub batch: usize,
    /// The dataflow graph of one training step.
    pub graph: DataflowGraph,
}

/// All four evaluation models at the paper's batch sizes
/// (ResNet-50 @ 64, DCGAN @ 64, Inception-v3 @ 16, LSTM @ 20).
pub fn paper_models() -> Vec<ModelSpec> {
    vec![resnet50(64), dcgan(64), inception_v3(16), lstm(20)]
}

/// Looks a built-in model up by its CLI/RPC name (common aliases included),
/// building it at `batch` — or at the model's paper-default batch size when
/// `batch` is `None`. Returns `None` for unknown names; this is the single
/// registry both the `nnrt` CLI and the RPC front-end resolve against, so
/// the two surfaces can never drift apart.
pub fn by_name(name: &str, batch: Option<usize>) -> Option<ModelSpec> {
    let spec = match name {
        "resnet50" | "resnet-50" => resnet50(batch.unwrap_or(64)),
        "dcgan" => dcgan(batch.unwrap_or(64)),
        "inception" | "inception-v3" | "inception_v3" => inception_v3(batch.unwrap_or(16)),
        "lstm" => lstm(batch.unwrap_or(20)),
        "transformer" | "bert" => transformer(batch.unwrap_or(8)),
        _ => return None,
    };
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_validate() {
        for m in paper_models() {
            m.graph
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", m.name));
            assert!(!m.graph.is_empty(), "{} graph is empty", m.name);
        }
    }

    #[test]
    fn models_have_many_ops() {
        for m in paper_models() {
            // DCGAN is a small model (~100 ops); the CNNs and the LSTM have
            // several hundred to a few thousand.
            let floor = if m.name == "DCGAN" { 100 } else { 500 };
            assert!(
                m.graph.len() >= floor,
                "{} has only {} ops; expected at least {floor}",
                m.name,
                m.graph.len()
            );
        }
    }

    #[test]
    fn by_name_resolves_aliases_and_batches() {
        assert_eq!(by_name("resnet-50", None).unwrap().batch, 64);
        assert_eq!(by_name("bert", Some(2)).unwrap().batch, 2);
        assert_eq!(by_name("lstm", Some(4)).unwrap().batch, 4);
        assert!(by_name("vgg", None).is_none());
    }

    #[test]
    fn graphs_have_parallel_slack_for_corunning() {
        // Every model must have some width (ready ops beyond the critical
        // path), otherwise Strategy 3 has nothing to co-run.
        for m in paper_models() {
            let cp = m.graph.critical_path_len();
            assert!(
                cp < m.graph.len(),
                "{}: critical path {} = node count {}; graph is a pure chain",
                m.name,
                cp,
                m.graph.len()
            );
        }
    }
}
