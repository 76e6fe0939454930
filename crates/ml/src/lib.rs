//! # hcc-ml
//!
//! The Sec. VII-B machine-learning workloads under confidential
//! computing:
//!
//! * [`cnn`] — six CIFAR-100 CNNs (Fig. 13): training throughput and
//!   time across batch sizes and FP32 / AMP / FP16 precision, with the
//!   CC taxes (encrypted input upload, hypercall-laden launches, TD host
//!   overhead) applied component by component.
//! * [`llm`] — Llama-3-8B decode (Fig. 14): HuggingFace vs vLLM serving,
//!   BF16 vs AWQ weights, the batch-size crossover, and CC's
//!   backend-dependent penalty.
//!
//! ```
//! use hcc_ml::cnn::{CnnEstimator, TrainConfig, MODELS};
//! use hcc_ml::llm::{Backend, LlmConfig, LlmEstimator, LlmPrecision};
//! use hcc_core::Precision;
//! use hcc_types::CcMode;
//!
//! let cnn = CnnEstimator::default();
//! let drop = cnn.mean_cc_drop(64, Precision::Fp32);
//! assert!(drop > 0.1); // CC costs real throughput at batch 64
//!
//! let llm = LlmEstimator::default();
//! let s = llm.vllm_speedup(LlmPrecision::Awq, 8, CcMode::On);
//! assert!(s > 1.0); // vLLM beats the HF baseline even under CC
//! # let _ = (MODELS, TrainConfig { batch: 64, precision: Precision::Fp32, cc: CcMode::Off });
//! # let _ = (Backend::Vllm, LlmConfig { backend: Backend::Vllm, precision: LlmPrecision::Bf16, batch: 1, cc: CcMode::Off });
//! ```

pub mod cnn;
#[cfg(test)]
mod cnn_sim;
pub mod llm;

pub use cnn::{CnnEstimator, CnnModel, TrainConfig, TrainEstimate, MODELS};
pub use llm::{Backend, LlmConfig, LlmEstimator, LlmPrecision, FIG14_BATCHES};
