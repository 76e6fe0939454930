//! LLM inference under CC (Sec. VII-B, Fig. 14): Llama-3-8B decode
//! throughput across serving backends (HuggingFace vs vLLM), precisions
//! (BF16 vs AWQ-int4) and batch sizes, with and without CC.
//!
//! Decode is modelled as the classic roofline: a step reads the weights
//! once (memory-bound term) or is bounded by batched FLOPs (compute
//! term), plus a backend-dependent per-step overhead. CC taxes the
//! host-side overhead and the launch path; vLLM's CUDA-graph execution
//! keeps its launch count (and hence its CC tax) low — the reason it
//! "remains robust with CC enabled" (Observation 9).

use hcc_types::calib::Calibration;
use hcc_types::{CcMode, SimDuration};

/// Serving backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// HuggingFace transformers (`model.generate`).
    HuggingFace,
    /// vLLM with paged attention and CUDA graphs.
    Vllm,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::HuggingFace => f.write_str("HF"),
            Backend::Vllm => f.write_str("vLLM"),
        }
    }
}

/// Model precision for inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlmPrecision {
    /// 16-bit weights (the unquantized configuration).
    Bf16,
    /// Activation-aware 4-bit weight quantization.
    Awq,
}

impl std::fmt::Display for LlmPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmPrecision::Bf16 => f.write_str("BF16"),
            LlmPrecision::Awq => f.write_str("AWQ"),
        }
    }
}

/// One inference configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlmConfig {
    /// Serving backend.
    pub backend: Backend,
    /// Weight precision.
    pub precision: LlmPrecision,
    /// Concurrent request batch size.
    pub batch: u32,
    /// Confidential computing mode.
    pub cc: CcMode,
}

/// Llama-3-8B decode-throughput estimator.
#[derive(Debug, Clone)]
pub struct LlmEstimator {
    calib: Calibration,
    /// HBM3 bandwidth (GB/s) bounding the weight-read term.
    hbm_gbs: f64,
    /// BF16 weight footprint (bytes).
    weights_bf16: f64,
    /// AWQ weight footprint (bytes).
    weights_awq: f64,
    /// Compute-bound time per sequence per token.
    flop_per_seq: SimDuration,
}

impl LlmEstimator {
    /// Creates an estimator with H100-NVL-class constants.
    pub(crate) fn new(calib: Calibration) -> Self {
        LlmEstimator {
            calib,
            hbm_gbs: 3350.0,
            weights_bf16: 16.0e9,
            weights_awq: 5.6e9,
            flop_per_seq: SimDuration::from_micros_f64(250.0),
        }
    }

    fn step_overhead(&self, backend: Backend, cc: CcMode) -> SimDuration {
        // Framework work per decode step + launch path. vLLM's CUDA
        // graphs collapse hundreds of per-layer launches into a few.
        let (host, launches) = match backend {
            Backend::HuggingFace => (SimDuration::from_micros_f64(9_000.0), 320u64),
            Backend::Vllm => (SimDuration::from_micros_f64(1_200.0), 12u64),
        };
        let lc = &self.calib.launch;
        let trap = match cc {
            CcMode::Off => self.calib.tdx.vmexit,
            CcMode::On => self.calib.tdx.hypercall(),
        };
        let launch = (lc.klo_base + trap.scale(lc.doorbell_trap_prob)) * launches;
        let host = match cc {
            CcMode::Off => host,
            // TD syscall/paging tax on the Python/serving host loop.
            CcMode::On => host.scale(1.35),
        };
        host + launch
    }

    fn weight_read(&self, precision: LlmPrecision) -> SimDuration {
        let (bytes, penalty) = match precision {
            LlmPrecision::Bf16 => (self.weights_bf16, 1.0),
            // Dequantization adds work per weight read.
            LlmPrecision::Awq => (self.weights_awq, 1.12),
        };
        SimDuration::from_secs_f64(bytes / (self.hbm_gbs * 1e9) * penalty)
    }

    fn compute_term(&self, precision: LlmPrecision, batch: u32) -> SimDuration {
        let factor = match precision {
            LlmPrecision::Bf16 => 1.0,
            // Int4 GEMMs dequantize on the fly: slower when compute-bound.
            LlmPrecision::Awq => 1.18,
        };
        self.flop_per_seq.scale(f64::from(batch) * factor)
    }

    /// Decode throughput (tokens/second) for a configuration.
    pub fn throughput(&self, cfg: LlmConfig) -> f64 {
        let step = self.step_overhead(cfg.backend, cfg.cc)
            + self
                .weight_read(cfg.precision)
                .max(self.compute_term(cfg.precision, cfg.batch));
        // Batching efficiency: HF pads static batches; vLLM packs them.
        let utilization = match cfg.backend {
            Backend::HuggingFace => 0.68,
            Backend::Vllm => 0.94,
        };
        f64::from(cfg.batch) * utilization / step.as_secs_f64()
    }

    /// Fig. 14's metric: throughput of a vLLM configuration normalized to
    /// the HF / BF16 / CC-off baseline at the same batch size.
    pub fn vllm_speedup(&self, precision: LlmPrecision, batch: u32, cc: CcMode) -> f64 {
        let baseline = self.throughput(LlmConfig {
            backend: Backend::HuggingFace,
            precision: LlmPrecision::Bf16,
            batch,
            cc: CcMode::Off,
        });
        let v = self.throughput(LlmConfig {
            backend: Backend::Vllm,
            precision,
            batch,
            cc,
        });
        v / baseline
    }
}

impl Default for LlmEstimator {
    fn default() -> Self {
        LlmEstimator::new(Calibration::paper())
    }
}

/// The batch sizes Fig. 14 sweeps.
pub const FIG14_BATCHES: [u32; 6] = [1, 4, 8, 16, 64, 128];

/// A single inference request (for end-to-end latency studies beyond the
/// paper's throughput grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Tokens to generate.
    pub gen_tokens: u32,
}

/// End-to-end latency estimate for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestLatency {
    /// Encrypted (or plain) prompt upload over PCIe.
    pub upload: SimDuration,
    /// Prefill (prompt processing, compute-bound).
    pub prefill: SimDuration,
    /// Decode (one step per generated token).
    pub decode: SimDuration,
}

impl RequestLatency {
    /// Total request latency.
    pub fn total(&self) -> SimDuration {
        self.upload + self.prefill + self.decode
    }

    /// Time to first token (upload + prefill + one decode step).
    pub fn ttft(&self, one_step: SimDuration) -> SimDuration {
        self.upload + self.prefill + one_step
    }
}

impl LlmEstimator {
    /// Per-prompt-token prefill compute (compute-bound, batch-friendly).
    fn prefill_per_token(&self, precision: LlmPrecision) -> SimDuration {
        let factor = match precision {
            LlmPrecision::Bf16 => 1.0,
            LlmPrecision::Awq => 1.10,
        };
        // Prefill processes tokens in parallel at high arithmetic
        // intensity: far cheaper per token than decode.
        SimDuration::from_micros_f64(18.0 * factor)
    }

    /// Effective prompt-upload rate for a mode: base PCIe staging vs the
    /// encrypted CC pipeline (the PipeLLM problem statement).
    fn upload_rate(&self, cc: CcMode) -> hcc_types::Bandwidth {
        let p = &self.calib.pcie;
        match cc {
            CcMode::Off => hcc_types::Bandwidth::serial_pipeline(&[p.host_staging, p.pinned_h2d]),
            CcMode::On => hcc_types::Bandwidth::serial_pipeline(&[
                hcc_types::Bandwidth::gb_per_s(hcc_types::calib::paper::AES_GCM_EMR_GBS),
                p.bounce_copy,
                p.pinned_h2d,
                p.gpu_crypto,
            ]),
        }
    }

    /// End-to-end latency of one request on an otherwise idle server
    /// (batch = 1 decode).
    pub fn request_latency(&self, cfg: LlmConfig, request: Request) -> RequestLatency {
        // Prompt payload: token ids + embeddings-side metadata (~6 B/token
        // on the wire; KV stays on-device).
        let prompt_bytes = hcc_types::ByteSize::bytes(u64::from(request.prompt_tokens) * 6 + 4096);
        let upload = self.upload_rate(cfg.cc).time_for(prompt_bytes)
            + match cfg.cc {
                CcMode::Off => SimDuration::from_micros_f64(20.0),
                // Bounce setup + DMA-map hypercalls on the prompt path.
                CcMode::On => SimDuration::from_micros_f64(60.0),
            };
        let prefill = self
            .prefill_per_token(cfg.precision)
            .scale(f64::from(request.prompt_tokens))
            + self.step_overhead(cfg.backend, cfg.cc);
        let step = self.step_overhead(cfg.backend, cfg.cc)
            + self
                .weight_read(cfg.precision)
                .max(self.compute_term(cfg.precision, 1));
        let decode = step * u64::from(request.gen_tokens);
        RequestLatency {
            upload,
            prefill,
            decode,
        }
    }
}

hcc_types::impl_to_json!(display: Backend, LlmPrecision);

hcc_types::impl_to_json!(LlmConfig {
    backend,
    precision,
    batch,
    cc
});
hcc_types::impl_to_json!(Request {
    prompt_tokens,
    gen_tokens
});
hcc_types::impl_to_json!(RequestLatency {
    upload,
    prefill,
    decode
});

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> LlmEstimator {
        LlmEstimator::default()
    }

    #[test]
    fn vllm_beats_hf_in_every_configuration() {
        let e = est();
        for batch in FIG14_BATCHES {
            for cc in CcMode::ALL {
                for precision in [LlmPrecision::Bf16, LlmPrecision::Awq] {
                    let s = e.vllm_speedup(precision, batch, cc);
                    assert!(s > 1.0, "vLLM {precision} b{batch} [{cc}]: {s}");
                }
            }
        }
    }

    #[test]
    fn cc_on_is_slower_than_cc_off() {
        let e = est();
        for batch in FIG14_BATCHES {
            for precision in [LlmPrecision::Bf16, LlmPrecision::Awq] {
                for backend in [Backend::HuggingFace, Backend::Vllm] {
                    let off = e.throughput(LlmConfig {
                        backend,
                        precision,
                        batch,
                        cc: CcMode::Off,
                    });
                    let on = e.throughput(LlmConfig {
                        backend,
                        precision,
                        batch,
                        cc: CcMode::On,
                    });
                    assert!(on < off, "{backend} {precision} b{batch}");
                }
            }
        }
    }

    #[test]
    fn awq_wins_small_batch_bf16_wins_large_batch() {
        let e = est();
        for cc in CcMode::ALL {
            let small_awq = e.throughput(LlmConfig {
                backend: Backend::Vllm,
                precision: LlmPrecision::Awq,
                batch: 4,
                cc,
            });
            let small_bf16 = e.throughput(LlmConfig {
                backend: Backend::Vllm,
                precision: LlmPrecision::Bf16,
                batch: 4,
                cc,
            });
            assert!(
                small_awq > small_bf16,
                "[{cc}] AWQ must win memory-bound decode"
            );
            for batch in [64, 128] {
                let large_awq = e.throughput(LlmConfig {
                    backend: Backend::Vllm,
                    precision: LlmPrecision::Awq,
                    batch,
                    cc,
                });
                let large_bf16 = e.throughput(LlmConfig {
                    backend: Backend::Vllm,
                    precision: LlmPrecision::Bf16,
                    batch,
                    cc,
                });
                assert!(
                    large_bf16 > large_awq,
                    "[{cc}] b{batch}: BF16 must win compute-bound"
                );
            }
        }
    }

    #[test]
    fn throughput_grows_with_batch() {
        let e = est();
        let mut last = 0.0;
        for batch in FIG14_BATCHES {
            let t = e.throughput(LlmConfig {
                backend: Backend::Vllm,
                precision: LlmPrecision::Bf16,
                batch,
                cc: CcMode::On,
            });
            assert!(t > last, "b{batch}: {t} <= {last}");
            last = t;
        }
    }

    #[test]
    fn cc_hurts_hf_more_than_vllm() {
        // vLLM's graph launches shrink the CC launch tax (Observation 9's
        // "remains robust with CC enabled").
        let e = est();
        let penalty = |backend| {
            let off = e.throughput(LlmConfig {
                backend,
                precision: LlmPrecision::Bf16,
                batch: 8,
                cc: CcMode::Off,
            });
            let on = e.throughput(LlmConfig {
                backend,
                precision: LlmPrecision::Bf16,
                batch: 8,
                cc: CcMode::On,
            });
            1.0 - on / off
        };
        assert!(penalty(Backend::HuggingFace) > penalty(Backend::Vllm));
    }

    #[test]
    fn request_latency_decomposes_and_cc_taxes_every_phase() {
        let e = est();
        let req = Request {
            prompt_tokens: 2048,
            gen_tokens: 128,
        };
        let lat = |cc| {
            e.request_latency(
                LlmConfig {
                    backend: Backend::Vllm,
                    precision: LlmPrecision::Bf16,
                    batch: 1,
                    cc,
                },
                req,
            )
        };
        let off = lat(CcMode::Off);
        let on = lat(CcMode::On);
        assert!(on.upload > off.upload, "encrypted prompt upload");
        assert!(on.prefill > off.prefill, "launch-taxed prefill");
        assert!(on.decode > off.decode, "launch-taxed decode");
        assert!(on.total() > off.total());
        // Decode dominates a 128-token generation.
        assert!(on.decode > on.prefill);
        // TTFT is below total and above upload+prefill.
        let step = on.decode / 128;
        assert!(on.ttft(step) < on.total());
        assert!(on.ttft(step) > on.upload + on.prefill);
    }

    #[test]
    fn long_prompts_amplify_the_cc_upload_tax() {
        let e = est();
        let tax = |prompt_tokens| {
            let req = Request {
                prompt_tokens,
                gen_tokens: 1,
            };
            let cfg = |cc| LlmConfig {
                backend: Backend::Vllm,
                precision: LlmPrecision::Bf16,
                batch: 1,
                cc,
            };
            let off = e.request_latency(cfg(CcMode::Off), req).upload;
            let on = e.request_latency(cfg(CcMode::On), req).upload;
            on.as_secs_f64() - off.as_secs_f64()
        };
        assert!(tax(32_768) > tax(128) * 2.0);
    }

    #[test]
    fn single_stream_throughput_in_sane_range() {
        // Llama-3-8B BF16 single-request decode on H100-class HW is a
        // couple hundred tokens/s.
        let t = est().throughput(LlmConfig {
            backend: Backend::Vllm,
            precision: LlmPrecision::Bf16,
            batch: 1,
            cc: CcMode::Off,
        });
        assert!((80.0..400.0).contains(&t), "tokens/s {t}");
    }
}
