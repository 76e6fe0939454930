//! SPDM session establishment (paper Sec. III): before any CC work, the
//! TD attests the GPU over PCIe using Security Protocols and Data Models
//! messages, derives the AES-GCM session keys for the transfer channel,
//! and switches the device into CC mode.
//!
//! This is a one-time cost at context creation — it never shows up in the
//! steady-state figures, which is why the paper can ignore it — but a
//! runtime that models cold starts (e.g. serverless confidential
//! inference) needs it. The message sequence and state machine follow the
//! DMTF SPDM 1.2 flow NVIDIA's driver uses (GET_VERSION → ... →
//! KEY_EXCHANGE → FINISH).

use hcc_types::{CcMode, SimDuration};

use crate::td::TdContext;

/// The SPDM message exchanges in protocol order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpdmStep {
    /// GET_VERSION / VERSION.
    GetVersion,
    /// GET_CAPABILITIES / CAPABILITIES.
    GetCapabilities,
    /// NEGOTIATE_ALGORITHMS / ALGORITHMS.
    NegotiateAlgorithms,
    /// GET_DIGESTS + GET_CERTIFICATE chain retrieval.
    GetCertificate,
    /// CHALLENGE / CHALLENGE_AUTH (device signs a nonce).
    Challenge,
    /// GET_MEASUREMENTS (firmware/VBIOS measurements for the verifier).
    GetMeasurements,
    /// KEY_EXCHANGE / KEY_EXCHANGE_RSP (ECDHE, session secrets).
    KeyExchange,
    /// FINISH / FINISH_RSP (session activation).
    Finish,
}

impl SpdmStep {
    /// Protocol order.
    pub const SEQUENCE: [SpdmStep; 8] = [
        SpdmStep::GetVersion,
        SpdmStep::GetCapabilities,
        SpdmStep::NegotiateAlgorithms,
        SpdmStep::GetCertificate,
        SpdmStep::Challenge,
        SpdmStep::GetMeasurements,
        SpdmStep::KeyExchange,
        SpdmStep::Finish,
    ];

    /// Round-trip cost of this exchange: PCIe MMIO transport plus the
    /// device-side work (certificate chains and signatures dominate).
    pub(crate) fn cost(self) -> SimDuration {
        let us = match self {
            SpdmStep::GetVersion => 40.0,
            SpdmStep::GetCapabilities => 45.0,
            SpdmStep::NegotiateAlgorithms => 60.0,
            // ~4 KiB certificate chain over the slow admin channel.
            SpdmStep::GetCertificate => 900.0,
            // ECDSA sign on the device security processor.
            SpdmStep::Challenge => 2_400.0,
            SpdmStep::GetMeasurements => 1_100.0,
            // ECDHE + key schedule on both ends.
            SpdmStep::KeyExchange => 3_200.0,
            SpdmStep::Finish => 500.0,
        };
        SimDuration::from_micros_f64(us)
    }
}

/// State of an attested session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// No attestation performed.
    NotStarted,
    /// Handshake completed; transfer keys derived.
    Established,
}

/// Outcome of establishing an SPDM session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpdmSession {
    /// Final state.
    pub state: SessionState,
    /// Total virtual time the handshake took.
    pub total_time: SimDuration,
    /// Per-step costs in protocol order (for cold-start breakdowns).
    pub steps: Vec<(SpdmStep, SimDuration)>,
}

impl SpdmSession {
    /// Runs the full handshake inside `td`, charging each exchange plus
    /// the guest↔host transitions it triggers (every SPDM message is an
    /// MMIO doorbell that exits the guest).
    ///
    /// In `CcMode::Off` no session is needed: returns immediately with
    /// zero cost and `NotStarted`.
    pub fn establish(td: &mut TdContext) -> SpdmSession {
        if td.cc_mode() == CcMode::Off {
            return SpdmSession {
                state: SessionState::NotStarted,
                total_time: SimDuration::ZERO,
                steps: Vec::new(),
            };
        }
        let mut steps = Vec::with_capacity(SpdmStep::SEQUENCE.len());
        let mut total = SimDuration::ZERO;
        for step in SpdmStep::SEQUENCE {
            // Request and response each cross the guest boundary.
            let transitions = td.hypercall("spdm_req") + td.hypercall("spdm_rsp");
            let cost = step.cost() + transitions;
            steps.push((step, cost));
            total += cost;
        }
        SpdmSession {
            state: SessionState::Established,
            total_time: total,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::calib::TdxCalib;

    #[test]
    fn handshake_runs_all_steps_in_order() {
        let mut td = TdContext::new(CcMode::On, TdxCalib::default());
        let s = SpdmSession::establish(&mut td);
        assert_eq!(s.state, SessionState::Established);
        assert_eq!(s.steps.len(), 8);
        let order: Vec<SpdmStep> = s.steps.iter().map(|(st, _)| *st).collect();
        assert_eq!(order, SpdmStep::SEQUENCE.to_vec());
        // 16 guest transitions were charged.
        assert_eq!(td.counters().hypercalls, 16);
    }

    #[test]
    fn handshake_cost_is_cold_start_scale() {
        let mut td = TdContext::new(CcMode::On, TdxCalib::default());
        let s = SpdmSession::establish(&mut td);
        // Single-digit milliseconds: real H100 CC session setup scale —
        // large next to a kernel launch, invisible across a long run.
        let ms = s.total_time.as_millis_f64();
        assert!((5.0..20.0).contains(&ms), "handshake {ms} ms");
        // Key exchange dominates.
        let kx = s
            .steps
            .iter()
            .find(|(st, _)| *st == SpdmStep::KeyExchange)
            .expect("key exchange present");
        assert!(kx.1 > s.total_time / 8);
    }

    #[test]
    fn no_session_without_cc() {
        let mut vm = TdContext::new(CcMode::Off, TdxCalib::default());
        let s = SpdmSession::establish(&mut vm);
        assert_ne!(s.state, SessionState::Established);
        assert!(s.total_time.is_zero());
        assert_eq!(vm.counters().hypercalls, 0);
    }
}
