//! Network latency and bandwidth model.
//!
//! Message delay between two simulated endpoints is the sum of:
//!
//! - a **propagation delay** determined by the AS pair (intra-AS links are
//!   fast; inter-AS paths follow a log-normal around ~80 ms, consistent with
//!   the Internet latency distribution whose stability the paper leans on);
//! - a **transmission delay** proportional to message size;
//! - small per-message jitter.
//!
//! Pairwise base delays are derived deterministically from the AS numbers,
//! so the same scenario seed always yields the same topology of delays.
//!
//! A link's base delay is derived once per AS pair, not once per message:
//! [`LatencyModel::base_delay`] is a pure function of the unordered pair (a
//! SipHash, an inverse normal CDF and an `exp`), so the model keeps the
//! [`SimDuration`] the formula returned in an interior memo and every later
//! message on that pair reads it back — the same value to the nanosecond,
//! so event times do not move. The memo grows to the distinct AS pairs
//! that ever exchanged a message or a dial, at most one per pair of nodes.

use bitsync_crypto::siphash24;
use bitsync_protocol::hash::IdMap;
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::SimDuration;
use std::cell::RefCell;

/// Latency/bandwidth parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyConfig {
    /// Mean one-way delay within a single AS.
    pub intra_as_mean_ms: f64,
    /// Median one-way delay between distinct ASes.
    pub inter_as_median_ms: f64,
    /// Log-normal sigma for inter-AS path spread.
    pub inter_as_sigma: f64,
    /// Per-message jitter bound (uniform, added on top).
    pub jitter_ms: f64,
    /// Link throughput used for transmission delay, bytes/second.
    pub bandwidth_bytes_per_sec: f64,
    /// TCP connect timeout (a failed SYN burns this long — the cost that
    /// makes unreachable addrman entries expensive, §IV-B).
    pub connect_timeout: SimDuration,
}

impl LatencyConfig {
    /// Defaults representative of the public Internet circa 2020.
    pub fn internet_2020() -> Self {
        LatencyConfig {
            intra_as_mean_ms: 15.0,
            inter_as_median_ms: 80.0,
            inter_as_sigma: 0.45,
            jitter_ms: 5.0,
            bandwidth_bytes_per_sec: 2_000_000.0, // ~16 Mbit/s effective
            connect_timeout: SimDuration::from_secs(5),
        }
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self::internet_2020()
    }
}

/// Deterministic pairwise latency model.
///
/// # Examples
///
/// ```
/// use bitsync_net::latency::{LatencyConfig, LatencyModel};
/// use bitsync_sim::rng::SimRng;
/// use bitsync_sim::time::SimDuration;
///
/// let model = LatencyModel::new(LatencyConfig::internet_2020(), 99);
/// let mut rng = SimRng::seed_from(1);
/// let d = model.message_delay(3320, 24940, 300, &mut rng);
/// assert!(d >= SimDuration::from_millis(1));
/// ```
#[derive(Clone, Debug)]
pub struct LatencyModel {
    cfg: LatencyConfig,
    /// Seed mixing key so different scenarios get different pairwise bases.
    seed: u64,
    /// Inter-AS base delays derived so far, by ordered `(low, high)` pair.
    /// Interior because reading a delay is logically `&self`.
    base_delays: RefCell<IdMap<(u32, u32), SimDuration>>,
}

impl LatencyModel {
    /// Creates a model; `seed` fixes the pairwise base-delay draw.
    pub fn new(cfg: LatencyConfig, seed: u64) -> Self {
        LatencyModel {
            cfg,
            seed,
            base_delays: RefCell::default(),
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &LatencyConfig {
        &self.cfg
    }

    /// The deterministic base one-way propagation delay between two ASes.
    pub fn base_delay(&self, from_asn: u32, to_asn: u32) -> SimDuration {
        if from_asn == to_asn {
            return SimDuration::from_secs_f64(self.cfg.intra_as_mean_ms / 1_000.0);
        }
        let pair = (from_asn.min(to_asn), from_asn.max(to_asn));
        *self
            .base_delays
            .borrow_mut()
            .entry(pair)
            .or_insert_with(|| self.inter_as_delay(pair))
    }

    /// The base-delay formula for `(low, high)`, a pair of distinct ASes.
    fn inter_as_delay(&self, (a, b): (u32, u32)) -> SimDuration {
        // Symmetric deterministic hash of the unordered AS pair.
        let mut pair = [0u8; 8];
        pair[..4].copy_from_slice(&a.to_le_bytes());
        pair[4..].copy_from_slice(&b.to_le_bytes());
        let h = siphash24(self.seed, self.seed ^ 0x517c_c1b7_2722_0a95, &pair);
        // Map the hash to a log-normal quantile via an approximate inverse
        // normal CDF on a uniform in (0,1).
        let u = ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let z = inverse_normal_cdf(u);
        let ms = self.cfg.inter_as_median_ms * (self.cfg.inter_as_sigma * z).exp();
        SimDuration::from_secs_f64(ms.clamp(1.0, 2_000.0) / 1_000.0)
    }

    /// Full one-way delay for a message of `bytes` between two ASes,
    /// including transmission time and jitter.
    pub fn message_delay(
        &self,
        from_asn: u32,
        to_asn: u32,
        bytes: usize,
        rng: &mut SimRng,
    ) -> SimDuration {
        let base = self.base_delay(from_asn, to_asn);
        let tx = SimDuration::from_secs_f64(bytes as f64 / self.cfg.bandwidth_bytes_per_sec);
        let jitter = SimDuration::from_secs_f64(rng.range_f64(0.0, self.cfg.jitter_ms) / 1_000.0);
        base + tx + jitter
    }

    /// Round-trip time of a TCP handshake between two ASes (≈ 1.5 RTT).
    pub fn handshake_delay(&self, from_asn: u32, to_asn: u32, rng: &mut SimRng) -> SimDuration {
        let one_way = self.message_delay(from_asn, to_asn, 60, rng);
        one_way.saturating_mul(3)
    }

    /// The connect timeout for failed attempts.
    pub fn connect_timeout(&self) -> SimDuration {
        self.cfg.connect_timeout
    }
}

/// Acklam-style rational approximation of the standard normal inverse CDF,
/// accurate to ~1e-9 over (0, 1) — ample for latency synthesis.
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LatencyModel {
        LatencyModel::new(LatencyConfig::internet_2020(), 123)
    }

    #[test]
    fn intra_as_is_fast() {
        let m = model();
        assert_eq!(m.base_delay(3320, 3320), SimDuration::from_secs_f64(0.015));
    }

    #[test]
    fn base_delay_symmetric_and_deterministic() {
        let m = model();
        assert_eq!(m.base_delay(1, 2), m.base_delay(2, 1));
        assert_eq!(m.base_delay(100, 7), model().base_delay(100, 7));
    }

    #[test]
    fn base_delay_is_derived_once_per_unordered_pair() {
        let m = model();
        let first = m.base_delay(3320, 24940);
        assert_eq!(m.base_delays.borrow().len(), 1);
        // Read back, in either direction, to the nanosecond — and the same
        // as a model that has never seen the pair derives.
        assert_eq!(m.base_delay(3320, 24940), first);
        assert_eq!(m.base_delay(24940, 3320), first);
        assert_eq!(model().base_delay(24940, 3320), first);
        assert_eq!(first, m.inter_as_delay((3320, 24940)));
        assert_eq!(m.base_delays.borrow().len(), 1);
        // Intra-AS delay is a constant: nothing to remember.
        m.base_delay(3320, 3320);
        assert_eq!(m.base_delays.borrow().len(), 1);
        m.base_delay(3320, 7018);
        assert_eq!(m.base_delays.borrow().len(), 2);
    }

    #[test]
    fn different_seeds_differ() {
        let a = LatencyModel::new(LatencyConfig::internet_2020(), 1);
        let b = LatencyModel::new(LatencyConfig::internet_2020(), 2);
        let differs = (0..20).any(|i| a.base_delay(i, i + 1000) != b.base_delay(i, i + 1000));
        assert!(differs);
    }

    #[test]
    fn inter_as_median_close_to_config() {
        let m = model();
        let mut delays: Vec<f64> = (0..4000u32)
            .map(|i| m.base_delay(i, i + 50_000).as_secs_f64() * 1_000.0)
            .collect();
        delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = delays[delays.len() / 2];
        assert!((median - 80.0).abs() < 8.0, "median {median}");
    }

    #[test]
    fn transmission_delay_scales_with_size() {
        let m = model();
        let mut rng = SimRng::seed_from(1);
        let small = m.message_delay(1, 1, 100, &mut rng);
        let big = m.message_delay(1, 1, 2_000_000, &mut rng);
        assert!(big.as_secs_f64() > small.as_secs_f64() + 0.9);
    }

    #[test]
    fn handshake_is_about_three_one_way_trips() {
        let m = model();
        let mut rng = SimRng::seed_from(2);
        let hs = m.handshake_delay(1, 2, &mut rng);
        let base = m.base_delay(1, 2);
        assert!(hs.as_secs_f64() >= 3.0 * base.as_secs_f64());
        assert!(hs.as_secs_f64() < 3.0 * base.as_secs_f64() + 0.1);
    }

    #[test]
    fn inverse_normal_cdf_sane() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-8);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!(inverse_normal_cdf(1e-6) < -4.0);
    }

    #[test]
    fn delays_are_bounded() {
        let m = model();
        for i in 0..2000u32 {
            let d = m.base_delay(i, 99_999_999);
            let ms = d.as_secs_f64() * 1000.0;
            assert!((1.0..=2000.0).contains(&ms), "delay {ms} ms");
        }
    }
}
