//! Admission control: per-client fairness via token buckets.
//!
//! The bounded queue's blanket `Busy` protects the server but not the
//! *other clients* — one aggressive peer can keep the queue full and
//! starve everyone. Admission control runs before the queue: each peer
//! (keyed by IP address) gets a token bucket refilled at a configured
//! rate; a request that finds the peer's bucket empty is rejected with a
//! structured [`Throttled`](crate::protocol::Response::Throttled)
//! response carrying *retry-after* — the client knows exactly when the
//! bucket will hold a token again instead of blind exponential backoff.
//!
//! Disabled by default ([`AdmissionConfig::rate_per_sec`] = `None`):
//! existing deployments, tests, and benches see no behavior change until
//! they opt in with `--admission-rps`.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Mutex;
use std::time::Instant;

/// Token-bucket parameters. `Default` disables admission control.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionConfig {
    /// Sustained per-peer request rate (tokens per second); `None`
    /// disables admission control entirely.
    pub rate_per_sec: Option<f64>,
    /// Bucket capacity (burst size). `None` defaults to one second's
    /// worth of tokens, minimum 1.
    pub burst: Option<f64>,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

/// Decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Under budget — let it through.
    Admit,
    /// Over budget — reject, and tell the peer when to come back.
    Throttle {
        /// Milliseconds until the peer's bucket holds a whole token.
        retry_after_ms: u32,
    },
}

/// Per-peer token buckets. The server counts each throttled request in
/// its `requests_throttled` metric.
#[derive(Debug)]
pub struct AdmissionControl {
    rate: f64,
    burst: f64,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

impl AdmissionControl {
    /// Builds the control from a config; returns `None` when the config
    /// leaves admission disabled (no rate, or a non-positive one).
    pub fn from_config(config: AdmissionConfig) -> Option<AdmissionControl> {
        let rate = config.rate_per_sec.filter(|r| *r > 0.0)?;
        let burst = config.burst.filter(|b| *b > 0.0).unwrap_or(rate).max(1.0);
        Some(AdmissionControl {
            rate,
            burst,
            buckets: Mutex::new(HashMap::new()),
        })
    }

    /// Charges one token to `peer`'s bucket at time `now`.
    ///
    /// Taking `now` as a parameter keeps the arithmetic deterministic in
    /// tests; the server passes `Instant::now()`.
    pub fn admit(&self, peer: IpAddr, now: Instant) -> Admission {
        let mut buckets = self.buckets.lock().expect("admission buckets poisoned");
        let bucket = buckets.entry(peer).or_insert(Bucket {
            tokens: self.burst,
            refilled: now,
        });
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rate).min(self.burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            return Admission::Admit;
        }
        let deficit = 1.0 - bucket.tokens;
        let retry_after_ms = ((deficit / self.rate) * 1000.0).ceil().min(60_000.0) as u32;
        Admission::Throttle {
            retry_after_ms: retry_after_ms.max(1),
        }
    }

    /// Sustained per-peer rate this control enforces.
    pub fn rate_per_sec(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use std::time::Duration;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(127, 0, 0, last))
    }

    #[test]
    fn disabled_configs_build_nothing() {
        assert!(AdmissionControl::from_config(AdmissionConfig::default()).is_none());
        assert!(AdmissionControl::from_config(AdmissionConfig {
            rate_per_sec: Some(0.0),
            burst: None,
        })
        .is_none());
    }

    #[test]
    fn burst_admits_then_throttles_with_retry_after() {
        let ctl = AdmissionControl::from_config(AdmissionConfig {
            rate_per_sec: Some(10.0),
            burst: Some(3.0),
        })
        .expect("enabled");
        let t0 = Instant::now();
        for _ in 0..3 {
            assert_eq!(ctl.admit(ip(1), t0), Admission::Admit);
        }
        let Admission::Throttle { retry_after_ms } = ctl.admit(ip(1), t0) else {
            panic!("4th request within the burst must throttle");
        };
        // Bucket is empty; one token refills in 1/10 s.
        assert!(
            (1..=100).contains(&retry_after_ms),
            "retry_after_ms = {retry_after_ms}"
        );
    }

    #[test]
    fn tokens_refill_over_time() {
        let ctl = AdmissionControl::from_config(AdmissionConfig {
            rate_per_sec: Some(10.0),
            burst: Some(1.0),
        })
        .expect("enabled");
        let t0 = Instant::now();
        assert_eq!(ctl.admit(ip(1), t0), Admission::Admit);
        assert!(matches!(ctl.admit(ip(1), t0), Admission::Throttle { .. }));
        // 100 ms at 10 tokens/s refills exactly one token.
        let t1 = t0 + Duration::from_millis(100);
        assert_eq!(ctl.admit(ip(1), t1), Admission::Admit);
    }

    #[test]
    fn peers_have_independent_buckets() {
        let ctl = AdmissionControl::from_config(AdmissionConfig {
            rate_per_sec: Some(5.0),
            burst: Some(1.0),
        })
        .expect("enabled");
        let t0 = Instant::now();
        assert_eq!(ctl.admit(ip(1), t0), Admission::Admit);
        assert!(matches!(ctl.admit(ip(1), t0), Admission::Throttle { .. }));
        // A different peer is unaffected by peer 1's exhaustion.
        assert_eq!(ctl.admit(ip(2), t0), Admission::Admit);
    }
}
