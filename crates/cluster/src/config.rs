//! Uniform backend configuration.
//!
//! [`BackendConfig`] is one struct of optional knobs and the only way to
//! configure a backend: every backend's `configured(config)` folds it into
//! the config its [`BackendCore`](crate::round_loop::BackendCore) stores
//! ([`BackendConfig::merge`] — the one place a field is applied), so a
//! cross-cutting hook (the mode layer's [`OffsetModel`] is the motivating
//! case) is one field rather than a method per backend. Knobs a backend has
//! no use for (e.g. `recv_timeout` on the virtual backend, `auth_token` off
//! the TCP backends) are stored and never read — the config describes
//! intent, each backend reads the subset it implements, through the core's
//! defaulting accessors.
//!
//! Fault-injection hooks (`kill_workers`, `fail_worker_at`, …) are *not*
//! configuration — they mutate a running backend — and stay as methods.
//!
//! [`OffsetModel`]: crate::mode::OffsetModel

use crate::decode::DecodePool;
use crate::minibatch::Minibatch;
use crate::observer::SharedObserver;
use crate::policy::AggregationPolicy;
use crate::straggler::StragglerModel;
use std::sync::Arc;
use std::time::Duration;

/// One bundle of backend knobs; `None` keeps the backend's default.
///
/// Which backends consume which knob:
///
/// | knob | virtual | threaded | TCP (loopback + bound) |
/// |---|---|---|---|
/// | `straggler_model` | ✓ | ✓ | ✓ |
/// | `aggregation_policy` | ✓ | ✓ | ✓ |
/// | `observer` | ✓ | ✓ | ✓ |
/// | `decode_pool` | ✓ | ✓ | ✓ |
/// | `minibatch` | ✓ | ✓ | ✓ |
/// | `recv_timeout` | — | ✓ | ✓ |
/// | `heartbeat_timeout` | — | — | ✓ |
/// | `connect_timeout` | — | — | ✓ |
/// | `pipelining` | — | — | ✓ |
/// | `job` | — | — | ✓ (loopback workers hold the problem in-process and ignore it) |
/// | `auth_token` | — | — | ✓ (loopback workers echo whatever token their master expects) |
#[derive(Debug, Clone, Default)]
pub struct BackendConfig {
    /// Worker-latency model replacing the profile's default
    /// shift-exponential (see the [zoo](crate::straggler)).
    pub straggler_model: Option<Arc<dyn StragglerModel>>,
    /// Aggregation policy deciding round completion and the returned
    /// gradient.
    pub aggregation_policy: Option<Arc<dyn AggregationPolicy>>,
    /// Subscriber for the per-round [`RoundEvent`](crate::observer::RoundEvent)
    /// stream.
    pub observer: Option<SharedObserver>,
    /// Master decode/aggregate thread budget (unset: the serial fold).
    pub decode_pool: Option<DecodePool>,
    /// Per-round unit-subset sampler (minibatch rounds).
    pub minibatch: Option<Minibatch>,
    /// Master stall-detection timeout (real time).
    pub recv_timeout: Option<Duration>,
    /// Silence threshold (real time) before a TCP worker is declared dead.
    pub heartbeat_timeout: Option<Duration>,
    /// How long the TCP master waits for participants to register.
    pub connect_timeout: Option<Duration>,
    /// Pipelined fan-out (writer threads + speculative round t+1) on the
    /// networked masters.
    pub pipelining: Option<bool>,
    /// Job spec JSON the TCP master serves to self-building workers.
    pub job: Option<String>,
    /// Auth token TCP workers must echo in `Hello`.
    pub auth_token: Option<u64>,
}

impl BackendConfig {
    /// Empty config: every backend default kept.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `other` into `self`: every knob `other` sets replaces the
    /// stored one, every knob it leaves `None` keeps it. The struct literal
    /// makes a field added without a merge rule a compile error.
    pub fn merge(&mut self, other: Self) {
        *self = Self {
            straggler_model: other.straggler_model.or(self.straggler_model.take()),
            aggregation_policy: other.aggregation_policy.or(self.aggregation_policy.take()),
            observer: other.observer.or(self.observer.take()),
            decode_pool: other.decode_pool.or(self.decode_pool),
            minibatch: other.minibatch.or(self.minibatch),
            recv_timeout: other.recv_timeout.or(self.recv_timeout),
            heartbeat_timeout: other.heartbeat_timeout.or(self.heartbeat_timeout),
            connect_timeout: other.connect_timeout.or(self.connect_timeout),
            pipelining: other.pipelining.or(self.pipelining),
            job: other.job.or(self.job.take()),
            auth_token: other.auth_token.or(self.auth_token),
        };
    }

    /// Sets the worker-latency model.
    #[must_use]
    pub fn straggler_model(mut self, model: Arc<dyn StragglerModel>) -> Self {
        self.straggler_model = Some(model);
        self
    }

    /// Sets the aggregation policy.
    #[must_use]
    pub fn aggregation_policy(mut self, policy: Arc<dyn AggregationPolicy>) -> Self {
        self.aggregation_policy = Some(policy);
        self
    }

    /// Sets the round-event observer.
    #[must_use]
    pub fn observer(mut self, observer: SharedObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Sets the decode/aggregate thread budget.
    #[must_use]
    pub fn decode_pool(mut self, pool: DecodePool) -> Self {
        self.decode_pool = Some(pool);
        self
    }

    /// Sets the per-round minibatch sampler.
    #[must_use]
    pub fn minibatch(mut self, minibatch: Minibatch) -> Self {
        self.minibatch = Some(minibatch);
        self
    }

    /// Sets the master stall-detection timeout.
    #[must_use]
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = Some(timeout);
        self
    }

    /// Sets the worker-death silence threshold.
    #[must_use]
    pub fn heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.heartbeat_timeout = Some(timeout);
        self
    }

    /// Sets the participant-registration timeout.
    #[must_use]
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Toggles pipelined fan-out on the networked masters.
    #[must_use]
    pub fn pipelining(mut self, pipelined: bool) -> Self {
        self.pipelining = Some(pipelined);
        self
    }

    /// Sets the job spec served to self-building TCP workers.
    #[must_use]
    pub fn job(mut self, job: String) -> Self {
        self.job = Some(job);
        self
    }

    /// Sets the `Hello` auth token.
    #[must_use]
    pub fn auth_token(mut self, token: u64) -> Self {
        self.auth_token = Some(token);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WaitDecodable;
    use crate::straggler::ShiftedExpModel;

    #[test]
    fn default_config_sets_nothing() {
        let c = BackendConfig::new();
        assert!(c.straggler_model.is_none());
        assert!(c.aggregation_policy.is_none());
        assert!(c.observer.is_none());
        assert!(c.decode_pool.is_none());
        assert!(c.minibatch.is_none());
        assert!(c.recv_timeout.is_none());
        assert!(c.heartbeat_timeout.is_none());
        assert!(c.connect_timeout.is_none());
        assert!(c.pipelining.is_none());
        assert!(c.job.is_none());
        assert!(c.auth_token.is_none());
    }

    #[test]
    fn setters_fill_their_fields() {
        let c = BackendConfig::new()
            .straggler_model(Arc::new(ShiftedExpModel::homogeneous(2, 1.0, 0.0)))
            .aggregation_policy(Arc::new(WaitDecodable))
            .decode_pool(DecodePool::serial())
            .recv_timeout(Duration::from_secs(1))
            .heartbeat_timeout(Duration::from_secs(2))
            .connect_timeout(Duration::from_secs(3))
            .pipelining(false)
            .job("{}".to_string())
            .auth_token(42);
        assert!(c.straggler_model.is_some());
        assert!(c.aggregation_policy.is_some());
        assert!(c.decode_pool.is_some());
        assert_eq!(c.recv_timeout, Some(Duration::from_secs(1)));
        assert_eq!(c.heartbeat_timeout, Some(Duration::from_secs(2)));
        assert_eq!(c.connect_timeout, Some(Duration::from_secs(3)));
        assert_eq!(c.pipelining, Some(false));
        assert_eq!(c.job.as_deref(), Some("{}"));
        assert_eq!(c.auth_token, Some(42));
    }

    #[test]
    fn merge_overrides_set_knobs_and_keeps_the_rest() {
        let mut c = BackendConfig::new()
            .recv_timeout(Duration::from_secs(1))
            .pipelining(false)
            .job("a".to_string());
        c.merge(
            BackendConfig::new()
                .recv_timeout(Duration::from_secs(9))
                .auth_token(7),
        );
        assert_eq!(c.recv_timeout, Some(Duration::from_secs(9)), "overridden");
        assert_eq!(c.auth_token, Some(7), "newly set");
        assert_eq!(c.pipelining, Some(false), "kept");
        assert_eq!(c.job.as_deref(), Some("a"), "kept");
        assert!(c.straggler_model.is_none());
    }
}
