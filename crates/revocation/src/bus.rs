//! The revocation bus: fanning push notifications into warm caches.
//!
//! The [`RevocationBus`] trait lives in `snowflake-core`, beside the
//! `RevocableMap` most warm caches are built on, and each cache implements
//! it in its own crate; this module adds the buses that compose them.

use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::Time;
use snowflake_crypto::HashVal;
use std::sync::Arc;

pub use snowflake_core::RevocationBus;

/// A bus broadcasting to several others (useful when one subscription
/// must reach caches owned by different subsystems).
pub struct FanoutBus(pub Vec<Arc<dyn RevocationBus>>);

impl RevocationBus for FanoutBus {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        self.0
            .iter()
            .map(|b| b.certificate_revoked(cert_hash))
            .sum()
    }
}

/// A bus that makes revocations first-class audit events: every push it
/// forwards is recorded as a [`Decision::Revoke`] naming the dead
/// certificate and how many warm-cache entries died with it, *after* the
/// inner bus has evicted them (the audit record describes completed
/// invalidation, not intent).
pub struct AuditedBus {
    inner: Arc<dyn RevocationBus>,
    emitter: Arc<dyn AuditEmitter>,
    clock: fn() -> Time,
}

impl AuditedBus {
    /// Wraps `inner`, reporting through `emitter` with wall-clock time.
    pub fn new(inner: Arc<dyn RevocationBus>, emitter: Arc<dyn AuditEmitter>) -> AuditedBus {
        Self::with_clock(inner, emitter, Time::now)
    }

    /// Wraps with an injected clock (tests, benches).
    pub fn with_clock(
        inner: Arc<dyn RevocationBus>,
        emitter: Arc<dyn AuditEmitter>,
        clock: fn() -> Time,
    ) -> AuditedBus {
        AuditedBus {
            inner,
            emitter,
            clock,
        }
    }
}

impl RevocationBus for AuditedBus {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        let evicted = self.inner.certificate_revoked(cert_hash);
        self.emitter.emit(
            DecisionEvent::new(
                (self.clock)(),
                "revocation",
                Decision::Revoke,
                &format!("cert:{}", cert_hash.short_hex()),
                "invalidate",
                &format!("evicted {evicted} warm-cache entries"),
            )
            .with_certs(vec![cert_hash.clone()]),
        );
        evicted
    }
}
