//! DMS failover: redial the current primary after a fence.
//!
//! With warm-standby replication (`loco-repl`), the DMS a client is
//! talking to can stop being the primary at any moment — it crashed
//! and a standby was promoted, or it got fenced by a higher epoch. The
//! transport surfaces both as [`RpcError::FencedEpoch`] (the server
//! answered but refused) or a connection-class failure (the server is
//! gone). [`FailoverDms`] wraps the DMS endpoint and, on either, re-
//! reads the cluster view (`LOCO_CLUSTER_FILE`, falling back to
//! `LOCO_CLUSTER`), probes every DMS replica with `ReplStatus`, and
//! redials whichever one claims `Primary` at the highest epoch.
//!
//! FMS/OST endpoints are untouched: the paper's design replicates only
//! the directory service here, and file/data servers shard rather than
//! replicate.

use crate::remote::ClusterAddrs;
use loco_dms::{DirServer, DmsRequest, DmsResponse};
use loco_net::tcp::{RetryPolicy, TcpEndpoint};
use loco_net::{CallCtx, Endpoint, EndpointMetrics, RpcError, ServerId};
use loco_repl::Role;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a fenced/unreachable client keeps hunting for a new
/// primary before surfacing the error. `LOCO_DMS_FAILOVER_MS`
/// overrides (the failover tests shrink it; chaos runs widen it).
fn failover_window() -> Duration {
    std::env::var("LOCO_DMS_FAILOVER_MS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(5))
}

/// Short single-attempt policy for `ReplStatus` probes: resolving a
/// primary must never inherit the data path's retry budget.
fn probe_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 1,
        backoff: Duration::from_millis(5),
        deadline: Duration::from_millis(300),
        connect_timeout: Duration::from_millis(300),
        reconnect_window: Duration::ZERO,
        ..RetryPolicy::default()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Current {
    addr: String,
    ep: Arc<TcpEndpoint<DirServer>>,
}

/// A DMS endpoint that follows the primary across failovers.
pub struct FailoverDms {
    id: ServerId,
    metrics: Option<Arc<EndpointMetrics>>,
    current: Mutex<Current>,
}

impl FailoverDms {
    /// Wrap a DMS address; `metrics`, when given, ride every redial.
    pub fn new(id: ServerId, addr: &str, metrics: Option<Arc<EndpointMetrics>>) -> Self {
        Self {
            id,
            metrics: metrics.clone(),
            current: Mutex::new(Current {
                addr: addr.to_string(),
                ep: Arc::new(Self::dial(id, addr, metrics)),
            }),
        }
    }

    fn dial(
        id: ServerId,
        addr: &str,
        metrics: Option<Arc<EndpointMetrics>>,
    ) -> TcpEndpoint<DirServer> {
        let ep = TcpEndpoint::<DirServer>::connect(id, addr);
        match metrics {
            Some(m) => ep.with_metrics(m),
            None => ep,
        }
    }

    /// The address currently believed to be the primary.
    pub fn current_addr(&self) -> String {
        lock(&self.current).addr.clone()
    }

    /// Every DMS replica address from the (re-read) cluster view, the
    /// current address included so a flapping view never strands us.
    fn candidates(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(view) = ClusterAddrs::from_env() {
            out.extend(view.dms);
            out.extend(view.dms_standby);
        }
        let cur = self.current_addr();
        if !out.contains(&cur) {
            out.push(cur);
        }
        out
    }

    /// Probe every candidate with `ReplStatus`; adopt the `Primary`
    /// claim with the highest epoch. Returns the endpoint to retry on.
    fn resolve_primary(&self) -> Option<Arc<TcpEndpoint<DirServer>>> {
        let mut best: Option<(u64, String)> = None;
        for addr in self.candidates() {
            let probe = TcpEndpoint::<DirServer>::with_policy(self.id, &addr, probe_policy());
            let mut ctx = CallCtx::new();
            if let Ok(DmsResponse::Repl(info)) = probe.try_call(&mut ctx, DmsRequest::ReplStatus {})
            {
                if info.role == Role::Primary.as_u8()
                    && best.as_ref().is_none_or(|(e, _)| info.epoch > *e)
                {
                    best = Some((info.epoch, addr));
                }
            }
        }
        let (epoch, addr) = best?;
        let mut cur = lock(&self.current);
        if cur.addr != addr {
            loco_log::info!("client.failover", "dms primary moved; redialing";
                addr = addr.clone(), epoch = epoch);
            cur.addr = addr.clone();
            cur.ep = Arc::new(Self::dial(self.id, &addr, self.metrics.clone()));
        }
        Some(Arc::clone(&cur.ep))
    }

    fn failover_worthy(e: &RpcError) -> bool {
        match e {
            RpcError::FencedEpoch { .. }
            | RpcError::Connect(_)
            | RpcError::ConnectionLost(_)
            | RpcError::Timeout { .. } => true,
            RpcError::Exhausted { last, .. } => Self::failover_worthy(last),
            // The breaker only opens after repeated exhaustion against one
            // address — exactly when hunting for a new primary pays off.
            RpcError::CircuitOpen { .. } => true,
            RpcError::MaybeApplied { last, .. } => Self::failover_worthy(last),
            // Overloaded/Expired mean the server is alive and answering;
            // redialing another address would just spread the load spike.
            RpcError::Overloaded | RpcError::Expired => false,
            RpcError::Decode(_) => false,
            // No address can take a request no frame can carry.
            RpcError::TooLarge { .. } => false,
        }
    }
}

impl Endpoint<DmsRequest, DmsResponse> for FailoverDms {
    fn call(&self, ctx: &mut CallCtx, req: DmsRequest) -> DmsResponse {
        match self.try_call(ctx, req) {
            Ok(resp) => resp,
            Err(e) => panic!("dms rpc failed after failover hunt: {e}"),
        }
    }

    fn id(&self) -> ServerId {
        self.id
    }

    fn try_call(&self, ctx: &mut CallCtx, req: DmsRequest) -> Result<DmsResponse, RpcError> {
        let ep = Arc::clone(&lock(&self.current).ep);
        let mut last = match ep.try_call(ctx, req.clone()) {
            Ok(resp) => return Ok(resp),
            Err(e) => e,
        };
        let window = failover_window();
        let start = Instant::now();
        while Self::failover_worthy(&last) && start.elapsed() < window {
            if let Some(ep) = self.resolve_primary() {
                match ep.try_call(ctx, req.clone()) {
                    Ok(resp) => return Ok(resp),
                    Err(e) => last = e,
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        Err(last)
    }
}
