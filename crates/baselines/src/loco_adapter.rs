//! [`DistFs`] adapter over the real LocoFS client, so the workload
//! driver can run LocoFS and the baseline models interchangeably.

use crate::fs_trait::DistFs;
use loco_client::{FileHandle, LocoClient, LocoCluster, LocoConfig, Transport, TransportCluster};
use loco_net::{JobTrace, Nanos};
use loco_types::{FsResult, Perm};

/// LocoFS behind the common benchmark interface. Owns its cluster; use
/// [`LocoAdapter::from_cluster`] to share one cluster across clients.
pub struct LocoAdapter {
    client: LocoClient,
    label: String,
    // Keeps in-process TCP servers alive (dropping the
    // TransportCluster shuts them down).
    _cluster: Option<TransportCluster>,
}

fn base_label(config: &LocoConfig) -> &'static str {
    if config.cache_enabled {
        "LocoFS-C"
    } else {
        "LocoFS-NC"
    }
}

impl LocoAdapter {
    /// Build a fresh single-client cluster from `config`.
    pub fn new(config: LocoConfig) -> Self {
        let label = base_label(&config);
        let cluster = LocoCluster::new(config);
        Self {
            client: cluster.client(),
            label: label.to_string(),
            _cluster: None,
        }
    }

    /// Build a cluster over an explicit [`Transport`]. For
    /// [`Transport::Sim`] this is identical to [`LocoAdapter::new`];
    /// [`Transport::Tcp`] runs the same servers behind TCP sockets
    /// while the benchmark interface stays unchanged.
    pub fn with_transport(config: LocoConfig, transport: Transport) -> Self {
        let label = base_label(&config);
        let cluster = TransportCluster::new(config, transport);
        Self {
            client: cluster.client(),
            label: label.to_string(),
            _cluster: Some(cluster),
        }
    }

    /// Wrap a client of an existing (shared) cluster.
    pub fn from_cluster(cluster: &LocoCluster) -> Self {
        let label = if cluster.config.cache_enabled {
            "LocoFS-C"
        } else {
            "LocoFS-NC"
        };
        Self {
            client: cluster.client(),
            label: label.to_string(),
            _cluster: None,
        }
    }

    /// Borrow the underlying client.
    pub fn client_mut(&mut self) -> &mut LocoClient {
        &mut self.client
    }
}

impl DistFs for LocoAdapter {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn rtt(&self) -> Nanos {
        self.client.rtt()
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        self.client.mkdir(path, 0o755)
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.client.rmdir(path)
    }

    fn create(&mut self, path: &str) -> FsResult<()> {
        self.client.create(path, 0o644).map(|_| ())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.client.unlink(path)
    }

    fn stat_file(&mut self, path: &str) -> FsResult<()> {
        self.client.stat_file(path).map(|_| ())
    }

    fn stat_dir(&mut self, path: &str) -> FsResult<()> {
        self.client.stat_dir(path).map(|_| ())
    }

    fn readdir(&mut self, path: &str) -> FsResult<usize> {
        self.client.readdir(path).map(|v| v.len())
    }

    fn chmod_file(&mut self, path: &str, mode: u32) -> FsResult<()> {
        self.client.chmod_file(path, mode)
    }

    fn chown_file(&mut self, path: &str, uid: u32, gid: u32) -> FsResult<()> {
        self.client.chown_file(path, uid, gid)
    }

    fn truncate_file(&mut self, path: &str, size: u64) -> FsResult<()> {
        self.client.truncate_file(path, size)
    }

    fn access_file(&mut self, path: &str) -> FsResult<bool> {
        self.client.access_file(path, Perm::Read)
    }

    fn rename_file(&mut self, old: &str, new: &str) -> FsResult<()> {
        self.client.rename_file(old, new)
    }

    fn rename_dir(&mut self, old: &str, new: &str) -> FsResult<()> {
        self.client.rename_dir(old, new).map(|_| ())
    }

    fn write_file(&mut self, path: &str, data: &[u8]) -> FsResult<()> {
        // create-or-open + write: the paper's full-system workload does
        // create/write/close per file. The trace of the *write* is what
        // the caller reads after this returns; the open/create trace is
        // folded in by summing visits client-side.
        let mut h: FileHandle = match self.client.open(path, Perm::Write) {
            Ok(h) => h,
            Err(loco_types::FsError::NotFound) => self.client.create(path, 0o644)?,
            Err(e) => return Err(e),
        };
        let open_trace = self.client.take_trace();
        self.client.write(&mut h, 0, data)?;
        let mut write_trace = self.client.take_trace();
        let mut visits = open_trace.visits;
        visits.append(&mut write_trace.visits);
        self.client.set_last_trace(JobTrace {
            visits,
            client_work: open_trace.client_work + write_trace.client_work,
        });
        Ok(())
    }

    fn read_file(&mut self, path: &str) -> FsResult<Vec<u8>> {
        let h = self.client.open(path, Perm::Read)?;
        let open_trace = self.client.take_trace();
        let data = self.client.read(&h, 0, h.size)?;
        let mut read_trace = self.client.take_trace();
        let mut visits = open_trace.visits;
        visits.append(&mut read_trace.visits);
        self.client.set_last_trace(JobTrace {
            visits,
            client_work: open_trace.client_work + read_trace.client_work,
        });
        Ok(data)
    }

    fn take_trace(&mut self) -> JobTrace {
        self.client.take_trace()
    }

    fn advance_clock(&mut self, delta: Nanos) {
        self.client.advance_clock(delta);
    }

    fn set_rtt(&mut self, rtt: Nanos) {
        self.client.set_rtt(rtt);
    }

    fn drop_caches(&mut self) {
        self.client.drop_caches();
    }

    fn metrics_text(&mut self) -> Option<String> {
        Some(self.client.registry().render_prometheus())
    }

    fn slow_ops_json(&mut self) -> Option<String> {
        if self.client.tracer().mode() == loco_client::TraceMode::Off {
            return None;
        }
        Some(self.client.flight_recorder().dump_json())
    }

    fn folded_stacks(&mut self) -> Option<String> {
        if self.client.tracer().mode() != loco_client::TraceMode::Off {
            // Fold the recorded span trees: the recent ring (complete
            // under LOCO_TRACE=all) when present, the slowest rings
            // otherwise.
            let flight = self.client.flight_recorder();
            let mut records = flight.recent();
            if records.is_empty() {
                records = flight.slowest();
            }
            if !records.is_empty() {
                return Some(loco_obs::render_folded(&loco_obs::fold_records(&records)));
            }
        }
        // Tracing off (or nothing sampled): the always-on server-side
        // service/kv counters still yield per-role stacks.
        let snap = self.client.registry().snapshot();
        Some(loco_obs::render_folded(&loco_obs::fold_snapshot(&snap)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapter_lifecycle_through_trait() {
        let mut fs: Box<dyn DistFs> = Box::new(LocoAdapter::new(LocoConfig::with_servers(4)));
        assert_eq!(fs.name(), "LocoFS-C");
        fs.mkdir("/d").unwrap();
        fs.create("/d/f").unwrap();
        fs.stat_file("/d/f").unwrap();
        assert_eq!(fs.readdir("/d").unwrap(), 1);
        fs.write_file("/d/f", b"hello").unwrap();
        assert_eq!(fs.read_file("/d/f").unwrap(), b"hello");
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
    }

    #[test]
    fn write_trace_includes_open_and_data_visits() {
        let mut fs = LocoAdapter::new(LocoConfig::with_servers(2));
        fs.mkdir("/d").unwrap();
        fs.create("/d/f").unwrap();
        fs.write_file("/d/f", &[1u8; 100]).unwrap();
        let t = fs.take_trace();
        // open (FMS) + block write (OST) + setsize (FMS) ≥ 3 visits.
        assert!(t.visits.len() >= 3, "got {:?}", t.visits);
    }

    #[test]
    fn no_cache_label() {
        let fs = LocoAdapter::new(LocoConfig::with_servers(2).no_cache());
        assert_eq!(fs.name(), "LocoFS-NC");
    }

    #[test]
    fn metrics_text_exposes_op_and_rpc_families() {
        let mut fs = LocoAdapter::new(LocoConfig::with_servers(2));
        fs.mkdir("/d").unwrap();
        fs.create("/d/f").unwrap();
        let text = fs.metrics_text().expect("LocoFS carries a registry");
        assert!(
            text.contains(r#"loco_client_op_latency_nanos{op="mkdir",quantile="0.5"}"#),
            "{text}"
        );
        assert!(text.contains("loco_rpc_requests_total"), "{text}");
        assert!(text.contains(r#"role="dms""#), "{text}");
        assert!(text.contains(r#"role="fms""#), "{text}");
        // Baselines have none.
        let mut base = crate::CephFsModel::new(2);
        assert!(DistFs::metrics_text(&mut base).is_none());
    }
}
