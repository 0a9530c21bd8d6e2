//! Bucket-chained hash store — the Kyoto Cabinet *hash DB* analog.
//!
//! Point operations hash the key to a bucket and walk a short chain.
//! There is no key order, so prefix scans degrade to a full table scan
//! plus a sort — exactly the behaviour that makes directory rename
//! expensive on the hash DB in the paper's Fig 14.

use crate::{AccessStats, KvConfig, KvStore, Meter};
use loco_sim::time::Nanos;

/// FNV-1a 64-bit hash; deterministic across runs and platforms so that
/// consistent-hash placement and benchmark results are reproducible.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

type Entry = (Box<[u8]>, Vec<u8>);

/// A bucket-chained hash key-value store.
pub struct HashDb {
    buckets: Vec<Vec<Entry>>,
    len: usize,
    cfg: KvConfig,
    meter: Meter,
    /// Total key+value bytes currently stored (used to charge device
    /// streaming cost for full scans).
    bytes: usize,
}

impl HashDb {
    /// Create a new instance with default settings.
    pub fn new(cfg: KvConfig) -> Self {
        Self {
            buckets: vec![Vec::new(); 64],
            len: 0,
            cfg,
            meter: Meter::default(),
            bytes: 0,
        }
    }

    fn bucket_of(&self, key: &[u8]) -> usize {
        (fnv1a(key) as usize) & (self.buckets.len() - 1)
    }

    fn maybe_grow(&mut self) {
        if self.len <= self.buckets.len() * 3 / 4 {
            return;
        }
        let new_size = self.buckets.len() * 2;
        let mut new_buckets: Vec<Vec<Entry>> = vec![Vec::new(); new_size];
        for bucket in self.buckets.drain(..) {
            for (k, v) in bucket {
                let idx = (fnv1a(&k) as usize) & (new_size - 1);
                new_buckets[idx].push((k, v));
            }
        }
        self.buckets = new_buckets;
    }

    /// Immutable lookup without charging (internal).
    fn find(&self, key: &[u8]) -> Option<&Entry> {
        self.buckets[self.bucket_of(key)]
            .iter()
            .find(|(k, _)| &**k == key)
    }

    fn find_mut(&mut self, key: &[u8]) -> Option<&mut Entry> {
        let b = self.bucket_of(key);
        self.buckets[b].iter_mut().find(|(k, _)| &**k == key)
    }

    /// Charge a full-table scan: per-record CPU plus a streaming device
    /// read of the whole table (hash tables have no locality for range
    /// queries, so the scan reads everything back).
    fn charge_full_scan(&self) {
        let cpu = self.cfg.model.full_scan(self.len);
        let io = self.cfg.device.stream_read(self.bytes);
        self.meter.charge(cpu + io);
    }
}

impl KvStore for HashDb {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.meter.stats.gets += 1;
        let found = self.find(key).map(|(_, v)| v.clone());
        let len = found.as_ref().map_or(0, |v| v.len());
        self.meter.stats.bytes_read += len as u64;
        self.meter.charge(self.cfg.model.get(len, self.cfg.codec));
        found
    }

    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.meter.stats.puts += 1;
        self.meter.stats.bytes_written += (key.len() + value.len()) as u64;
        self.meter.charge(
            self.cfg.model.put(value.len(), self.cfg.codec)
                + self.cfg.device.write_amortized(key.len() + value.len()),
        );
        if let Some(entry) = self.find_mut(key) {
            let old_len = entry.1.len();
            entry.1 = value.to_vec();
            self.bytes -= old_len;
            self.bytes += value.len();
            return;
        }
        let b = self.bucket_of(key);
        self.buckets[b].push((key.to_vec().into_boxed_slice(), value.to_vec()));
        self.bytes += key.len() + value.len();
        self.len += 1;
        self.maybe_grow();
    }

    fn delete(&mut self, key: &[u8]) -> bool {
        self.meter.stats.deletes += 1;
        self.meter
            .charge(self.cfg.model.delete() + self.cfg.device.write_amortized(key.len()));
        let b = self.bucket_of(key);
        if let Some(pos) = self.buckets[b].iter().position(|(k, _)| &**k == key) {
            let (k, v) = self.buckets[b].swap_remove(pos);
            self.bytes -= k.len() + v.len();
            self.len -= 1;
            true
        } else {
            false
        }
    }

    fn contains(&mut self, key: &[u8]) -> bool {
        self.meter.stats.gets += 1;
        self.meter.charge(self.cfg.model.get(0, self.cfg.codec));
        self.find(key).is_some()
    }

    fn read_at(&mut self, key: &[u8], off: usize, len: usize) -> Option<Vec<u8>> {
        self.meter.stats.partial_reads += 1;
        let entry = self.find(key);
        let total = entry.map_or(0, |(_, v)| v.len());
        self.meter
            .charge(self.cfg.model.get_partial(len, total, self.cfg.codec));
        let (_, v) = entry?;
        if off + len > v.len() {
            return None;
        }
        let out = v[off..off + len].to_vec();
        self.meter.stats.bytes_read += len as u64;
        Some(out)
    }

    fn write_at(&mut self, key: &[u8], off: usize, data: &[u8]) -> bool {
        self.meter.stats.partial_writes += 1;
        let codec = self.cfg.codec;
        let model = self.cfg.model.clone();
        let device = self.cfg.device.clone();
        let Some((_, v)) = self.find_mut(key) else {
            self.meter.charge(model.get(0, codec));
            return false;
        };
        if off + data.len() > v.len() {
            self.meter.charge(model.get(0, codec));
            return false;
        }
        let total = v.len();
        v[off..off + data.len()].copy_from_slice(data);
        self.meter.stats.bytes_written += data.len() as u64;
        self.meter.charge(
            model.put_partial(data.len(), total, codec) + device.write_amortized(data.len()),
        );
        true
    }

    fn append(&mut self, key: &[u8], data: &[u8]) {
        self.meter.stats.puts += 1;
        self.meter.stats.bytes_written += data.len() as u64;
        self.meter.charge(
            self.cfg.model.put(data.len(), self.cfg.codec)
                + self.cfg.device.write_amortized(data.len()),
        );
        if let Some((_, v)) = self.find_mut(key) {
            v.extend_from_slice(data);
            self.bytes += data.len();
        } else {
            let b = self.bucket_of(key);
            self.buckets[b].push((key.to_vec().into_boxed_slice(), data.to_vec()));
            self.bytes += key.len() + data.len();
            self.len += 1;
            self.maybe_grow();
        }
    }

    fn scan_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.meter.stats.scans += 1;
        self.charge_full_scan();
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = self
            .buckets
            .iter()
            .flatten()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.to_vec(), v.clone()))
            .collect();
        self.meter.stats.bytes_read += out
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum::<u64>();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn for_each_record(&mut self, visit: &mut dyn FnMut(&[u8], &[u8])) {
        for (k, v) in self.buckets.iter().flatten() {
            visit(k, v);
        }
    }

    fn extract_prefix(&mut self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.meter.stats.scans += 1;
        self.charge_full_scan();
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for bucket in &mut self.buckets {
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].0.starts_with(prefix) {
                    let (k, v) = bucket.swap_remove(i);
                    self.bytes -= k.len() + v.len();
                    self.len -= 1;
                    out.push((k.to_vec(), v));
                } else {
                    i += 1;
                }
            }
        }
        // Each removal is a record-level delete on the device.
        let del_cost: Nanos = out
            .iter()
            .map(|(k, _)| self.cfg.model.delete() + self.cfg.device.write_amortized(k.len()))
            .sum();
        self.meter.stats.bytes_read += out
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum::<u64>();
        self.meter.charge(del_cost);
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn len(&self) -> usize {
        self.len
    }

    fn ordered(&self) -> bool {
        false
    }

    fn take_cost(&mut self) -> Nanos {
        self.meter.cost.take()
    }

    fn stats(&self) -> AccessStats {
        self.meter.stats
    }

    fn reset_stats(&mut self) {
        self.meter.stats = AccessStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loco_sim::device::Device;

    #[test]
    fn fnv_is_deterministic_and_spreads() {
        assert_eq!(fnv1a(b"hello"), fnv1a(b"hello"));
        assert_ne!(fnv1a(b"hello"), fnv1a(b"hellp"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut db = HashDb::new(KvConfig::default());
        for i in 0..10_000u32 {
            db.put(&i.to_be_bytes(), &i.to_le_bytes());
        }
        assert_eq!(db.len(), 10_000);
        for i in (0..10_000u32).step_by(97) {
            assert_eq!(db.get(&i.to_be_bytes()).unwrap(), i.to_le_bytes());
        }
        assert!(db.buckets.len() >= 10_000);
    }

    #[test]
    fn full_scan_cost_scales_with_table_size() {
        let mut db = HashDb::new(KvConfig::default());
        for i in 0..100u32 {
            db.put(&i.to_be_bytes(), b"v");
        }
        db.take_cost();
        db.scan_prefix(b"zzz-no-match");
        let small = db.take_cost();
        for i in 100..10_000u32 {
            db.put(&i.to_be_bytes(), b"v");
        }
        db.take_cost();
        db.scan_prefix(b"zzz-no-match");
        let large = db.take_cost();
        assert!(
            large > 50 * small,
            "scan must be O(table): small={small} large={large}"
        );
    }

    #[test]
    fn scan_cost_independent_of_match_count() {
        // A hash DB pays for the whole table whether 1 or 1000 records
        // match — that is the Fig 14 point.
        let mut db = HashDb::new(KvConfig::default());
        for i in 0..5_000u32 {
            db.put(format!("a/{i:05}").as_bytes(), b"v");
        }
        db.take_cost();
        db.scan_prefix(b"a/00001");
        let narrow = db.take_cost();
        db.scan_prefix(b"a/");
        let wide = db.take_cost();
        let ratio = wide as f64 / narrow as f64;
        assert!(ratio < 1.5, "costs should be comparable, ratio={ratio}");
    }

    #[test]
    fn hdd_scan_costs_more_than_ram() {
        let mut ram = HashDb::new(KvConfig::default());
        let mut hdd = HashDb::new(KvConfig::default().with_device(Device::hdd()));
        for i in 0..1_000u32 {
            ram.put(&i.to_be_bytes(), &[0u8; 200]);
            hdd.put(&i.to_be_bytes(), &[0u8; 200]);
        }
        ram.take_cost();
        hdd.take_cost();
        ram.scan_prefix(b"");
        hdd.scan_prefix(b"");
        assert!(hdd.take_cost() > ram.take_cost());
    }

    #[test]
    fn bytes_accounting_under_overwrite_and_delete() {
        let mut db = HashDb::new(KvConfig::default());
        db.put(b"k", &[0u8; 100]);
        let after_first = db.bytes;
        db.put(b"k", &[0u8; 10]);
        assert_eq!(db.bytes, after_first - 90);
        db.delete(b"k");
        assert_eq!(db.bytes, 0);
    }

    #[test]
    fn extract_prefix_empty_prefix_drains_everything() {
        let mut db = HashDb::new(KvConfig::default());
        for i in 0..50u32 {
            db.put(&i.to_be_bytes(), b"v");
        }
        let all = db.extract_prefix(b"");
        assert_eq!(all.len(), 50);
        assert!(db.is_empty());
    }
}
