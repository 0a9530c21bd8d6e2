//! Store snapshots: serialize every record of a store to a flat binary
//! image and load it back into any (possibly different-flavoured)
//! store. This is the persistence/restart substrate the servers build
//! on — the moral equivalent of copying a Kyoto Cabinet database file.
//!
//! Format (v2, the only one read): `b"LKV2"` magic ‖ u64 record count
//! ‖ per record (u32 key-len ‖ key ‖ u32 value-len ‖ value) ‖ trailing
//! IEEE CRC32 (LE) over everything before it. The crc turns any bit
//! flip anywhere in the image into a clean load error instead of
//! silently corrupted metadata.

use crate::KvStore;
use loco_types::checksum::crc32;

const MAGIC_V2: &[u8; 4] = b"LKV2";

/// Serialize all records (full scan, key order for ordered stores)
/// into a crc-sealed v2 image.
pub fn dump(store: &mut dyn KvStore) -> Vec<u8> {
    let records = store.scan_prefix(b"");
    let mut out = Vec::with_capacity(
        16 + 12 * records.len()
            + records
                .iter()
                .map(|(k, v)| k.len() + v.len())
                .sum::<usize>(),
    );
    out.extend_from_slice(MAGIC_V2);
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for (k, v) in records {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(&k);
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(&v);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Load an image produced by [`dump`] into `store` (which should be
/// empty), after checking its crc. Returns the number of records
/// loaded. Corruption — truncation, bit flips,
/// oversized lengths, trailing bytes — is an error, never a panic and
/// never a partial load the caller can't detect.
pub fn load(store: &mut dyn KvStore, bytes: &[u8]) -> Result<usize, String> {
    walk(bytes, |k, v| store.put(k, v))
}

/// Fully parse and checksum-verify an image without applying it
/// anywhere. Callers that must not disturb live state on a bad image
/// (a standby installing a replicated snapshot) validate first, then
/// [`load`] — which cannot fail on the same bytes.
pub fn validate(bytes: &[u8]) -> Result<usize, String> {
    walk(bytes, |_, _| {})
}

fn walk(mut bytes: &[u8], mut sink: impl FnMut(&[u8], &[u8])) -> Result<usize, String> {
    if bytes.len() < 16 {
        return Err("truncated snapshot".into());
    }
    if !bytes.starts_with(MAGIC_V2) {
        return Err("bad snapshot magic".into());
    }
    // Peel and verify the trailing crc before trusting any length field
    // inside.
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(body) != stored {
        return Err("snapshot checksum mismatch".into());
    }
    bytes = body;
    fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
        if bytes.len() < n {
            return Err("truncated snapshot".into());
        }
        let (head, rest) = bytes.split_at(n);
        *bytes = rest;
        Ok(head)
    }
    take(&mut bytes, 4)?; // magic, already validated
    let count = u64::from_le_bytes(take(&mut bytes, 8)?.try_into().unwrap()) as usize;
    for _ in 0..count {
        let klen = u32::from_le_bytes(take(&mut bytes, 4)?.try_into().unwrap()) as usize;
        let key = take(&mut bytes, klen)?;
        let vlen = u32::from_le_bytes(take(&mut bytes, 4)?.try_into().unwrap()) as usize;
        let value = take(&mut bytes, vlen)?;
        sink(key, value);
    }
    if !bytes.is_empty() {
        return Err("trailing bytes after snapshot".into());
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BTreeDb, HashDb, KvConfig, LsmDb};

    fn all_stores() -> Vec<Box<dyn KvStore>> {
        vec![
            Box::new(HashDb::new(KvConfig::default())),
            Box::new(BTreeDb::new(KvConfig::default())),
            Box::new(LsmDb::new(KvConfig::default())),
        ]
    }

    #[test]
    fn roundtrip_within_and_across_store_kinds() {
        for mut src in all_stores() {
            for i in 0..500u32 {
                src.put(format!("key/{i:05}").as_bytes(), &i.to_le_bytes());
            }
            src.delete(b"key/00042");
            let image = dump(&mut *src);
            for mut dst in all_stores() {
                let n = load(&mut *dst, &image).unwrap();
                assert_eq!(n, 499);
                assert_eq!(dst.len(), 499);
                assert_eq!(
                    dst.get(b"key/00007").as_deref(),
                    Some(&7u32.to_le_bytes()[..])
                );
                assert_eq!(dst.get(b"key/00042"), None);
            }
        }
    }

    #[test]
    fn empty_store_roundtrip() {
        let mut src = HashDb::new(KvConfig::default());
        let image = dump(&mut src);
        let mut dst = BTreeDb::new(KvConfig::default());
        assert_eq!(load(&mut dst, &image).unwrap(), 0);
        assert!(dst.is_empty());
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let mut dst = HashDb::new(KvConfig::default());
        assert!(load(&mut dst, b"").is_err());
        assert!(load(&mut dst, b"NOPE\x00\x00\x00\x00\x00\x00\x00\x00").is_err());
        let mut src = HashDb::new(KvConfig::default());
        src.put(b"k", b"v");
        let mut image = dump(&mut src);
        image.truncate(image.len() - 1); // cut the last value byte
        assert!(load(&mut dst, &image).is_err());
        image.extend_from_slice(b"vXX"); // trailing garbage
        assert!(load(&mut dst, &image).is_err());
        // A v1 image (`LKV1`, no crc) is refused, not trusted unchecked.
        let mut v1 = dump(&mut src);
        v1.truncate(v1.len() - 4);
        v1[..4].copy_from_slice(b"LKV1");
        assert!(load(&mut dst, &v1).is_err());
        assert!(dst.is_empty());
    }

    /// Randomized model test (seeded, deterministic): arbitrary byte
    /// records survive a dump from one store kind and a load into
    /// another.
    #[test]
    fn dump_load_preserves_any_contents() {
        let mut rng = loco_sim::rng::Rng::seed_from_u64(0x5A4B);
        for _case in 0..32 {
            let n = rng.gen_range(0..100);
            let records: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = (0..n)
                .map(|_| {
                    let klen = rng.gen_range(1..24);
                    let vlen = rng.gen_range(0..64);
                    let k: Vec<u8> = (0..klen).map(|_| rng.gen_u64() as u8).collect();
                    let v: Vec<u8> = (0..vlen).map(|_| rng.gen_u64() as u8).collect();
                    (k, v)
                })
                .collect();
            let mut src = BTreeDb::new(KvConfig::default());
            for (k, v) in &records {
                src.put(k, v);
            }
            let image = dump(&mut src);
            let mut dst = LsmDb::new(KvConfig::default());
            load(&mut dst, &image).unwrap();
            assert_eq!(dst.len(), records.len());
            for (k, v) in &records {
                assert_eq!(dst.get(k).as_deref(), Some(&v[..]));
            }
        }
    }
}
