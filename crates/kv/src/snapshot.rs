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
//!
//! Records appear in the store's own order ([`KvStore::for_each_record`]):
//! key order for a B+ tree or LSM store, bucket order for a hash
//! store. [`load`] puts them back one by one, so any order loads into
//! any store kind. A B+ tree's image is therefore a function of its
//! contents alone, while a hash store's holds the same records in an
//! order that depends on its history (table size, deletes).

use crate::KvStore;
use loco_types::checksum::crc32;

const MAGIC_V2: &[u8; 4] = b"LKV2";

/// Serialize all records into a crc-sealed v2 image.
pub fn dump(store: &mut dyn KvStore) -> Vec<u8> {
    let mut out = Vec::new();
    dump_into(store, &mut out);
    out
}

/// Append the crc-sealed v2 image of `store` to `out`, streaming each
/// record straight from the store into the buffer: no intermediate
/// record list, no sort, no second copy of the image. Bytes already in
/// `out` (an envelope header) are left alone and not covered by the
/// image's crc.
pub fn dump_into(store: &mut dyn KvStore, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(MAGIC_V2);
    let count_at = out.len();
    out.extend_from_slice(&0u64.to_le_bytes()); // patched below
    let mut count = 0usize;
    store.for_each_record(&mut |k, v| {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v);
        count += 1;
    });
    out[count_at..count_at + 8].copy_from_slice(&(count as u64).to_le_bytes());
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
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

    /// 40 keys inserted out of key order (so the tree splits into more
    /// than one leaf), then a delete, an append, an in-place write and
    /// an empty key.
    fn golden_tree() -> BTreeDb {
        let mut db = BTreeDb::new(KvConfig::default());
        for i in 0..40u32 {
            let j = (i * 17) % 40;
            db.put(
                format!("k{j:02}").as_bytes(),
                &j.to_le_bytes()[..(j % 4) as usize],
            );
        }
        db.delete(b"k07");
        db.append(b"k11", b"+");
        assert!(db.write_at(b"k03", 0, b"w"));
        db.put(b"", b"empty key");
        assert!(db.height() >= 2, "the records must span several leaves");
        db
    }

    /// `dump(golden_tree())`, captured once from the encoder that
    /// built the image from a sorted `scan_prefix` copy.
    const GOLDEN_TREE_IMAGE: &str = concat!(
        "4c4b563228000000000000000000000009000000656d707479206b6579030000",
        "006b303000000000030000006b30310100000001030000006b30320200000002",
        "00030000006b303303000000770000030000006b303400000000030000006b30",
        "350100000005030000006b3036020000000600030000006b3038000000000300",
        "00006b30390100000009030000006b3130020000000a00030000006b31310400",
        "00000b00002b030000006b313200000000030000006b3133010000000d030000",
        "006b3134020000000e00030000006b3135030000000f0000030000006b313600",
        "000000030000006b31370100000011030000006b313802000000120003000000",
        "6b313903000000130000030000006b323000000000030000006b323101000000",
        "15030000006b3232020000001600030000006b32330300000017000003000000",
        "6b323400000000030000006b32350100000019030000006b3236020000001a00",
        "030000006b3237030000001b0000030000006b323800000000030000006b3239",
        "010000001d030000006b3330020000001e00030000006b3331030000001f0000",
        "030000006b333200000000030000006b33330100000021030000006b33340200",
        "00002200030000006b333503000000230000030000006b333600000000030000",
        "006b33370100000025030000006b3338020000002600030000006b3339030000",
        "0027000059e51c89",
    );

    #[test]
    fn a_tree_image_keeps_the_bytes_of_the_sorting_encoder() {
        let hex = GOLDEN_TREE_IMAGE.as_bytes();
        let golden: Vec<u8> = hex
            .chunks(2)
            .map(|c| u8::from_str_radix(std::str::from_utf8(c).unwrap(), 16).unwrap())
            .collect();
        assert_eq!(dump(&mut golden_tree()), golden);
        // Appending after an envelope header leaves the header alone
        // and writes the same image after it.
        let mut out = b"header".to_vec();
        dump_into(&mut golden_tree(), &mut out);
        assert_eq!(&out[..6], b"header");
        assert_eq!(&out[6..], &golden[..]);
    }

    #[test]
    fn a_hash_image_loads_into_a_tree_with_the_same_records() {
        let mut src = HashDb::new(KvConfig::default());
        for i in 0..3_000u32 {
            src.put(format!("f/{i:05}").as_bytes(), &i.to_le_bytes());
        }
        for i in (0..3_000u32).step_by(7) {
            src.delete(format!("f/{i:05}").as_bytes());
        }
        src.append(b"f/00001", b"tail");
        let image = dump(&mut src);
        let mut dst = BTreeDb::new(KvConfig::default());
        assert_eq!(load(&mut dst, &image).unwrap(), src.len());
        assert_eq!(dst.scan_prefix(b""), src.scan_prefix(b""));
        // The two images hold the same records, in bucket order and in
        // key order.
        let tree_image = dump(&mut dst);
        assert_eq!(tree_image.len(), image.len());
        assert_ne!(tree_image, image);
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
