#![warn(missing_docs)]
//! # loco-types — metadata types shared across the LocoFS cluster
//!
//! Defines the on-wire/on-store representation of everything the paper's
//! Table 1 enumerates:
//!
//! * [`path`] — absolute-path handling (full-path keys are how the DMS
//!   indexes directory inodes),
//! * [`id`] — `uuid = (sid, fid)` file/directory identifiers (§3.3.2),
//! * [`meta`] — fixed-layout directory inodes and the *decoupled* file
//!   metadata (access part / content part, §3.3.1) with
//!   (de)serialization-free field access (§3.3.3),
//! * [`dirent`] — backward directory entries concatenated per directory
//!   (§3.2.1),
//! * [`ring`] — the consistent-hash ring that places file metadata on
//!   FMS nodes (§3.1),
//! * [`op_matrix`] — Table 1 as data: which metadata parts each
//!   operation touches, enforced by conformance tests,
//! * [`acl`] — POSIX mode-bit permission checks used for ancestor ACL
//!   walks,
//! * [`error`] — the error type every layer shares,
//! * [`wire`] — the std-only binary codec used by the real RPC
//!   transport (`loco-net`'s TCP endpoint) to move these types between
//!   processes,
//! * [`checksum`] — the shared IEEE CRC32 guarding both TCP frames and
//!   the durable store's WAL/snapshot files.

pub mod acl;
pub mod checksum;
pub mod dirent;
pub mod error;
pub mod id;
pub mod meta;
pub mod op_matrix;
pub mod path;
pub mod ring;
pub mod wire;

pub use acl::{may_access, Perm};
pub use checksum::crc32;
pub use dirent::{encode_entry, encode_tombstone, Dirent, DirentKind, DirentList};
pub use error::{FsError, FsResult};
pub use id::{Uuid, UuidGen};
pub use meta::{DirInode, FileAccess, FileContent};
pub use op_matrix::{parts_touched, MetaPart, OpKind};
pub use path::{basename, components, depth, join, normalize, parent};
pub use ring::HashRing;
pub use wire::{OpClass, Wire, WireError, WireResult, MAX_WIRE_LEN};
