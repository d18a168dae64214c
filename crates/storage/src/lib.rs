//! # exptime-storage
//!
//! The storage substrate for expiration-time databases: the physical layer
//! the paper assumes exists ("there exist efficient ways to support
//! expiration times with real-time performance guarantees", ref.\ \[24\]).
//!
//! * [`heap`] — slotted row storage with generation-tagged [`heap::RowId`]s;
//! * [`expiry`] — pluggable expiration indexes: binary heap, hierarchical
//!   timing wheel, and a full-scan baseline;
//! * [`btree`] — an ordered secondary index (point + range);
//! * [`table`] — the assembled [`table::Table`]: set-semantic rows with
//!   expiration times, expiry scheduling, secondary indexes, and two
//!   bridges into the `exptime-core` algebra: [`table::Table::visit`]
//!   lends the visible rows (the engine's read path), and
//!   [`table::Table::to_relation`] copies them all (the reference).

#![forbid(unsafe_code)]

pub mod btree;
pub mod expiry;
pub mod heap;
pub mod table;

pub use btree::BTreeIndex;
pub use expiry::{ExpirationIndex, IndexKind};
pub use heap::{RowHeap, RowId};
pub use table::{Table, TableStats};
