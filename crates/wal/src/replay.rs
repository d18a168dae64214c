//! Recovery logic, as pure functions over record sequences so the
//! property tests can hammer them without a database in the loop.
//!
//! Three stages:
//!
//! 1. [`scan_log`] — byte-level: walk frames until the first torn,
//!    short, or corrupt one. Everything before is intact (CRC-verified);
//!    everything after is the crash tail and is discarded.
//! 2. [`committed_prefix`] — transaction-level (ARIES analysis): keep
//!    operations whose `TxnCommit` made it into the scanned prefix, in
//!    log order, plus self-committing records (clock advances, DDL).
//! 3. [`replay_plan`] — expiration-level: in expiration-aware mode, drop
//!    insert records for tuples that are already dead at the recovered
//!    clock *and* are never touched again in the log (a later
//!    `UpdateTexp` or KeepMax re-insert of the same tuple could extend
//!    its life, so touched tuples replay conservatively).

use crate::record::{decode_frame, DecodeError, WalRecord};
use std::collections::{BTreeMap, BTreeSet};

/// Result of scanning raw log bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct LogScan {
    /// Fully framed, CRC-verified records, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes covered by `records`.
    pub valid_bytes: u64,
    /// Bytes after the last valid frame (the torn/corrupt tail).
    pub torn_bytes: u64,
    /// Why the scan stopped, if it stopped before the end of the log.
    pub stop_reason: Option<DecodeError>,
}

/// Walks frames from the start of `log`, stopping at the first frame
/// that is short, implausible, torn, or fails its CRC.
#[must_use]
pub fn scan_log(log: &[u8]) -> LogScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut stop_reason = None;
    while pos < log.len() {
        match decode_frame(&log[pos..]) {
            Ok((rec, used)) => {
                records.push(rec);
                pos += used;
            }
            Err(e) => {
                stop_reason = Some(e);
                break;
            }
        }
    }
    LogScan {
        records,
        valid_bytes: pos as u64,
        torn_bytes: (log.len() - pos) as u64,
        stop_reason,
    }
}

/// ARIES-style analysis: returns the operations to redo, in log order,
/// and how many records were dropped because their transaction never
/// committed (the crash cut it off).
///
/// `TxnBegin`/`TxnCommit` markers themselves are not returned — only
/// the operations between them, plus self-committing `ClockAdvance` and
/// `Ddl` records.
#[must_use]
pub fn committed_prefix(records: &[WalRecord]) -> (Vec<WalRecord>, u64) {
    let committed: BTreeSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::TxnCommit { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    let mut ops = Vec::new();
    let mut skipped_uncommitted = 0u64;
    for rec in records {
        match rec {
            WalRecord::TxnBegin { .. } | WalRecord::TxnCommit { .. } => {}
            WalRecord::ClockAdvance { .. } | WalRecord::Ddl { .. } => ops.push(rec.clone()),
            WalRecord::Insert { txn, .. }
            | WalRecord::Delete { txn, .. }
            | WalRecord::UpdateTexp { txn, .. } => {
                if committed.contains(txn) {
                    ops.push(rec.clone());
                } else {
                    skipped_uncommitted += 1;
                }
            }
        }
    }
    (ops, skipped_uncommitted)
}

/// What recovery will actually apply.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayPlan {
    /// Operations to redo, in log order.
    pub ops: Vec<WalRecord>,
    /// Insert records dropped because their tuple is provably dead at
    /// the recovered clock (expiration-aware mode only).
    pub skipped_expired: u64,
    /// The clock after replay: `base_clock` joined with every
    /// `ClockAdvance` in the log.
    pub final_clock: u64,
}

/// Builds the redo plan from committed operations.
///
/// With `expiration_aware`, an `Insert` is dropped iff its `texp` is
/// finite and `≤ final_clock` (the tuple is dead in every recovered
/// state) *and* its `(table, values)` tuple appears exactly once among
/// all `Insert`/`UpdateTexp` records — otherwise a later record might
/// extend the tuple's life (KeepMax re-insert, explicit `UpdateTexp`),
/// so it replays conservatively.
#[must_use]
pub fn replay_plan(ops: Vec<WalRecord>, base_clock: u64, expiration_aware: bool) -> ReplayPlan {
    let final_clock = ops
        .iter()
        .filter_map(|r| match r {
            WalRecord::ClockAdvance { to } => Some(*to),
            _ => None,
        })
        .fold(base_clock, u64::max);

    if !expiration_aware {
        return ReplayPlan {
            ops,
            skipped_expired: 0,
            final_clock,
        };
    }

    // How many times each tuple identity is written to. Only identities
    // touched exactly once are safe to skip on expiry: nothing later can
    // resurrect them.
    let mut touches: BTreeMap<(&str, &[exptime_core::value::Value]), u32> = BTreeMap::new();
    for rec in &ops {
        if let WalRecord::Insert { table, values, .. }
        | WalRecord::UpdateTexp { table, values, .. } = rec
        {
            *touches
                .entry((table.as_str(), values.as_slice()))
                .or_insert(0) += 1;
        }
    }
    let mut skip = Vec::with_capacity(ops.len());
    for rec in &ops {
        let dead = match rec {
            WalRecord::Insert {
                table,
                values,
                texp,
                ..
            } => {
                texp.finite().is_some_and(|t| t <= final_clock)
                    && touches.get(&(table.as_str(), values.as_slice())) == Some(&1)
            }
            _ => false,
        };
        skip.push(dead);
    }

    let mut kept = Vec::with_capacity(ops.len());
    let mut skipped_expired = 0u64;
    for (rec, dead) in ops.into_iter().zip(skip) {
        if dead {
            skipped_expired += 1;
        } else {
            kept.push(rec);
        }
    }
    ReplayPlan {
        ops: kept,
        skipped_expired,
        final_clock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_frame;
    use exptime_core::time::Time;
    use exptime_core::value::Value;

    fn ins(txn: u64, table: &str, v: i64, texp: Time) -> WalRecord {
        WalRecord::Insert {
            txn,
            table: table.into(),
            values: vec![Value::Int(v)],
            texp,
        }
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let a = encode_frame(&WalRecord::ClockAdvance { to: 1 });
        let b = encode_frame(&ins(1, "t", 7, Time::new(9)));
        let mut log = a.clone();
        log.extend_from_slice(&b[..b.len() - 3]);
        let scan = scan_log(&log);
        assert_eq!(scan.records, vec![WalRecord::ClockAdvance { to: 1 }]);
        assert_eq!(scan.valid_bytes, a.len() as u64);
        assert_eq!(scan.torn_bytes, (b.len() - 3) as u64);
        assert_eq!(scan.stop_reason, Some(DecodeError::TornPayload));
    }

    #[test]
    fn scan_stops_at_corrupt_frame_even_with_valid_frames_after() {
        let a = encode_frame(&WalRecord::ClockAdvance { to: 1 });
        let b = encode_frame(&WalRecord::ClockAdvance { to: 2 });
        let mut log = a.clone();
        let at = log.len() + 9; // inside b's payload
        log.extend_from_slice(&b);
        log[at] ^= 0xFF;
        let scan = scan_log(&log);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.stop_reason, Some(DecodeError::BadCrc));
        assert_eq!(scan.torn_bytes, b.len() as u64);
    }

    #[test]
    fn uncommitted_transactions_are_dropped() {
        let records = vec![
            WalRecord::TxnBegin { txn: 1 },
            ins(1, "t", 1, Time::INFINITY),
            WalRecord::TxnCommit { txn: 1 },
            WalRecord::ClockAdvance { to: 3 },
            WalRecord::TxnBegin { txn: 2 },
            ins(2, "t", 2, Time::INFINITY),
            // crash before commit of txn 2
        ];
        let (ops, skipped) = committed_prefix(&records);
        assert_eq!(
            ops,
            vec![
                ins(1, "t", 1, Time::INFINITY),
                WalRecord::ClockAdvance { to: 3 }
            ]
        );
        assert_eq!(skipped, 1);
    }

    #[test]
    fn expired_single_touch_inserts_are_skipped() {
        let ops = vec![
            ins(1, "t", 1, Time::new(5)),  // dead at clock 10, touched once → skip
            ins(2, "t", 2, Time::new(50)), // alive → keep
            WalRecord::ClockAdvance { to: 10 },
        ];
        let plan = replay_plan(ops, 0, true);
        assert_eq!(plan.final_clock, 10);
        assert_eq!(plan.skipped_expired, 1);
        assert_eq!(
            plan.ops,
            vec![
                ins(2, "t", 2, Time::new(50)),
                WalRecord::ClockAdvance { to: 10 }
            ]
        );
    }

    #[test]
    fn life_extended_tuples_are_not_skipped() {
        // Insert would be dead at the final clock, but a later
        // UpdateTexp extends it: replay must keep both records.
        let ops = vec![
            ins(1, "t", 1, Time::new(5)),
            WalRecord::UpdateTexp {
                txn: 2,
                table: "t".into(),
                values: vec![Value::Int(1)],
                texp: Time::new(100),
            },
            WalRecord::ClockAdvance { to: 10 },
        ];
        let plan = replay_plan(ops.clone(), 0, true);
        assert_eq!(plan.skipped_expired, 0);
        assert_eq!(plan.ops, ops);
    }

    #[test]
    fn keepmax_reinserts_are_not_skipped() {
        let ops = vec![
            ins(1, "t", 1, Time::new(5)),
            ins(2, "t", 1, Time::new(100)),
            WalRecord::ClockAdvance { to: 10 },
        ];
        let plan = replay_plan(ops.clone(), 0, true);
        assert_eq!(plan.skipped_expired, 0);
        assert_eq!(plan.ops, ops);
    }

    #[test]
    fn naive_mode_keeps_everything() {
        let ops = vec![
            ins(1, "t", 1, Time::new(5)),
            WalRecord::ClockAdvance { to: 10 },
        ];
        let plan = replay_plan(ops.clone(), 0, false);
        assert_eq!(plan.skipped_expired, 0);
        assert_eq!(plan.ops, ops);
        // Naive replay is the aware plan plus exactly what it skipped.
        let aware = replay_plan(ops, 0, true);
        assert_eq!(aware.skipped_expired, 1);
        assert_eq!(
            plan.ops.len() as u64,
            aware.ops.len() as u64 + aware.skipped_expired
        );
    }

    #[test]
    fn base_clock_counts_toward_expiry() {
        // Checkpoint clock alone can make an insert dead.
        let ops = vec![ins(1, "t", 1, Time::new(5))];
        let plan = replay_plan(ops, 7, true);
        assert_eq!(plan.final_clock, 7);
        assert_eq!(plan.skipped_expired, 1);
        assert!(plan.ops.is_empty());
    }
}
