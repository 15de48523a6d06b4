//! Size-capped eviction: `OBD_STORE_MAX_BYTES` bounds the compacted
//! file, compaction drops the oldest-appended live frames first, and a
//! reopen proves the surviving keys still read back while the evicted
//! ones are clean misses.
//!
//! The cap is seeded from the process environment at open, so every
//! test here serializes on `GATE` (env vars are process-global).

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use obd_store::{Digest, Store, STORE_MAX_BYTES_ENV};

static GATE: Mutex<()> = Mutex::new(());

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obd-store-evict-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn key(i: u64) -> u64 {
    Digest::new("evict").u64(i).finish()
}

/// Header (16) + per-record frame (20 + payload).
const HEADER: u64 = 16;
const FRAME: u64 = 20;

#[test]
fn capped_compaction_evicts_oldest_and_survivors_reopen() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmp("oldest");
    let payload = [0xA5u8; 100];
    let cap = HEADER + 3 * (FRAME + 100);
    {
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.max_bytes(), None, "no env, no cap");
        for i in 0..5 {
            store.put(key(i), &payload).unwrap();
        }
        store.set_max_bytes(Some(cap));
        let report = store.compact().unwrap();
        assert_eq!(report.evicted_records, 2, "{report:?}");
        assert_eq!(report.live_records, 3);
        assert!(report.after_bytes <= cap, "{report:?}");
        // Oldest-appended frames went first.
        assert!(store.get(key(0)).unwrap().is_none());
        assert!(store.get(key(1)).unwrap().is_none());
        for i in 2..5 {
            assert_eq!(store.get(key(i)).unwrap().as_deref(), Some(&payload[..]));
        }
    }
    // Reopen: the compacted file scans clean, survivors read back,
    // evicted keys stay misses.
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 3);
    for i in 0..2 {
        assert!(store.get(key(i)).unwrap().is_none(), "evicted key {i}");
    }
    for i in 2..5 {
        assert_eq!(
            store.get(key(i)).unwrap().as_deref(),
            Some(&payload[..]),
            "surviving key {i}"
        );
    }
    let stats = store.file_stats().unwrap();
    assert!(stats.file_bytes <= cap);
    fs::remove_dir_all(&dir).unwrap();
}

/// Superseded frames are reclaimed before the cap is judged: a store
/// whose *live* payload fits is not evicted from, no matter how much
/// dead weight the raw file carries.
#[test]
fn cap_judges_live_bytes_not_raw_file_size() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmp("live");
    let store = Store::open(&dir).unwrap();
    for _ in 0..10 {
        store.put(key(0), &[1u8; 200]).unwrap(); // 9 dead frames
    }
    store.put(key(1), &[2u8; 200]).unwrap();
    store.set_max_bytes(Some(HEADER + 2 * (FRAME + 200)));
    let report = store.compact().unwrap();
    assert_eq!(report.evicted_records, 0, "{report:?}");
    assert_eq!(report.live_records, 2);
    assert_eq!(store.get(key(0)).unwrap().as_deref(), Some(&[1u8; 200][..]));
    assert_eq!(store.get(key(1)).unwrap().as_deref(), Some(&[2u8; 200][..]));
    fs::remove_dir_all(&dir).unwrap();
}

/// An uncapped (or generous) compaction evicts nothing, and clearing
/// the cap restores uncapped behavior.
#[test]
fn uncapped_compaction_evicts_nothing() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmp("uncapped");
    let store = Store::open(&dir).unwrap();
    for i in 0..4 {
        store.put(key(i), &[3u8; 50]).unwrap();
    }
    assert_eq!(store.compact().unwrap().evicted_records, 0);
    store.set_max_bytes(Some(1 << 30));
    assert_eq!(store.compact().unwrap().evicted_records, 0);
    store.set_max_bytes(None);
    assert_eq!(store.max_bytes(), None);
    assert_eq!(store.compact().unwrap().evicted_records, 0);
    assert_eq!(store.len(), 4);
    fs::remove_dir_all(&dir).unwrap();
}

/// The cap is seeded from `OBD_STORE_MAX_BYTES` at open; garbage and
/// `0` read as uncapped.
#[test]
fn env_var_seeds_the_cap_at_open() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmp("env");
    std::env::set_var(STORE_MAX_BYTES_ENV, "4096");
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.max_bytes(), Some(4096));
    drop(store);

    std::env::set_var(STORE_MAX_BYTES_ENV, "not-a-number");
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.max_bytes(), None);
    drop(store);

    std::env::set_var(STORE_MAX_BYTES_ENV, "0");
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.max_bytes(), None);
    drop(store);

    std::env::remove_var(STORE_MAX_BYTES_ENV);
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.max_bytes(), None);
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// End-to-end env flow: a capped store evicts during compaction and the
/// `store.evicted_frames` metric accounts for every evicted frame.
#[test]
fn evicted_frames_metric_accounts_for_evictions() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    obd_metrics::enable();
    obd_metrics::reset_all();
    let dir = tmp("metric");
    let store = Store::open(&dir).unwrap();
    for i in 0..6 {
        store.put(key(i), &[9u8; 64]).unwrap();
    }
    store.set_max_bytes(Some(HEADER + 2 * (FRAME + 64)));
    let report = store.compact().unwrap();
    assert_eq!(report.evicted_records, 4);
    let snap = obd_metrics::snapshot();
    assert_eq!(snap.counter("store.evicted_frames"), Some(4));
    obd_metrics::disable();
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}
