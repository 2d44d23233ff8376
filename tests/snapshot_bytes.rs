//! The served bytes are pinned: the length and the FNV-1a hash of what
//! `Store::save_snapshot` writes for a generated LUBM store — the dictionary's
//! records, arena and shared strings, and every array of the type-aware graph
//! and its indexes. A change to how a store is loaded (the dictionary's
//! freeze, the graph's layout) must leave these alone; a change to what is
//! stored re-pins them.

use turbohom::datasets::lubm::{LubmConfig, LubmGenerator};
use turbohom::engine::Store;
use turbohom_storage::{fnv1a, FNV_OFFSET};

/// The length and the hash of the snapshot a LUBM(`scale`) heap store saves.
fn snapshot_fingerprint(scale: usize) -> (usize, u64) {
    let store = Store::from_dataset(LubmGenerator::new(LubmConfig::scale(scale)).generate());
    let path = std::env::temp_dir().join(format!(
        "turbohom-snapshot-bytes-{}-{scale}.snap",
        std::process::id()
    ));
    store.save_snapshot(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    (bytes.len(), fnv1a(FNV_OFFSET, &bytes))
}

#[test]
fn lubm4_snapshot_bytes_are_pinned() {
    assert_eq!(snapshot_fingerprint(4), (258_960, 0x1a05_4130_5e6d_692d));
}

#[test]
#[ignore = "builds LUBM(640): a few seconds in release, longer in debug"]
fn lubm640_snapshot_bytes_are_pinned() {
    assert_eq!(
        snapshot_fingerprint(640),
        (39_648_424, 0x2cd8_2a50_11ec_fa0a)
    );
}
