//! A snapshot is a function of the data: two stores generated and built
//! independently of each other save the same bytes. (RDFS inference used to
//! insert its triples in hash-map iteration order, which the ID-triple table
//! of the snapshot then kept: 326 of 310,200 bytes differed between two runs
//! of `turbohom-server --lubm 1 --save-snapshot`.)

use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
use turbohom_engine::{Store, StoreOptions};

#[test]
fn independently_built_lubm1_stores_save_byte_identical_snapshots() {
    let dir = std::env::temp_dir().join("turbohom-bench-tests");
    std::fs::create_dir_all(&dir).unwrap();
    // The generator runs the inference itself; `StoreOptions::inference`
    // runs it once more at load.
    for inference in [false, true] {
        let [first, second] = [1, 2].map(|copy| {
            let dataset = LubmGenerator::new(LubmConfig::scale(1)).generate();
            let options = StoreOptions {
                inference,
                threads: 1,
            };
            let path = dir.join(format!("lubm1-determinism-{inference}-{copy}.snap"));
            Store::from_dataset_with(dataset, options)
                .save_snapshot(&path)
                .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        });
        assert!(!first.is_empty());
        assert!(
            first == second,
            "two LUBM(1) snapshots differ (inference at load: {inference})"
        );
    }
}
