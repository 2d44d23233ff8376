//! The server's command line refuses what it cannot serve — a snapshot file
//! that an earlier build wrote for a sharded store, a sharded store to save,
//! a halo radius to set, RDFS inference over anything but an N-Triples
//! file, a thread count outside `1..=MAX_THREADS` — with a message, and
//! exits before it binds or writes anything. What it does load, it times
//! stage by stage on its `store ready` line.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};
use turbohom_engine::{SnapshotError, Store, StoreError};
use turbohom_storage::{Snapshot, SnapshotWriter};

/// Runs the server with `args` and returns what it printed. A server that
/// is still running after a minute has accepted what it should have
/// refused: it is killed and the test fails.
fn server(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_turbohom-server"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let started = Instant::now();
    while child.try_wait().unwrap().is_none() {
        if started.elapsed() > Duration::from_secs(60) {
            child.kill().unwrap();
            panic!("turbohom-server {args:?} is still running");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A directory of its own under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("turbohom-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SAMPLE: &str = "\
<http://ex.org/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/C> .
<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .
<http://ex.org/b> <http://ex.org/p> <http://ex.org/c> .
";

/// Writes what a sharded save of an earlier build wrote for one shard
/// holding `store`: the shard layout section (tag `0x0A01`: shard count,
/// halo, global triples, then the triples of each shard), followed by the
/// shard's store sections, copied from `store`'s own snapshot file.
fn write_old_sharded_file(store: &Store, path: &Path) {
    let single = path.with_extension("single");
    store.save_snapshot(&single).unwrap();
    let snapshot = Snapshot::open(&single).unwrap();
    let triples = store.triple_count() as u64;
    let mut w = SnapshotWriter::new();
    w.section::<u64>(0x0A01, &[1, 2, triples, triples]);
    for (i, (tag, _)) in snapshot.sections().enumerate() {
        w.section::<u8>(tag, &snapshot.section::<u8>(i, tag).unwrap());
    }
    w.write_to(path).unwrap();
}

#[test]
fn an_old_sharded_snapshot_is_refused_by_the_store_and_by_the_server() {
    let dir = scratch_dir("old-sharded");
    let path = dir.join("sharded.snap");
    write_old_sharded_file(&Store::from_ntriples(SAMPLE).unwrap(), &path);

    let error = match Store::from_snapshot(&path) {
        Err(e @ StoreError::Snapshot(SnapshotError::Malformed(_))) => e,
        Err(other) => panic!("expected a malformed snapshot, got {other:?}"),
        Ok(_) => panic!("a sharded snapshot opened as a store"),
    };
    let message = error.to_string();
    assert!(message.contains("0xa01"), "{message}");

    let output = server(&[
        "--bind",
        "127.0.0.1:0",
        "--snapshot",
        path.to_str().unwrap(),
    ]);
    let printed = stderr(&output);
    assert!(!output.status.success(), "{printed}");
    assert!(printed.contains(&message), "{printed}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_sharded_store_is_not_saved() {
    let dir = scratch_dir("sharded-save");
    let path = dir.join("lubm1.snap");
    let output = server(&[
        "--lubm",
        "1",
        "--shards",
        "4",
        "--save-snapshot",
        path.to_str().unwrap(),
    ]);
    let printed = stderr(&output);
    assert!(!output.status.success(), "{printed}");
    assert!(
        printed.contains("--shards cannot be combined with --snapshot or --save-snapshot"),
        "{printed}"
    );
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "the refusal wrote a file"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_halo_is_not_an_option() {
    let output = server(&["--lubm", "1", "--shards", "4", "--halo", "1"]);
    let printed = stderr(&output);
    assert!(!output.status.success(), "{printed}");
    assert!(printed.contains("unknown option `--halo`"), "{printed}");
    assert!(printed.contains("usage: turbohom-server"), "{printed}");
}

#[test]
fn inference_applies_to_an_ntriples_file_alone() {
    let dir = scratch_dir("inference");
    let (data, snap) = (dir.join("sample.nt"), dir.join("sample.snap"));
    std::fs::write(&data, SAMPLE).unwrap();
    for refused in [
        &["--inference"][..],
        &["--lubm", "1", "--inference"],
        &["--snapshot", "missing.snap", "--inference"],
    ] {
        let output = server(&[&["--bind", "127.0.0.1:0"], refused].concat());
        let printed = stderr(&output);
        assert!(!output.status.success(), "{refused:?}: {printed}");
        assert!(
            printed.contains("--inference needs --ntriples"),
            "{refused:?}: {printed}"
        );
    }
    let (data, path) = (data.to_str().unwrap(), snap.to_str().unwrap());
    let output = server(&["--ntriples", data, "--inference", "--save-snapshot", path]);
    assert!(output.status.success(), "{}", stderr(&output));
    assert!(Store::from_snapshot(&snap).unwrap().options().inference);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `store ready` line's total milliseconds, and its split: each stage
/// with its milliseconds, `other` last.
fn ready_split(printed: &str) -> (f64, Vec<(String, f64)>) {
    let line = printed.lines().find(|l| l.starts_with("store ready: "));
    let line = line.unwrap_or_else(|| panic!("no store ready line: {printed}"));
    let ms = |text: &str| text.trim_end_matches(" ms").parse::<f64>().unwrap();
    let total = ms(line
        .split(" in ")
        .nth(1)
        .unwrap()
        .split(" (")
        .next()
        .unwrap());
    let split = line.rsplit_once("; ").unwrap().1.trim_end_matches(')');
    let stages = split.split(", ").map(|stage| {
        let (name, time) = stage.split_once(' ').unwrap();
        (name.to_string(), ms(time))
    });
    (total, stages.collect())
}

/// A heap boot names every stage of its load, the one that produced the
/// dataset first, and what they leave of the total is `other`.
#[test]
fn the_ready_line_splits_the_load_by_stage() {
    let dir = scratch_dir("split");
    let (data, snap) = (dir.join("sample.nt"), dir.join("sample.snap"));
    std::fs::write(&data, SAMPLE).unwrap();
    let (data, path) = (data.to_str().unwrap(), snap.to_str().unwrap());
    for (args, expected) in [
        (
            &["--lubm", "1"][..],
            &["generate", "freeze", "type_aware", "other"][..],
        ),
        (
            &["--ntriples", data, "--inference"],
            &["parse", "inference", "freeze", "type_aware", "other"],
        ),
    ] {
        let output = server(&[args, &["--save-snapshot", path]].concat());
        assert!(output.status.success(), "{}", stderr(&output));
        let (total, stages) = ready_split(&stderr(&output));
        let names: Vec<&str> = stages.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, expected, "{args:?}");
        // Each figure is rounded to 0.1 ms.
        let sum: f64 = stages.iter().map(|(_, ms)| ms).sum();
        assert!(
            (sum - total).abs() <= 0.05 * (stages.len() + 1) as f64,
            "{args:?}: {stages:?} of {total}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The default thread count reaches every query's pool, which spawns a
/// worker per start vertex up to that count: a count outside
/// `1..=MAX_THREADS` is refused, with the range, before the store is loaded.
#[test]
fn a_thread_count_outside_the_bound_is_refused_before_loading() {
    assert_eq!(turbohom_service::MAX_THREADS, 64);
    for threads in ["0", "65"] {
        let output = server(&["--bind", "127.0.0.1:0", "--lubm", "1", "--threads", threads]);
        let printed = stderr(&output);
        assert!(!output.status.success(), "--threads {threads}: {printed}");
        assert!(
            printed.contains("--threads expects an integer from 1 to 64"),
            "--threads {threads}: {printed}"
        );
        assert!(
            !printed.contains("store ready"),
            "--threads {threads}: {printed}"
        );
    }
}
