//! The `flowmig` binary rejects bad flags before the run starts, and flag
//! values it accepts do not panic mid-run.

use std::process::{Command, Output};

/// Runs the `flowmig` binary with `args`.
fn flowmig(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flowmig")).args(args).output().expect("flowmig runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn shard_outage_beyond_the_store_is_rejected_before_the_run() {
    for (args, shards) in [
        (&["--dag", "linear", "--shard-outage", "8:200:5"][..], 8),
        (&["--dag", "linear", "--shards", "4", "--shard-outage", "4:100:5"][..], 4),
        (&["--shards", "2", "--shard-outage", "0:100:5", "--shard-outage", "9:100:5"][..], 2),
    ] {
        let out = flowmig(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(&format!("the store has {shards} shards")), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: rejected before the run");
    }
}

#[test]
fn shard_outage_on_the_last_shard_runs() {
    // Shard 15 exists once --shards says so, past the default count;
    // --transport-buffer must not reset the count.
    let out = flowmig(&[
        "--dag",
        "linear",
        "--shards",
        "16",
        "--transport-buffer",
        "10",
        "--shard-outage",
        "15:100:5",
        "--request-secs",
        "60",
        "--horizon-secs",
        "150",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("store realism:"));
}

#[test]
fn key_skew_past_the_u64_power_range_runs() {
    // 16^16 and 8^22 overflow u64: those ranks weigh 0 instead of
    // wrapping to an infinite weight.
    for skew in ["16:16", "8:22"] {
        let out = flowmig(&[
            "--dag",
            "linear",
            "--key-skew",
            skew,
            "--request-secs",
            "60",
            "--horizon-secs",
            "150",
        ]);
        assert_eq!(out.status.code(), Some(0), "--key-skew {skew}: {}", stderr(&out));
        assert!(String::from_utf8_lossy(&out.stdout).contains("completed:"), "--key-skew {skew}");
    }
}

#[test]
fn key_skew_beyond_the_partition_bound_is_rejected_before_the_run() {
    // 4e9 partitions would need a 32-GB weight vector per keyed task.
    let out = flowmig(&["--key-skew", "4000000000:1"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "rejected before the run");
    assert!(stderr(&out).contains("at most 65536 key partitions"), "{}", stderr(&out));
}

#[test]
fn key_skew_at_the_partition_bound_runs() {
    let out = flowmig(&[
        "--dag",
        "linear",
        "--key-skew",
        "65536:1",
        "--request-secs",
        "60",
        "--horizon-secs",
        "150",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("completed:"));
}

#[test]
fn transport_buffer_keeps_the_store_shard_count() {
    // One queueing shard makes the shard count visible in the store-queue
    // line; the default transport buffer (10 slots) must not change it.
    let base = ["--dag", "grid", "--strategy", "CCR", "--shards", "1", "--store-queueing"];
    let store_queue = |extra: &[&str]| {
        let args = [&base[..], extra, &["--request-secs", "60", "--horizon-secs", "200"]].concat();
        let out = flowmig(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout.lines().find(|l| l.trim_start().starts_with("store queue:")).map(str::to_owned)
    };
    let one_shard = store_queue(&[]);
    assert!(one_shard.is_some(), "the store-queue line is printed");
    assert_eq!(one_shard, store_queue(&["--transport-buffer", "10"]));
}
