//! The CLI's `--json` release documents and the service's release responses
//! come from one encoder (`impl Serialize for SessionRelease`): for the same
//! plan, table and seed, the document `datacube-dp release --json` prints
//! parses to exactly the value the service renders for `Session::release`.

use datacube_dp::cli::{
    build_workload, compile_plan, load_dataset, privacy_level, DatasetArg, DATASET_SEED,
};
use datacube_dp::prelude::*;
use datacube_dp::service::protocol::{parse_line, render_line};
use serde::{Serialize, Value};
use std::process::Command;

/// Runs `datacube-dp release … --seed 9 --json` plus `extra` flags and
/// parses what it prints.
fn cli_json(extra: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_datacube-dp"))
        .args([
            "release",
            "--dataset",
            "nltcs",
            "--workload",
            "q1",
            "--strategy",
            "f",
            "--budgets",
            "optimal",
            "--epsilon",
            "0.5",
            "--seed",
            "9",
            "--json",
        ])
        .args(extra)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the CLI binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::parse_value(std::str::from_utf8(&out.stdout).unwrap()).unwrap()
}

#[test]
fn cli_json_documents_equal_the_service_encoding() {
    let (schema, table) = load_dataset(DatasetArg::Nltcs, DATASET_SEED).unwrap();
    let plan = compile_plan(
        &schema,
        build_workload(&schema, "q1").unwrap(),
        StrategyKind::Fourier,
        Budgeting::Optimal,
        privacy_level(0.5, None),
        ClusterConfig::default(),
    )
    .unwrap();
    let session = Session::bind(&plan, &table).unwrap();
    // What the service sends for this release, read back off the wire.
    let served = |seed: u64| {
        parse_line(&render_line(
            &session.release(seed).unwrap().serialize_value(),
        ))
    };
    assert_eq!(cli_json(&[]), served(9).unwrap());
    let batch = Value::Array(vec![
        served(9).unwrap(),
        served(10).unwrap(),
        served(11).unwrap(),
    ]);
    assert_eq!(cli_json(&["--batch", "3"]), batch);
}
