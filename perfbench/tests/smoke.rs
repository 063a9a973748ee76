//! Tiny-size smoke of every workload, traced and untraced: each run must
//! exit 0, report `correct: true`, and emit every metric `BENCHMARK.json`
//! names, with its unit.

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find("\"workloads\"").expect("workloads");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let open = rest.find('"').expect("name value") + 1;
            let close = open + rest[open..].find('"').expect("closed");
            rest[open..close].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_emits(workload: &str, trace: bool, section: &str) {
    let last = run(workload, trace);
    assert!(last.starts_with("{\"correct\":true,"), "{workload}: {last}");
    let wanted = metrics(section);
    assert!(!wanted.is_empty());
    for (name, unit) in wanted {
        let key = format!("\"{name}\":{{\"value\":");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}: {last}"));
        let rest = &last[at + key.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .unwrap_or_else(|_| panic!("{name} is not a number: {rest}"));
        assert!(value.is_finite(), "{name} = {value}");
        let entry = &rest[..rest.find('}').expect("metric object ends")];
        assert!(
            entry.ends_with(&format!("\"unit\":\"{unit}\"")),
            "{name} lacks unit {unit}: {entry}"
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in workloads() {
        assert_emits(&w, false, "end_to_end");
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for w in workloads() {
        assert_emits(&w, true, "per_layer");
    }
}
