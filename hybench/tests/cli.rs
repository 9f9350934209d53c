//! Runs the benchmark binary end to end and checks its output contract.

use std::collections::BTreeMap;
use std::process::Command;

/// One run's output: `metric` lines, the `digest` line, `note` lines and
/// the closing JSON line.
struct Output {
    lines: Vec<String>,
    metrics: BTreeMap<String, (f64, String)>,
    digest: String,
    json: String,
}

impl Output {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .0
    }

    /// A whole-number field of the closing JSON line.
    fn json_count(&self, key: &str) -> u64 {
        let at = self
            .json
            .find(&format!("\"{key}\": "))
            .expect("key present")
            + key.len()
            + 4;
        let digits: String = self.json[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("whole number")
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_hybench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut metrics = BTreeMap::new();
    let mut digest = String::new();
    for line in &lines {
        let words: Vec<&str> = line.split(' ').collect();
        match words[0] {
            "metric" => {
                assert_eq!(words.len(), 4, "`metric <name> <value> <unit>`: {line}");
                let value: f64 = words[2].parse().expect("numeric value");
                assert!(metrics
                    .insert(words[1].to_string(), (value, words[3].to_string()))
                    .is_none());
            }
            "digest" => digest = words[1].to_string(),
            _ => {}
        }
    }
    let json = lines.last().expect("output").clone();
    Output {
        lines,
        metrics,
        digest,
        json,
    }
}

#[test]
fn output_has_one_named_metric_per_line_with_its_unit() {
    let out = run("sim_spec", 3, false);
    let expected = [
        ("setup_s", "s"),
        ("sim_minst_per_s", "Minst/s"),
        ("sim_mpki", "mpki"),
        ("peak_rss_mb", "MiB"),
    ];
    assert_eq!(out.metrics.len(), expected.len());
    for (name, unit) in expected {
        let (value, u) = &out.metrics[name];
        assert_eq!(u, unit);
        assert!(*value > 0.0, "{name} is {value}");
        assert!(
            out.json.contains(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )),
            "{name} in {}",
            out.json
        );
    }
    assert!(out.json.starts_with("{\"correct\": true, \"attempted\": "));
    assert_eq!(out.json_count("failed"), 0);
    assert!(out.json_count("attempted") >= 9, "one round of nine kinds");
}

/// Simulated statistics repeat exactly across runs, whether or not spans
/// are recorded.
#[test]
fn traced_and_untraced_runs_report_identical_simulated_statistics() {
    for workload in ["sim_spec", "serve_churn", "trace_sampled"] {
        let plain = run(workload, 5, false);
        let traced = run(workload, 5, true);
        let again = run(workload, 5, true);
        assert!(!plain.digest.is_empty());
        assert_eq!(plain.digest, traced.digest, "{workload}");
        assert_eq!(traced.digest, again.digest, "{workload}");
        assert!(traced.json.contains("\"correct\": true"));
        for (name, (value, unit)) in &traced.metrics {
            if unit == "count" || unit == "cycles" {
                assert_eq!(again.metric(name), *value, "{workload} {name}");
            }
        }
        if workload == "trace_sampled" {
            assert_eq!(
                again.metric("sampled_mpki_error"),
                traced.metric("sampled_mpki_error")
            );
        } else {
            assert!(traced.metric("bpu.branches") > 0.0);
            assert!(traced.metric("keys.switch_us") > 0.0);
        }
    }
}

/// The benchmark's serve traffic stays within the engine's queues: no
/// request is shed, so nothing fails. (That a shed request would count as
/// failed is checked by the `serve` unit tests, on bursty traffic.)
#[test]
fn serve_workloads_shed_nothing() {
    for workload in ["serve_soak", "serve_churn"] {
        let out = run(workload, 1, true);
        assert!(out.json.contains("\"correct\": true"), "{workload}");
        assert_eq!(out.json_count("failed"), 0, "{workload}");
        assert_eq!(out.metric("serve.shed_overload"), 0.0, "{workload}");
        assert_eq!(out.metric("serve.shed_deadline"), 0.0, "{workload}");
        assert_eq!(out.metric("serve.lost"), 0.0, "{workload}");
        assert!(out.metric("serve.answered") > 0.0, "{workload}");
    }
}

/// The known sampling defect (an estimate outside its own bound) shows up
/// in `sampled.bound_misses` and on its `note` line; it is a defect of the
/// estimator, so no operation fails and the run is still correct.
#[test]
fn estimates_outside_their_bound_show_in_the_bound_miss_count() {
    let out = run("trace_sampled", 1, true);
    let defect = out
        .lines
        .iter()
        .find(|l| l.starts_with("note known defect (seed 0x5eed)"))
        .expect("note for the known-defect trace");
    let field = |key: &str| -> f64 {
        let at = defect.find(key).expect("field") + key.len();
        defect[at..]
            .split([' ', ','])
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(field("error ") > field("bound "), "{defect}");
    assert!(out.metric("sampled.bound_misses") >= 1.0);
    assert!(out.json.contains("\"correct\": true"));
    assert_eq!(out.json_count("failed"), 0);
}
