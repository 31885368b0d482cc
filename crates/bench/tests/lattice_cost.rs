//! The lattice configuration of the decode bench. It runs in a test
//! process of its own: the lattice sessions grow the heap in bursts,
//! which the in-process RSS probes of the library's unit tests would
//! read as their own.

use unfold::{System, TaskSpec};
use unfold_bench::decode_bench::{measure, measure_lattice, DecodeBenchReport};

#[test]
fn lattice_cost_measures_and_serializes() {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(2);
    let cost = measure_lattice(&system, &utts, 2);
    assert!(cost.frames_per_sec > 0.0);
    assert!(cost.cost_ratio > 0.0);
    let report = DecodeBenchReport {
        lattice: Some(cost),
        ..measure(&system, &utts, 1)
    };
    let json = report.to_json();
    for key in ["\"lattice_frames_per_sec\": ", "\"lattice_cost_ratio\": "] {
        let value = json
            .split(key)
            .nth(1)
            .unwrap_or_else(|| panic!("missing {key} in:\n{json}"));
        assert!(!value.starts_with("null"), "{key} is null in:\n{json}");
    }
}
