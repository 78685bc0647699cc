//! A layered, closed-loop benchmark of the path a user of the cellular-flows
//! runtime actually runs: `Simulation` with monitors and sinks on a sparse
//! corridor and a dense merge, and the message-passing deployment under a
//! chaos campaign. See `README.md` in this directory for the workloads, the
//! metric glossary and what each layer metric should move.

pub mod bench;
pub mod probes;
pub mod stacks;
pub mod workload;

pub use bench::{run, Metric, Options, Report, END_TO_END, PER_LAYER, TRACE_OVERHEAD};
pub use workload::{Digest, Kind, Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Build and host facts recorded with every result.
pub fn provenance() -> Vec<(&'static str, String)> {
    vec![
        ("cores", bench::cores().to_string()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
        ("commit", git_commit()),
    ]
}

/// The commit the checkout's `.git` names, or `"unavailable"` outside a
/// git checkout.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let Some(head) = read("HEAD") else {
        return "unavailable".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unavailable".to_string())
}
