//! The `cellflow` binary rejects flags no subcommand reads.

use std::process::Command;

fn cellflow(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cellflow"))
        .args(args)
        .output()
        .expect("the cellflow binary runs")
}

#[test]
fn a_misspelled_flag_fails_the_command_and_is_named() {
    let out = cellflow(&["chaos", "--n", "3", "--rounds", "4", "--shard-workrs", "4"]);
    assert!(!out.status.success(), "a typo'd flag must not exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--shard-workrs"),
        "stderr does not name the flag: {stderr}"
    );
    assert!(out.stdout.is_empty(), "the campaign ran despite the typo");
}

#[test]
fn a_flag_the_chosen_mode_does_not_take_is_rejected() {
    // `--keyframe-interval` only means something next to `--record`.
    let out = cellflow(&["stabilize", "--n", "3", "--keyframe-interval", "4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--keyframe-interval"));
}

#[test]
fn correctly_spelled_flags_still_run() {
    let out = cellflow(&[
        "chaos",
        "--n",
        "3",
        "--rounds",
        "6",
        "--active",
        "2",
        "--shard-workers",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
