//! `--help` prints the one usage text — rendered from the subcommands'
//! flag tables — byte for byte from the top level and from every
//! subcommand, and exits zero. The fixture is the text the hand-kept
//! usage block printed before the tables replaced it.

use std::process::Command;

const HELP: &str = include_str!("fixtures/help.txt");

#[test]
fn every_subcommand_prints_the_usage_text() {
    let asks: [&[&str]; 8] = [
        &["--help"],
        &["-h"],
        &["--topology", "ring:4", "--help"],
        &["scenario", "run", "--help"],
        &["scenario", "expand", "--help"],
        &["scenario", "diff", "--help"],
        &["serve", "--help"],
        &["lint", "--help"],
    ];
    for args in asks {
        let out = Command::new(env!("CARGO_BIN_EXE_tacos"))
            .args(args)
            .output()
            .expect("tacos binary runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), HELP, "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

/// The chaos harness and fault injection are test code, not commands:
/// naming them is a usage error, even with `--help` after it.
#[test]
fn test_harnesses_are_not_commands() {
    for (args, first) in [
        (&["chaos"][..], "error: unknown argument 'chaos'"),
        (&["chaos", "--help"], "error: unknown argument 'chaos'"),
        (
            &["serve", "--faults", "panic@1"],
            "error: unknown serve argument '--faults'",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tacos"))
            .args(args)
            .output()
            .expect("tacos binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(stderr.lines().next(), Some(first), "{args:?}");
    }
}
