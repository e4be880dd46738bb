//! `--help` prints the one usage text — rendered from the subcommands'
//! flag tables — byte for byte from the top level and from every
//! subcommand, and exits zero. The fixture is the text the hand-kept
//! usage block printed before the tables replaced it.

use std::process::Command;

const HELP: &str = include_str!("fixtures/help.txt");

#[test]
fn every_subcommand_prints_the_usage_text() {
    let asks: [&[&str]; 9] = [
        &["--help"],
        &["-h"],
        &["--topology", "ring:4", "--help"],
        &["scenario", "run", "--help"],
        &["scenario", "expand", "--help"],
        &["scenario", "diff", "--help"],
        &["serve", "--help"],
        &["chaos", "--help"],
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
