//! Connect-to-first-answer latency on an idle daemon. Alone in its test
//! binary so no sibling test competes for the cores while it measures.

use std::time::{Duration, Instant};

use tacos_serve::{Client, Daemon, DaemonConfig};

#[test]
fn a_fresh_connection_is_answered_without_waiting_out_a_poll() {
    let daemon = Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        quiet: true,
        ..DaemonConfig::default()
    })
    .expect("daemon starts");

    // `connect` alone returns from the kernel's backlog; the ping's answer
    // proves the accept thread picked the connection up.
    let mut samples: Vec<Duration> = (0..50)
        .map(|i| {
            let started = Instant::now();
            let mut client = Client::connect(daemon.addr()).expect("connect");
            let pong = client.call_raw("{\"op\":\"ping\"}").expect("pong");
            let took = started.elapsed();
            assert!(pong.contains("pong"), "session {i}: {pong}");
            took
        })
        .collect();
    samples.sort();
    let median = samples[samples.len() / 2];
    // An accept loop that sleeps 25 ms between polls answers a fresh
    // connection after 12.5 ms on average; a blocking accept answers in
    // well under a millisecond. 8 ms separates the two with room for a
    // busy CI box.
    assert!(
        median < Duration::from_millis(8),
        "median connect+ping took {median:?} (fastest {:?}, slowest {:?})",
        samples[0],
        samples[samples.len() - 1]
    );
    daemon.stop().expect("clean stop");
}
