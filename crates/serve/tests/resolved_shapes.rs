//! The resolved-shape table, observed from outside: a remembered shape
//! answers exactly what a daemon that has never seen it answers; the
//! table is bounded, never holds a failure, never stands in for an
//! evicted schedule, and leaves single-flight alone.

use std::collections::BTreeSet;
use std::sync::Barrier;

use tacos_core::WarmLimits;
use tacos_report::Json;
use tacos_serve::{
    Client, Daemon, DaemonConfig, DaemonHandle, FaultPlan, Request, Shape, MAX_RESOLVED_SHAPES,
};

fn spawn(config: DaemonConfig) -> DaemonHandle {
    Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        quiet: true,
        ..config
    })
    .expect("daemon starts")
}

fn ask(client: &mut Client, line: &str) -> String {
    let response = client.call_raw(line).expect("response");
    assert!(response.contains(r#""status":"ok""#), "{line}: {response}");
    response
}

/// A response without the fields that say how the answer was come by.
fn content(response: &str) -> Json {
    let Json::Obj(mut fields) = Json::parse(response.trim_end()).expect("a JSON line") else {
        panic!("not an object: {response}");
    };
    for how in ["cache_hit", "synthesis_ms", "deduplicated"] {
        assert!(fields.remove(how).is_some(), "no '{how}' in {response}");
    }
    Json::Obj(fields)
}

/// The shape of a request line. Both destructurings are exhaustive: a
/// field added to [`Request`] has to be declared here as delivery (`_`)
/// or moved into [`Shape`], and a field added to [`Shape`] needs a row
/// in the table the test below varies.
fn shape_fields(line: &str) -> [(&'static str, String); 9] {
    let Request {
        id: _,
        op: _,
        shape,
        deadline_ms: _,
        include_algorithm: _,
    } = Request::parse(line).expect("a valid request");
    let Shape {
        topology,
        collective,
        size,
        mechanism,
        chunks,
        link,
        seed,
        attempts,
        prefer_cheap_links,
    } = shape;
    [
        ("topology", topology),
        ("collective", collective),
        ("size", size),
        ("mechanism", mechanism),
        ("chunks", chunks.to_string()),
        ("link", format!("{link:?}")),
        ("seed", format!("{seed:?}")),
        ("attempts", format!("{attempts:?}")),
        ("prefer_cheap_links", format!("{prefer_cheap_links:?}")),
    ]
}

#[test]
fn a_remembered_shape_answers_what_a_fresh_daemon_answers() {
    const REST: &str = r#""collective":"all-gather","size":"4MB","seed":3"#;
    let with = |extra: &str| format!(r#"{{"topology":"mesh:3x3",{REST}{extra}}}"#);
    let base = with("");
    // One field of the shape changed per line (a later duplicate key
    // would be refused, so each replaces by spelling the line out).
    let lines = [
        base.clone(),
        r#"{"topology":"ring:9","collective":"all-gather","size":"4MB","seed":3}"#.to_string(),
        r#"{"topology":"mesh:3x3","collective":"all-reduce","size":"4MB","seed":3}"#.to_string(),
        r#"{"topology":"mesh:3x3","collective":"all-gather","size":"9MB","seed":3}"#.to_string(),
        r#"{"topology":"mesh:3x3","collective":"all-gather","size":"4MB","seed":4}"#.to_string(),
        with(r#","mechanism":"tacos:2""#),
        with(r#","mechanism":"ring""#),
        with(r#","mechanism":"ideal""#),
        with(r#","chunks":2"#),
        with(r#","alpha_us":1.0"#),
        with(r#","link_gbps":25"#),
        with(r#","attempts":2"#),
        with(r#","prefer_cheap_links":false"#),
        // The base shape again, delivered differently.
        with(r#","include_algorithm":true"#),
        with(r#","id":5"#),
        with(r#","deadline_ms":60000,"id":6"#),
        // A deterministic baseline ignores the seed: a new shape whose
        // key is already warm.
        r#"{"topology":"mesh:3x3","collective":"all-gather","size":"4MB","seed":4,"mechanism":"ring"}"#
            .to_string(),
    ];

    // Every shape field is varied on its own by some line above.
    let base_fields = shape_fields(&base);
    let varied: BTreeSet<&str> = lines
        .iter()
        .filter_map(|l| {
            let fields = shape_fields(l);
            let mut changed = (0..fields.len()).filter(|&i| fields[i] != base_fields[i]);
            match (changed.next(), changed.next()) {
                (Some(only), None) => Some(fields[only].0),
                _ => None,
            }
        })
        .collect();
    assert_eq!(
        varied,
        base_fields.iter().map(|(name, _)| *name).collect(),
        "a shape field no line varies"
    );

    let remembering = spawn(DaemonConfig::default());
    let fresh = spawn(DaemonConfig::default());
    let mut to_remembering = Client::connect(remembering.addr()).unwrap();
    let mut to_fresh = Client::connect(fresh.addr()).unwrap();
    let mut distinct = BTreeSet::new();
    for line in &lines {
        let first = ask(&mut to_remembering, line);
        let second = ask(&mut to_remembering, line);
        let third = ask(&mut to_remembering, line);
        assert_eq!(second, third, "{line}");
        assert_eq!(content(&first), content(&second), "{line}");
        // The daemon that sees each line once answers the first ask to
        // the byte, bar the clock.
        let unseen = Json::parse(ask(&mut to_fresh, line).trim_end()).unwrap();
        let first = Json::parse(first.trim_end()).unwrap();
        for field in ["cache_hit", "deduplicated"] {
            assert_eq!(first.get(field), unseen.get(field), "{line}: {field}");
        }
        assert_eq!(content(&second), content(&unseen.to_string()), "{line}");
        assert_eq!(
            second.contains("algorithm_compact"),
            line.contains("include_algorithm"),
            "{line}"
        );
        distinct.insert(content(&second).to_string());
    }
    // Not vacuous: nearly every line has an answer of its own.
    assert!(distinct.len() >= 10, "{distinct:?}");

    let shapes = lines
        .iter()
        .map(|l| shape_fields(l))
        .collect::<BTreeSet<_>>()
        .len() as u64;
    let stats = remembering.stats();
    assert_eq!(stats.resolved_shapes, shapes, "{stats:?}");
    // Asks two and three of every line, and ask one of the three lines
    // that re-deliver the base shape.
    assert_eq!(stats.resolve_hits, 2 * lines.len() as u64 + 3, "{stats:?}");
    let stats = fresh.stats();
    assert_eq!((stats.resolved_shapes, stats.resolve_hits), (shapes, 3));
    remembering.stop().unwrap();
    fresh.stop().unwrap();
}

#[test]
fn the_table_is_cleared_when_full_and_answers_survive_the_clear() {
    let daemon = spawn(DaemonConfig::default());
    let mut client = Client::connect(daemon.addr()).unwrap();
    let schedule = r#"{"topology":"ring:4","size":"1MB","include_algorithm":true}"#;
    ask(&mut client, schedule);
    let before = ask(&mut client, schedule);
    assert!(before.contains(r#""cache_hit":true"#), "{before}");

    // The ideal bound ignores the seed, so every one of these is a new
    // shape with the same cheap answer.
    let ideal =
        |seed: usize| format!(r#"{{"topology":"ring:4","mechanism":"ideal","seed":{seed}}}"#);
    let expected = content(&ask(&mut client, &ideal(0)));
    let extra = 40;
    for seed in 1..MAX_RESOLVED_SHAPES + extra {
        assert_eq!(content(&ask(&mut client, &ideal(seed))), expected, "{seed}");
        if seed % 256 == 0 || seed + 2 >= MAX_RESOLVED_SHAPES {
            let held = daemon.stats().resolved_shapes;
            assert!(held <= MAX_RESOLVED_SHAPES as u64, "seed {seed}: {held}");
        }
    }
    // The schedule's shape and the first MAX-1 seeds filled the table;
    // the next seed cleared it and `extra` more have arrived since.
    let stats = daemon.stats();
    assert_eq!(stats.resolved_shapes, 1 + extra as u64, "{stats:?}");

    // Forgotten shapes are resolved again and answer as before; the
    // warm cache was not touched by the clear.
    assert_eq!(content(&ask(&mut client, &ideal(0))), expected);
    assert_eq!(ask(&mut client, schedule), before);
    let after = daemon.stats();
    assert_eq!(after.resolve_hits, stats.resolve_hits, "{after:?}");
    assert_eq!(after.resolved_shapes, 3 + extra as u64, "{after:?}");
    assert_eq!((after.synthesized, after.errors), (1, 0), "{after:?}");
    daemon.stop().unwrap();
}

#[test]
fn a_remembered_shape_whose_schedule_was_evicted_is_synthesized_again() {
    let daemon = spawn(DaemonConfig {
        workers: 1,
        warm_limits: WarmLimits {
            max_entries: 1,
            max_bytes: 0,
        },
        ..DaemonConfig::default()
    });
    let mut client = Client::connect(daemon.addr()).unwrap();
    let shapes = [
        r#"{"topology":"ring:4","collective":"all-gather","size":"1MB"}"#,
        r#"{"topology":"mesh:2x2","collective":"all-gather","size":"1MB"}"#,
    ];
    let rounds = 4;
    let mut answers = [None, None];
    for _ in 0..rounds {
        for (shape, answer) in shapes.iter().zip(&mut answers) {
            let response = ask(&mut client, shape);
            assert!(response.contains(r#""cache_hit":false"#), "{response}");
            let content = content(&response);
            assert_eq!(*answer.get_or_insert(content.clone()), content, "{shape}");
        }
    }
    // What the daemon did before it had a table: each ask finds the
    // other shape's schedule in the one slot, synthesizes, and evicts it.
    let asks = 2 * rounds;
    let stats = daemon.stats();
    assert_eq!(stats.synthesized, asks, "{stats:?}");
    assert_eq!(stats.evictions, asks - 1, "{stats:?}");
    assert_eq!((stats.cache_hits, stats.warm_entries), (0, 1), "{stats:?}");
    // The table knew both shapes from the second round on, to no avail.
    assert_eq!(stats.resolve_hits, asks - 2, "{stats:?}");
    assert_eq!(stats.resolved_shapes, 2, "{stats:?}");
    daemon.stop().unwrap();
}

#[test]
fn failing_requests_are_never_remembered() {
    let daemon = spawn(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let mut client = Client::connect(daemon.addr()).unwrap();
    let floods = 60u64;
    for seed in 0..floods {
        for (what, line) in [
            // Unresolvable: no such fabric, no such size, too many chunks.
            (
                "topology",
                format!(r#"{{"topology":"ring:1","seed":{seed}}}"#),
            ),
            (
                "size",
                format!(r#"{{"topology":"ring:4","size":"{seed}furlongs"}}"#),
            ),
            (
                "chunks",
                format!(r#"{{"topology":"ring:4","chunks":4611686018427387904,"seed":{seed}}}"#),
            ),
            // Resolvable, fails on the worker: recursive halving-doubling
            // needs a power-of-two NPU count.
            (
                "generation",
                format!(r#"{{"topology":"ring:3","size":"3MB","mechanism":"rhd","seed":{seed}}}"#),
            ),
        ] {
            let response = client.call(&line).expect("a typed response");
            assert_eq!(
                response.get("status").and_then(Json::as_str),
                Some("error"),
                "{what}: {response}"
            );
        }
    }
    let stats = daemon.stats();
    assert_eq!(stats.errors, 4 * floods, "{stats:?}");
    assert_eq!(
        (stats.resolved_shapes, stats.resolve_hits),
        (0, 0),
        "{stats:?}"
    );
    assert_eq!(stats.worker_restarts, 0, "{stats:?}");
    daemon.stop().unwrap();
}

#[test]
fn two_clients_racing_on_a_new_shape_share_one_synthesis() {
    let daemon = spawn(DaemonConfig {
        workers: 2,
        // Hold the leader's job until the follower has joined its flight.
        faults: FaultPlan::none().with_stall(1, 300),
        ..DaemonConfig::default()
    });
    let line = r#"{"topology":"mesh:3x3","collective":"all-gather","size":"4MB"}"#;
    let barrier = Barrier::new(2);
    let responses: Vec<String> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(daemon.addr()).unwrap();
                    barrier.wait();
                    ask(&mut client, line)
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(content(&responses[0]), content(&responses[1]));
    let stats = daemon.stats();
    assert_eq!(
        (stats.synthesized, stats.deduplicated, stats.cache_hits),
        (1, 1, 0),
        "{stats:?}"
    );
    // Both remembered the same shape; neither had it to look up.
    assert_eq!(
        (stats.resolved_shapes, stats.resolve_hits),
        (1, 0),
        "{stats:?}"
    );

    let mut client = Client::connect(daemon.addr()).unwrap();
    let late = ask(&mut client, line);
    assert!(late.contains(r#""cache_hit":true"#), "{late}");
    assert_eq!(content(&late), content(&responses[0]));
    let stats = daemon.stats();
    assert_eq!((stats.synthesized, stats.resolve_hits), (1, 1), "{stats:?}");
    daemon.stop().unwrap();
}
