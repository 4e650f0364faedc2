//! The op-stream generator: one seed, one stream — whatever the clock does.

use drqos_benchmark::e2e::{graph, network, EngineTarget, Recorder};
use drqos_benchmark::ops::{Exec, Script, Shape, Spec, BURST, SPECS};
use drqos_sim::rng::Rng;
use std::io;
use std::time::Duration;

/// Records every command and reply crossing it; optionally dawdles a
/// seeded random while before each command, to stand in for a slow host.
struct Tape {
    inner: Recorder,
    transcript: Vec<u8>,
    dawdle: Option<Rng>,
}

impl Tape {
    fn new(spec: &Spec, dawdle: Option<u64>) -> Self {
        let target = EngineTarget::new(network(graph(spec.topology)), false);
        Self {
            inner: Recorder::new(Box::new(target)),
            transcript: Vec::new(),
            dawdle: dawdle.map(Rng::seed_from_u64),
        }
    }

    fn pause(&mut self) {
        if let Some(rng) = &mut self.dawdle {
            if rng.chance(0.02) {
                std::thread::sleep(Duration::from_micros(rng.range_u64(300)));
            }
        }
    }

    fn note(&mut self, line: &str, reply: &str) {
        for part in [line, "\n", reply, "\n"] {
            self.transcript.extend_from_slice(part.as_bytes());
        }
    }
}

impl Exec for Tape {
    fn exec(&mut self, line: &str) -> io::Result<String> {
        self.pause();
        let reply = self.inner.exec(line)?;
        self.note(line, &reply);
        Ok(reply)
    }

    fn exec_batch(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        self.pause();
        let replies = self.inner.exec_batch(lines)?;
        for (line, reply) in lines.iter().zip(&replies) {
            self.note(line, reply);
        }
        Ok(replies)
    }
}

fn stream(spec: &Spec, seed: u64, dawdle: Option<u64>) -> Vec<u8> {
    let spec = spec.quick();
    let g = graph(spec.topology);
    let mut script = Script::new(&spec, seed, 0, g.node_count(), g.link_count());
    let mut tape = Tape::new(&spec, dawdle);
    script.set_up(&mut tape).expect("set-up reaches P");
    assert_eq!(script.held(), spec.p);
    for _ in 0..spec.steps {
        script
            .step(&mut tape)
            .expect("in-process steps cannot fail");
    }
    assert_eq!(script.steps_done(), spec.steps as u64);
    tape.transcript
}

#[test]
fn the_same_seed_gives_a_byte_identical_stream() {
    for spec in &SPECS {
        assert_eq!(
            stream(spec, 11, None),
            stream(spec, 11, None),
            "{}",
            spec.name
        );
    }
}

#[test]
fn another_seed_gives_another_stream() {
    for spec in &SPECS {
        assert_ne!(
            stream(spec, 11, None),
            stream(spec, 12, None),
            "{}",
            spec.name
        );
    }
}

#[test]
fn the_stream_does_not_depend_on_timing() {
    for spec in &SPECS {
        assert_eq!(
            stream(spec, 11, None),
            stream(spec, 11, Some(99)),
            "{}: a dawdling executor changed the op stream",
            spec.name
        );
    }
}

#[test]
fn clients_of_one_workload_get_different_streams() {
    let spec = Spec::by_name("wire_small").unwrap().quick();
    let g = graph(spec.topology);
    let run = |client: usize| {
        let mut script = Script::new(&spec, 11, client, g.node_count(), g.link_count());
        let mut tape = Tape::new(&spec, None);
        script.set_up(&mut tape).unwrap();
        tape.transcript
    };
    assert_ne!(run(0), run(1));
}

#[test]
fn every_shape_sends_what_its_description_says() {
    for spec in &SPECS {
        let text = String::from_utf8(stream(spec, 3, None)).unwrap();
        let count = |verb: &str| text.lines().filter(|l| l.starts_with(verb)).count();
        let faults = count("FAIL-LINK");
        match spec.shape {
            Shape::Failover => {
                let steps = spec.quick().steps;
                assert_eq!(faults, steps / 10, "a fault every 10th cycle");
                // Never more than two links down: every fault past the
                // second is preceded by a repair.
                assert_eq!(count("REPAIR-LINK"), faults.saturating_sub(2));
            }
            _ => assert_eq!(faults, 0, "{}", spec.name),
        }
        assert!(
            count("ESTABLISH") > 0 && count("RELEASE") > 0,
            "{}",
            spec.name
        );
    }
}

#[test]
fn the_table_of_workloads_is_what_the_contract_allows() {
    let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), SPECS.len(), "workload names are unique");
    for spec in &SPECS {
        assert!(
            (1..=2).contains(&spec.clients),
            "{}: at most two client threads and connections",
            spec.name
        );
        if spec.shape == Shape::Burst {
            assert!(
                spec.quick().p >= BURST,
                "a burst needs {BURST} ids to release"
            );
        }
    }
}
