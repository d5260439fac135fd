//! Tests of the `qrc-serve` stdin front end on the real binary.
//!
//! * SIGTERM drains. Before the fix, a TERM delivered while the stdin
//!   reader was parked in a blocking `read_line` never interrupted the
//!   read (glibc's `signal()` implies `SA_RESTART`), so the process
//!   either hung until the next input line or died with exit 143 from
//!   the raw default disposition. Now every front end shares the
//!   drain-on-TERM path: answer everything already read, flush, and
//!   exit 0.
//! * Control lines act in stream order: a `stats` line counts exactly
//!   the requests read before it.
//! * The removed stdin modes fail as unknown flags.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Spawns the real `qrc-serve` binary against a private freshly
/// trained model directory (tiny budget: this is a drain test, not a
/// quality test).
fn spawn_server(name: &str, extra: &[&str]) -> (Child, std::path::PathBuf) {
    let models = std::env::temp_dir().join(format!("qrc_drain_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&models);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qrc-serve"));
    cmd.arg("--models")
        .arg(&models)
        .args(["--timesteps", "600", "--train-max-qubits", "3", "--quiet"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    (cmd.spawn().expect("spawn qrc-serve"), models)
}

fn bell_line(id: &str) -> String {
    let mut qc = qrc_circuit::QuantumCircuit::new(2);
    qc.h(0).cx(0, 1).measure_all();
    format!(
        r#"{{"id":"{id}","qasm":{}}}"#,
        serde_json::to_string(&serde_json::Value::from(qrc_circuit::qasm::to_qasm(&qc)))
    )
}

/// Waits for the child to exit, failing the test if it is still alive
/// after the deadline (the pre-fix hang mode).
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            panic!("server did not exit within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Drives one server: answer a request to prove it is up, TERM it
/// while its reader is parked on the open-but-quiet stdin pipe, and
/// require a clean exit-0 drain.
fn term_drains_cleanly(name: &str, extra: &[&str]) {
    let (mut child, models) = spawn_server(name, extra);
    let mut stdin = child.stdin.take().expect("stdin handle");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout handle"));

    writeln!(stdin, "{}", bell_line("warm")).expect("write request");
    stdin.flush().expect("flush request");
    let mut reply = String::new();
    stdout.read_line(&mut reply).expect("read reply");
    assert!(
        reply.contains(r#""ok":true"#),
        "warmup request failed: {reply}"
    );

    // Stdin stays open: the reader thread is now parked in a blocking
    // read that SIGTERM cannot interrupt. The drain loop must notice
    // the flag on its own.
    let pid = child.id().to_string();
    let killed = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM");
    assert!(killed.success(), "kill -TERM failed");

    let status = wait_with_deadline(&mut child, Duration::from_secs(60));
    assert!(
        status.success(),
        "expected exit 0 after SIGTERM drain, got {status:?}"
    );
    drop(stdin);
    let _ = std::fs::remove_dir_all(models);
}

#[test]
fn sigterm_drains_pipelined_stdin_with_exit_zero() {
    term_drains_cleanly("pipelined", &[]);
}

#[test]
fn stdin_control_lines_act_after_the_requests_before_them() {
    let (mut child, models) = spawn_server("order", &[]);
    let mut stdin = child.stdin.take().expect("stdin handle");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout handle"));

    // One write: the reader takes in all five lines while the first
    // request is still being compiled.
    let script = [
        bell_line("first"),
        r#"{"cmd":"stats"}"#.to_string(),
        bell_line("second"),
        r#"{"cmd":"stats"}"#.to_string(),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    writeln!(stdin, "{}", script.join("\n")).expect("write script");
    stdin.flush().expect("flush script");

    let replies: Vec<serde_json::Value> = stdout
        .by_ref()
        .lines()
        .take(script.len())
        .map(|line| serde_json::from_str(&line.expect("read reply")).expect("reply is JSON"))
        .collect();
    let status = wait_with_deadline(&mut child, Duration::from_secs(60));
    assert!(status.success(), "expected exit 0, got {status:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read to EOF");
    assert_eq!(replies.len(), 5, "{replies:?}");
    assert!(rest.is_empty(), "unexpected extra output: {rest}");
    let id = |i: usize| replies[i].get("id").and_then(serde_json::Value::as_str);
    let requests = |i: usize| {
        replies[i]
            .get("requests")
            .and_then(serde_json::Value::as_u64)
    };
    assert_eq!(id(0), Some("first"), "{replies:?}");
    assert_eq!(requests(1), Some(1), "first stats: {:?}", replies[1]);
    assert_eq!(id(2), Some("second"), "{replies:?}");
    assert_eq!(requests(3), Some(2), "second stats: {:?}", replies[3]);
    assert_eq!(
        replies[4].get("shutting_down"),
        Some(&serde_json::Value::from(true)),
        "{replies:?}"
    );
    drop(stdin);
    let _ = std::fs::remove_dir_all(models);
}

#[test]
fn removed_stdin_modes_are_unknown_flags() {
    // The read-then-compute stdin loop and the serial-miss switch are
    // gone; asking for either is a usage error.
    for name in ["blocking", "serial"] {
        let flag = format!("--{name}");
        let output = Command::new(env!("CARGO_BIN_EXE_qrc-serve"))
            .args([flag.as_str(), "--quiet"])
            .stdin(Stdio::null())
            .output()
            .expect("run qrc-serve");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{flag}: {stderr}"
        );
    }
}
