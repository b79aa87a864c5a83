//! `reproduce` exits with its own status when its reader goes away
//! (`reproduce … | head`), instead of panicking on the closed pipe.

use std::io::Read;
use std::process::{Command, Stdio};

/// Runs `reproduce args`, reads at most its first stdout line, closes the
/// pipe and returns the exit code. With `first_line == false` the pipe is
/// closed before anything is read.
fn exit_code_with_stdout_closed(args: &[&str], first_line: bool) -> Option<i32> {
    let out = std::env::temp_dir().join(format!("reproduce_closed_stdout_{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn reproduce");
    let mut stdout = child.stdout.take().expect("piped stdout");
    if first_line {
        // Byte by byte, so no more than the line leaves the pipe.
        let mut byte = [0u8];
        while stdout.read(&mut byte).expect("read stdout") == 1 && byte[0] != b'\n' {}
    }
    drop(stdout);
    let status = child.wait().expect("wait for reproduce");
    let _ = std::fs::remove_dir_all(&out);
    status.code()
}

#[test]
fn a_closed_stdout_leaves_the_exit_status_to_the_run() {
    // The full grid's key list (≈ 87 kB) overflows the pipe, so the
    // writes after the first line meet the closed pipe.
    let listed = exit_code_with_stdout_closed(&["campaign", "--lane", "full", "--list"], true);
    assert_eq!(listed, Some(0), "a passing command exits 0");
    // The sabotaged cell fails its gate; it prints only after simulating,
    // by which time nobody reads.
    let sabotaged = exit_code_with_stdout_closed(
        &[
            "campaign",
            "--filter",
            "poisson+stale_q+ident+1shard+paper",
            "--sabotage",
        ],
        false,
    );
    assert_eq!(sabotaged, Some(1), "a failing gate exits 1");
}
