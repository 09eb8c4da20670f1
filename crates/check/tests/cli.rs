//! End-to-end tests of the `mao` command-line driver, exercising the
//! paper's invocation style (`--mao=PASS=opt[val]:ASM=o[path]`).

use std::process::Command;

fn mao() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mao"))
}

fn write_input(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mao-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write input");
    path
}

const INPUT: &str = "\t.type\tf, @function\nf:\n\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjne .L1\n\taddl $3, %eax\n\taddl $4, %eax\n.L1:\n\tret\n";

#[test]
fn paper_style_invocation_writes_output_file() {
    let input = write_input("in1.s", INPUT);
    let output = input.with_file_name("out1.s");
    let status = mao()
        .arg("--mao=REDTEST:ADDADD:ASM=o[".to_string() + output.to_str().unwrap() + "]")
        .arg(&input)
        .status()
        .expect("driver runs");
    assert!(status.success());
    let text = std::fs::read_to_string(&output).expect("output written");
    assert!(!text.contains("testl"), "{text}");
    assert!(text.contains("addl $7, %eax"), "{text}");
}

#[test]
fn default_emission_goes_to_stdout() {
    let input = write_input("in2.s", INPUT);
    let out = mao()
        .arg("--mao=REDTEST")
        .arg(&input)
        .output()
        .expect("driver runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("subl $16, %r15d"));
    assert!(!stdout.contains("testl"));
    // Pass statistics go to stderr, like the paper's tracing.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("REDTEST"), "{stderr}");
}

#[test]
fn lfind_trace_matches_paper_example() {
    // The paper's own example: --mao=LFIND=trace[0]:ASM=o[/dev/null].
    let input = write_input(
        "in3.s",
        "\t.type\tf, @function\nf:\n.L:\n\taddl $1, %eax\n\tjne .L\n\tret\n",
    );
    let out = mao()
        .arg("--mao=LFIND=trace[1]:ASM=o[/dev/null]")
        .arg(&input)
        .output()
        .expect("driver runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("loop"), "{stderr}");
}

#[test]
fn list_passes_shows_registry() {
    let out = mao().arg("--list-passes").output().expect("driver runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["REDTEST", "LOOP16", "SCHED", "NOPIN", "LFIND", "ASM"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn profile_flag_writes_chrome_trace() {
    let input = write_input("in_profile.s", INPUT);
    let profile = input.with_file_name("profile.json");
    let out = mao()
        .arg("--mao=REDTEST:ADDADD")
        .arg("--profile")
        .arg(&profile)
        .arg(&input)
        .output()
        .expect("driver runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("Chrome trace profile"), "{stderr}");
    let trace = std::fs::read_to_string(&profile).expect("profile written");
    let json = mao_serve::Json::parse(&trace).expect("profile is valid JSON");
    let events = json.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty(), "spans were recorded");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(mao_serve::Json::as_str))
        .collect();
    assert!(names.contains(&"REDTEST"), "{names:?}");
    assert!(
        names.contains(&"f"),
        "per-function spans present: {names:?}"
    );
}

#[test]
fn bad_pass_name_fails_cleanly() {
    let input = write_input("in4.s", INPUT);
    let out = mao()
        .arg("--mao=NOSUCH")
        .arg(&input)
        .output()
        .expect("driver runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown pass"));
}

#[test]
fn parse_error_reports_line() {
    let input = write_input("in5.s", "nop\nbogus_mnemonic %eax\n");
    let out = mao().arg(&input).output().expect("driver runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn missing_input_fails() {
    let out = mao().output().expect("driver runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// `mao client --timeout` takes seconds as a float; values that are not a
/// representable, non-negative duration are usage errors (exit 1), never a
/// panic and never silently clamped. Parsing happens before connecting, so
/// no daemon is needed.
#[test]
fn client_rejects_unrepresentable_timeouts() {
    let sock = std::env::temp_dir().join("mao-cli-tests-no-daemon.sock");
    let listen = format!("unix:{}", sock.display());
    let client = |timeout: &str| {
        mao()
            .args([
                "client",
                "--listen",
                &listen,
                "--ping",
                "--timeout",
                timeout,
            ])
            .output()
            .expect("driver runs")
    };
    for bad in ["inf", "-inf", "1e30", "nan", "-1", "-0.5"] {
        let out = client(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--timeout {bad}: {stderr}");
        assert!(
            stderr.contains("mao client: --timeout") && stderr.contains("usage"),
            "--timeout {bad}: {stderr}"
        );
    }
    // A valid value gets past parsing and fails only at the connection.
    let out = client("0.5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot connect"), "{stderr}");
}
