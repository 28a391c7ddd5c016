//! Smoke tests for the `sepra` CLI binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn write_fixture(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("buys.dl");
    std::fs::write(
        &path,
        "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
         buys(X, Y) :- perfectFor(X, Y).\n\
         friend(tom, sue). friend(sue, joe).\n\
         perfectFor(joe, widget).\n",
    )
    .expect("fixture writes");
    path
}

#[test]
fn one_shot_query() {
    let dir = std::env::temp_dir().join("sepra_cli_test1");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_fixture(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&file)
        .args(["-q", "buys(tom, Y)?", "--stats"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(tom, widget)"), "{stdout}");
    assert!(stdout.contains("via separable"), "{stdout}");
    assert!(stdout.contains("seen_1"), "{stdout}");
}

#[test]
fn explain_flag() {
    let dir = std::env::temp_dir().join("sepra_cli_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_fixture(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&file)
        .args(["-q", "buys(tom, Y)?", "--explain"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("separable recursion detected"), "{stdout}");
    assert!(stdout.contains("carry_1"), "{stdout}");
}

#[test]
fn forced_strategy() {
    let dir = std::env::temp_dir().join("sepra_cli_test3");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_fixture(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&file)
        .args(["-q", "buys(tom, Y)?", "-s", "magic"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("via magic"), "{stdout}");
}

#[test]
fn repl_session() {
    let dir = std::env::temp_dir().join("sepra_cli_test4");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_fixture(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&file)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"friend(joe, ann).\n\
              perfectFor(ann, gadget).\n\
              buys(tom, Y)?\n\
              :program\n\
              :quit\n",
        )
        .unwrap();
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(tom, widget)"), "{stdout}");
    assert!(stdout.contains("(tom, gadget)"), "{stdout}");
    assert!(stdout.contains("buys(X, Y) :- friend(X, W), buys(W, Y)."), "{stdout}");
}

#[test]
fn repl_why_command() {
    let dir = std::env::temp_dir().join("sepra_cli_test5");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_fixture(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&file)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child.stdin.as_mut().unwrap().write_all(b":why buys(tom, Y)?\n:quit\n").unwrap();
    let out = child.wait_with_output().expect("binary exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("because"), "{stdout}");
    assert!(stdout.contains("friend"), "{stdout}");
    assert!(stdout.contains("[exit 0]"), "{stdout}");
}

#[test]
fn check_flag_reports_separability() {
    let dir = std::env::temp_dir().join("sepra_cli_test6");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mixed.dl");
    std::fs::write(
        &path,
        "buys(X, Y) :- friend(X, W), buys(W, Y).\n\
         buys(X, Y) :- perfectFor(X, Y).\n\
         sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n\
         sg(X, Y) :- flat(X, Y).\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&path)
        .arg("--check")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The separable predicate gets a structure note, the non-separable one
    // gets a condition-specific diagnostic pointing at the offending rule.
    assert!(stdout.contains("note[SEP100]"), "{stdout}");
    assert!(stdout.contains("`buys` is a separable recursion"), "{stdout}");
    assert!(stdout.contains("warning[SEP004]"), "{stdout}");
    assert!(stdout.contains("`sg` is not separable"), "{stdout}");
    assert!(stdout.contains("condition 4 of Definition 2.4"), "{stdout}");
}

#[test]
fn check_subcommand_text_json_and_deny() {
    let dir = std::env::temp_dir().join("sepra_cli_test9");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sg.dl");
    std::fs::write(
        &path,
        "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n\
         sg(X, Y) :- flat(X, Y).\n\
         up(a, b). down(b, c). flat(a, a).\n",
    )
    .unwrap();
    let text = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .args(["check"])
        .arg(&path)
        .output()
        .expect("binary runs");
    // Warnings only: exit 0 without --deny warnings.
    assert!(text.status.success(), "stderr: {}", String::from_utf8_lossy(&text.stderr));
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(stdout.contains("warning[SEP004]"), "{stdout}");
    assert!(stdout.contains("-->"), "{stdout}");
    assert!(stdout.contains('^'), "{stdout}");

    let json = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .args(["check", "--format", "json"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(json.status.success());
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(stdout.contains("\"code\": \"SEP004\""), "{stdout}");
    assert!(stdout.contains("\"severity\": \"warning\""), "{stdout}");

    let deny = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .args(["check", "--deny", "warnings"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(deny.status.code(), Some(1), "{:?}", deny.status);
}

#[test]
fn check_subcommand_usage_errors() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_sepra")).args(["check"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one file"));
    let missing = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .args(["check", "/nonexistent/path.dl"])
        .output()
        .expect("binary runs");
    assert_eq!(missing.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("cannot read"));
}

#[test]
fn parse_errors_render_carets() {
    let dir = std::env::temp_dir().join("sepra_cli_test10");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.dl");
    std::fs::write(&path, "edge(a, b).\npath(X, Y) :- edge(X, Y\n").unwrap();
    // Loading for evaluation: the syntax error is rendered with a snippet
    // and caret on stderr, pointing into the offending file.
    let out = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&path)
        .args(["-q", "path(a, Y)?"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[LNT000]"), "{stderr}");
    assert!(stderr.contains("broken.dl:2:"), "{stderr}");
    assert!(stderr.contains('^'), "{stderr}");
    // The check subcommand reports the same error on stdout and exits 1.
    let check = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .args(["check"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(check.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&check.stdout).contains("error[LNT000]"));
}

#[test]
fn repl_lint_command() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b":lint\n\
              sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n\
              sg(X, Y) :- flat(X, Y).\n\
              :lint\n\
              :quit\n",
        )
        .unwrap();
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no rules loaded"), "{stdout}");
    assert!(stdout.contains("warning[SEP004]"), "{stdout}");
    assert!(stdout.contains("<repl>"), "{stdout}");
}

#[test]
fn format_flag_outputs_csv_and_json() {
    let dir = std::env::temp_dir().join("sepra_cli_test7");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_fixture(&dir);
    let csv = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&file)
        .args(["-q", "buys(tom, Y)?", "-f", "csv"])
        .output()
        .expect("binary runs");
    assert_eq!(String::from_utf8_lossy(&csv.stdout), "tom,widget\n");
    let json = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&file)
        .args(["-q", "buys(tom, Y)?", "--format", "json"])
        .output()
        .expect("binary runs");
    assert_eq!(String::from_utf8_lossy(&json.stdout), "[[\"tom\",\"widget\"]]\n");
    let bad = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&file)
        .args(["-q", "buys(tom, Y)?", "-f", "yaml"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success());
}

#[test]
fn bad_file_fails_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg("/nonexistent/path.dl")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn a_closed_stdout_pipe_is_a_quiet_exit() {
    let dir = std::env::temp_dir().join("sepra_cli_test8");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_fixture(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&file)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // The reader goes away first, as `sepra … | head -1`'s does; only then
    // is there anything to print, so every later write meets a closed pipe.
    // (The session may already be over by the time the query is sent.)
    drop(child.stdout.take());
    let _ = child.stdin.take().unwrap().write_all(b"buys(tom, Y)?\n:program\n:help\n");
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "status {:?}, stderr: {stderr}", out.status);
}

#[test]
fn client_sends_the_protocols_rendering_of_a_request() {
    // A listener that records the one line it is sent and answers `{}`.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("has an address").to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("the client connects");
        let mut line = String::new();
        std::io::BufRead::read_line(&mut std::io::BufReader::new(&stream), &mut line)
            .expect("request reads");
        (&stream).write_all(b"{}\n").expect("reply writes");
        line
    });
    let query = "buys(tom, Y)?";
    let out = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .args(["client", "--addr", &addr, "-s", "magic", "--timeout", "250"])
        .args(["--max-tuples", "1000", query])
        .output()
        .expect("client runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "{}\n");
    assert_eq!(
        server.join().expect("listener thread"),
        "{\"query\":\"buys(tom, Y)?\",\"strategy\":\"magic\",\"timeout_ms\":250,\"max_tuples\":1000}\n"
    );

    // Bad values are worded by the argument cursor, as everywhere else.
    let out = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .args(["client", "--timeout", "soon", query])
        .output()
        .expect("client runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--timeout expects milliseconds, got `soon`"), "{stderr}");
}
