//! Tests for the `sepra` CLI binary: smoke tests, the bugs the front door
//! fixed, and the golden corpus.
//!
//! The corpus pins stdout, stderr and the exit status of every front-door
//! behaviour — each subcommand's help, one-shot queries over every example
//! program under every strategy and format, `--explain`/`--check`/`check`,
//! the usage and I/O errors, `dump`/`restore`, and REPL sessions that use
//! every `:` command — with durations and temporary paths masked. The
//! goldens live at `tests/golden/cli/` in the repository root; after an
//! intentional change, bless new output with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sepra-server --test cli
//! ```

use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use sepra_engine::QueryProcessor;
use sepra_server::{Durability, DurabilityOptions};

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

// ---------------------------------------------------------------------
// Bugs the front door fixed, each reproduced through the binary.

/// A REPL session's `--timeout` is a per-statement budget: a query sent
/// after the session has been open longer than the timeout still runs.
#[test]
fn repl_budgets_apply_per_statement() {
    let dir = scratch_dir("per_statement");
    let file = write_fixture(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .arg(&file)
        .args(["--timeout", "1000", "--max-tuples", "100"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    std::thread::sleep(Duration::from_millis(1200));
    child.stdin.as_mut().unwrap().write_all(b"buys(tom, Y)?\n:quit\n").unwrap();
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("(tom, widget)"));
}

/// `:load` reads the columnar checkpoint a default durable server writes,
/// and a merge moves the processor generation as `:insert` does: once for
/// an effective merge, not at all for an empty one.
#[test]
fn repl_load_merges_a_served_checkpoint() {
    let dir = scratch_dir("load_served");
    let checkpoint = durable_dir(&dir.join("data"), "e(a, b). e(b, c). e(c, d).\n", &[]);
    let empty = dir.join("empty.sepra");
    let script = format!(
        ":save {}\n:load {}\n:load {}\n:quit\n",
        empty.display(),
        empty.display(),
        checkpoint.display()
    );
    let out = repl(&[], &script);
    assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 facts merged"), "{stdout}");
    assert!(stdout.contains("3 facts merged"), "{stdout}");
    assert!(!stdout.contains("(generation 2)"), "{stdout}");
    let generations: Vec<&str> =
        stdout.match_indices("(generation ").map(|(at, _)| &stdout[at..at + 14]).collect();
    assert_eq!(generations, ["(generation 0)", "(generation 0)", "(generation 1)"], "{stdout}");
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sepra_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs a REPL over `args` with `script` on stdin.
fn repl(args: &[&str], script: &str) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sepra"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let _ = child.stdin.take().unwrap().write_all(script.as_bytes());
    child.wait_with_output().expect("binary exits")
}

/// A data directory as `sepra serve --data-dir` leaves it: the program's
/// facts checkpointed in the default format on first recovery, then
/// `commits` appended to the log. Returns the checkpoint's path.
fn durable_dir(data: &Path, facts: &str, commits: &[&str]) -> PathBuf {
    let mut qp = QueryProcessor::new();
    qp.load(facts).expect("facts load");
    let mut durability =
        Durability::recover(&mut qp, &DurabilityOptions::new(data.to_path_buf())).expect("recover");
    let checkpoint = data.join(format!("ckpt-{:020}.sepra", qp.db().generation()));
    for fact in commits {
        let out = qp.apply_mutation(&[fact], &[]).expect("commit applies");
        durability.record_commit(qp.db(), &out.delta).expect("commit logs");
    }
    checkpoint
}

// ---------------------------------------------------------------------
// The golden corpus.

/// Every example program with the query its one-shot runs ask.
const EXAMPLES: &[(&str, &str)] = &[
    ("bnd_subsumed", "t(a, Y)?"),
    ("bnd_swap", "t(a, Y)?"),
    ("bnd_tautology", "t(a, Y)?"),
    ("boundcols", "t(m, Y)?"),
    ("buys", "buys(tom, Y)?"),
    ("lints", "path(a, Y)?"),
    ("magic_subsumptive", "q(n0, Y)?"),
    ("overlap", "t(m, Y, Z)?"),
    ("sg", "sg(a, Y)?"),
    ("shift", "t(m, Y)?"),
    ("str_reach_count", "reach(X, N)?"),
    ("str_setdiff", "unreach(a, Y)?"),
    ("str_shortest", "short(Y, C)?"),
];

/// Automatic selection, then every strategy name the help text lists.
const STRATEGY_NAMES: &[Option<&str>] = &[
    None,
    Some("bounded"),
    Some("separable"),
    Some("magic"),
    Some("magic-sup"),
    Some("magic-subsumptive"),
    Some("counting"),
    Some("hn"),
    Some("seminaive"),
    Some("naive"),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/server sits two levels below the repo root")
        .to_path_buf()
}

/// One golden file's worth of invocations, run from the repository root
/// (so example paths render machine-independently) and written down as
/// a transcript: the command line, stdin, stdout, stderr and the status.
struct Transcript {
    root: PathBuf,
    /// A per-test scratch directory, rendered as `$TMP`.
    tmp: PathBuf,
    text: String,
}

impl Transcript {
    fn new(name: &str) -> Transcript {
        let tmp = scratch_dir(&format!("golden_{name}"));
        Transcript { root: repo_root(), tmp, text: String::new() }
    }

    /// A path under the scratch directory, as an argument.
    fn tmp(&self, name: &str) -> String {
        self.tmp.join(name).display().to_string()
    }

    fn run(&mut self, args: &[&str]) {
        self.run_with(args, None);
    }

    fn run_with(&mut self, args: &[&str], stdin: Option<&str>) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sepra"))
            .current_dir(&self.root)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        // An early exit closes the pipe under the write; the transcript
        // still says what the binary did.
        let _ = child.stdin.take().unwrap().write_all(stdin.unwrap_or("").as_bytes());
        let out = child.wait_with_output().expect("binary exits");
        let quoted: Vec<String> = args.iter().map(|a| quote(a)).collect();
        let _ = writeln!(self.text, "$ sepra {}", self.mask(&quoted.join(" ")));
        if let Some(input) = stdin {
            self.block("stdin", input.as_bytes());
        }
        self.block("stdout", &out.stdout);
        self.block("stderr", &out.stderr);
        let _ = writeln!(self.text, "--- status {}\n", out.status.code().unwrap_or(-1));
    }

    fn block(&mut self, name: &str, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let body = self.mask(&String::from_utf8_lossy(bytes));
        let _ = writeln!(self.text, "--- {name}");
        self.text.push_str(&body);
        if !body.ends_with('\n') {
            self.text.push_str("\n[no newline]\n");
        }
    }

    /// Masks what varies between runs: the scratch directory and every
    /// duration printed as `in <duration>`.
    fn mask(&self, text: &str) -> String {
        let text = text.replace(&self.tmp.display().to_string(), "$TMP");
        let mut out = String::with_capacity(text.len());
        let mut rest = text.as_str();
        while let Some(at) = rest.find(" in ") {
            let (head, tail) = rest.split_at(at + 4);
            out.push_str(head);
            let digits =
                tail.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(tail.len());
            let unit = ["ns", "µs", "ms", "s"].into_iter().find(|u| tail[digits..].starts_with(u));
            rest = match unit {
                Some(unit) if digits > 0 => {
                    out.push_str("<duration>");
                    &tail[digits + unit.len()..]
                }
                _ => tail,
            };
        }
        out.push_str(rest);
        out
    }

    /// Compares the transcript with `tests/golden/cli/<name>.txt`, or
    /// writes it there under `UPDATE_GOLDEN`.
    fn check(self, name: &str) -> Result<(), String> {
        let golden = self.root.join("tests/golden/cli").join(format!("{name}.txt"));
        let _ = std::fs::remove_dir_all(&self.tmp);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
            std::fs::write(&golden, &self.text).unwrap();
            return Ok(());
        }
        let expected = std::fs::read_to_string(&golden).map_err(|e| {
            format!("cannot read {}: {e}\n(bless goldens with UPDATE_GOLDEN=1)", golden.display())
        })?;
        if expected == self.text {
            return Ok(());
        }
        let line = expected.lines().zip(self.text.lines()).position(|(a, b)| a != b);
        let line = line.unwrap_or_else(|| expected.lines().count().min(self.text.lines().count()));
        let show = |text: &str| -> String {
            text.lines().skip(line.saturating_sub(3)).take(8).collect::<Vec<_>>().join("\n")
        };
        Err(format!(
            "{} is stale at line {} (bless with UPDATE_GOLDEN=1)\n--- expected\n{}\n--- actual\n{}",
            golden.display(),
            line + 1,
            show(&expected),
            show(&self.text)
        ))
    }
}

/// An argument as a shell would need it written.
fn quote(arg: &str) -> String {
    let plain = |c: char| c.is_ascii_alphanumeric() || "_-./:=,$".contains(c);
    if !arg.is_empty() && arg.chars().all(plain) {
        arg.to_string()
    } else {
        format!("'{arg}'")
    }
}

#[test]
fn golden_help() {
    let mut t = Transcript::new("help");
    t.run(&["--help"]);
    t.run(&["-h"]);
    for sub in ["check", "serve", "route", "client", "dump", "restore"] {
        t.run(&[sub, "--help"]);
    }
    t.check("help").unwrap();
}

/// Per example: `check` in each mode, `--check`, `--explain` as text and
/// JSON, then the query under every strategy, format and `--stats`.
#[test]
fn golden_one_shot() {
    let failures: Vec<String> = std::thread::scope(|scope| {
        let runs: Vec<_> = EXAMPLES
            .iter()
            .map(|&(name, query)| scope.spawn(move || one_shot_transcript(name, query)))
            .collect();
        runs.into_iter().filter_map(|run| run.join().unwrap().err()).collect()
    });
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

fn one_shot_transcript(name: &str, query: &str) -> Result<(), String> {
    let mut t = Transcript::new(&format!("one_shot_{name}"));
    let file = format!("examples/datalog/{name}.dl");
    t.run(&["check", &file]);
    t.run(&["check", "-f", "json", &file]);
    t.run(&["check", "--deny", "warnings", &file]);
    t.run(&[&file, "--check"]);
    t.run(&[&file, "-q", query, "--explain"]);
    t.run(&[&file, "-q", query, "--explain", "-f", "json"]);
    for strategy in STRATEGY_NAMES {
        for format in ["text", "csv", "json"] {
            for stats in [false, true] {
                let mut args = vec![file.as_str(), "-q", query, "-f", format];
                if let Some(strategy) = strategy {
                    args.extend(["-s", strategy]);
                }
                if stats {
                    args.push("--stats");
                }
                t.run(&args);
            }
        }
    }
    t.check(&format!("one_shot/{name}"))
}

#[test]
fn golden_errors() {
    let mut t = Transcript::new("errors");
    let buys = "examples/datalog/buys.dl";
    let broken = t.tmp("broken.dl");
    std::fs::write(&broken, "edge(a, b).\npath(X, Y) :- edge(X, Y\n").unwrap();
    // Unknown options, per command.
    t.run(&[buys, "--bogus"]);
    for sub in ["check", "serve", "route", "client", "dump", "restore"] {
        t.run(&[sub, "--bogus"]);
    }
    // Missing values.
    t.run(&[buys, "-q"]);
    t.run(&[buys, "-q", "buys(tom, Y)?", "-s"]);
    t.run(&[buys, "-t"]);
    t.run(&["check", buys, "-q"]);
    t.run(&["serve", buys, "--addr"]);
    t.run(&["client", "--raw"]);
    t.run(&["dump", "--data-dir"]);
    // Values of the wrong kind.
    t.run(&[buys, "-q", "buys(tom, Y)?", "-f", "yaml"]);
    t.run(&[buys, "-q", "buys(tom, Y)?", "-s", "bogus"]);
    t.run(&[buys, "-q", "buys(tom, Y)?", "-t", "0"]);
    t.run(&[buys, "-q", "buys(tom, Y)?", "--timeout", "soon"]);
    t.run(&[buys, "-q", "buys(tom, Y)?", "--max-tuples", "-1"]);
    t.run(&["check", "-f", "csv", buys]);
    t.run(&["check", "--deny", "errors", buys]);
    t.run(&["serve", buys, "--fsync", "sometimes"]);
    t.run(&["serve", buys, "--checkpoint-format", "v3"]);
    t.run(&["serve", buys, "--idle-timeout-ms", "x"]);
    t.run(&["route", "--primary", "127.0.0.1:1", "--probe-interval-ms", "x"]);
    t.run(&["client", "--max-tuples", "many", "q(X)?"]);
    // Missing operands and exclusive options.
    t.run(&["check"]);
    t.run(&["serve"]);
    t.run(&["serve", buys, "--fsync", "always"]);
    t.run(&["serve", buys, "--replica-of", "127.0.0.1:1", "--data-dir", &t.tmp("data")]);
    t.run(&["route"]);
    t.run(&["client"]);
    t.run(&["dump"]);
    t.run(&["dump", &t.tmp("out.sepra")]);
    t.run(&["dump", &t.tmp("a.sepra"), &t.tmp("b.sepra")]);
    t.run(&["restore"]);
    t.run(&["restore", &t.tmp("in.sepra")]);
    t.run(&["restore", &t.tmp("a.sepra"), &t.tmp("b.sepra")]);
    // Unreadable files and parse errors.
    t.run(&["examples/datalog/missing.dl", "-q", "t(X)?"]);
    t.run(&["check", "examples/datalog/missing.dl", buys]);
    t.run(&["serve", "examples/datalog/missing.dl"]);
    t.run(&[&broken, "-q", "path(a, Y)?"]);
    t.run(&["check", &broken]);
    t.run(&[buys, "-q", "buys(tom"]);
    t.run(&[buys, "-q", "buys(tom", "--explain"]);
    // A forced strategy that does not apply, and a budget that runs out.
    t.run(&["examples/datalog/sg.dl", "-q", "sg(a, Y)?", "-s", "separable"]);
    t.run(&["examples/datalog/str_setdiff.dl", "-q", "unreach(a, Y)?", "-s", "magic"]);
    t.run(&[buys, "-q", "buys(X, Y)?", "--max-tuples", "0"]);
    t.run(&[buys, "-q", "buys(X, Y)?", "--timeout", "0"]);
    // A server that is not there.
    t.run(&["client", "--addr", "127.0.0.1:1", "buys(tom, Y)?"]);
    t.check("errors").unwrap();
}

#[test]
fn golden_snapshots() {
    let mut t = Transcript::new("snapshots");
    durable_dir(&t.tmp.join("served"), "e(a, b). e(b, c). e(c, d).\n", &["e(d, e)."]);
    durable_dir(&t.tmp.join("two"), "e(x, y). e(y, z).\n", &[]);
    durable_dir(&t.tmp.join("victim"), "e(a, b). e(b, c). e(c, d).\n", &[]);
    std::fs::create_dir_all(t.tmp.join("empty")).unwrap();
    let (served, empty) = (t.tmp("served"), t.tmp("empty"));
    let (dump, dump2, restored) = (t.tmp("dump.sepra"), t.tmp("dump2.sepra"), t.tmp("restored"));
    t.run(&["dump", &dump, "--data-dir", &served]);
    t.run(&["dump", &t.tmp("none.sepra"), "--data-dir", &empty]);
    t.run(&["dump", &t.tmp("none.sepra"), "--data-dir", &t.tmp("absent")]);
    t.run(&["restore", &dump, "--data-dir", &restored]);
    t.run(&["restore", &dump, "--data-dir", &restored]);
    t.run(&["restore", &dump, "--data-dir", &restored, "--force"]);
    t.run(&["dump", &dump2, "--data-dir", &restored]);
    assert_eq!(std::fs::read(&dump).unwrap(), std::fs::read(&dump2).unwrap());
    t.run(&["restore", "examples/datalog/buys.dl", "--data-dir", &t.tmp("never")]);
    t.run(&["restore", &t.tmp("absent.sepra"), "--data-dir", &t.tmp("never")]);
    // A restore that fails while writing leaves the directory's durable
    // state as it was: a directory squats on the name the generation-2
    // snapshot's checkpoint would take in a generation-3 directory.
    let (two, victim) = (t.tmp("two.sepra"), t.tmp("victim"));
    t.run(&["dump", &two, "--data-dir", &t.tmp("two")]);
    std::fs::create_dir_all(t.tmp.join("victim").join(format!("ckpt-{:020}.sepra", 2))).unwrap();
    t.run(&["restore", &two, "--data-dir", &victim, "--force"]);
    t.run(&["dump", &t.tmp("victim.sepra"), "--data-dir", &victim]);
    t.check("snapshots").unwrap();
}

#[test]
fn golden_repl() {
    let mut t = Transcript::new("repl");
    let checkpoint = durable_dir(&t.tmp.join("served"), "e(a, b). e(b, c). e(c, d).\n", &[]);
    let (session, empty) = (t.tmp("session.sepra"), t.tmp("empty.sepra"));
    // Every `:` command over a loaded program, with a save/load round trip.
    let tour = [
        ":help",
        ":program",
        "buys(tom, Y)?",
        ":stats on",
        "buys(tom, Y)?",
        ":stats off",
        ":strategy magic",
        "buys(tom, Y)?",
        ":strategy separable",
        "buys(X, Y)?",
        ":strategy nonsense",
        ":strategy auto",
        ":explain buys(tom, Y)?",
        ":plan buys(tom, Y)?",
        ":why buys(tom, Y)?",
        ":why buys(X, Y)?",
        ":insert",
        ":insert perfectFor(sue, gadget).",
        ":insert friend(solo).",
        ":retract friend(sue, joe).",
        "buys(tom, Y)?",
        &format!(":save {session}"),
        ":retract perfectFor(sue, gadget).",
        "buys(tom, Y)?",
        &format!(":load {session}"),
        "buys(tom, Y)?",
        ":save",
        ":load",
        &format!(":load {}", t.tmp("absent.sepra")),
        ":load examples/datalog/buys.dl",
        ":lint",
        ":lint buys(tom, Y)?",
        ":check",
        "friend(sue,",
        "  joe).",
        "bad(X :- .",
        "buys(tom Y)?",
        ":bogus",
        ":h",
        ":quit",
        "buys(tom, Y)?",
    ];
    let script = tour.join("\n") + "\n";
    t.run_with(&["examples/datalog/buys.dl"], Some(&script));
    // A fresh session: nothing loaded, then snapshots merged in, one of
    // them a served directory's checkpoint.
    let fresh = [
        ":lint",
        ":check",
        ":program",
        &format!(":save {empty}"),
        &format!(":load {empty}"),
        &format!(":load {}", checkpoint.display()),
        ":insert e(d, e). e(e, f).",
        "e(X, Y)?",
        ":q",
    ];
    t.run_with(&[], Some(&(fresh.join("\n") + "\n")));
    // The format and statistics flags carry into the session.
    let formats = "buys(tom, Y)?\n:insert perfectFor(sue, gadget).\n:exit\n";
    t.run_with(&["examples/datalog/buys.dl", "-f", "csv", "--stats"], Some(formats));
    t.run_with(&["examples/datalog/buys.dl", "-f", "json", "--explain"], Some(formats));
    // Stdin ends without a `:quit`, mid-statement.
    t.run_with(&["examples/datalog/buys.dl"], Some("buys(tom, Y)?\nfriend(joe,"));
    t.check("repl").unwrap();
}
