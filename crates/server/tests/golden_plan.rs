//! Golden-file tests for plan rendering — `--explain` text and the
//! structured `--explain -f json` / `:plan` report — over the committed
//! example programs in `examples/datalog/`.
//!
//! The goldens live at `tests/golden/plan/<name>.{txt,json}` in the
//! repository root. Estimates are deterministic (exact counts in, fixed
//! -point formatting out), so the files are machine-independent. After an
//! intentional change to the planner or the renderers, bless new output
//! with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sepra-server --test golden_plan
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// (golden name, fixture, query): a separable selection (carry/seen
/// schema), a magic-sets selection with a three-literal body the planner
/// reorders, an unbound query that falls through to semi-naive rule
/// conjunctions, and stratified programs whose bodies hold a sum and a
/// negation.
const CASES: &[(&str, &str, &str)] = &[
    ("buys_bound", "buys", "buys(tom, Y)?"),
    ("sg_bound", "sg", "sg(a, Y)?"),
    ("sg_unbound", "sg", "sg(X, Y)?"),
    ("str_shortest", "str_shortest", "short(Y, C)?"),
    ("str_setdiff", "str_setdiff", "unreach(X, Y)?"),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/server sits two levels below the repo root")
        .to_path_buf()
}

fn run_explain(root: &Path, fixture: &str, query: &str, json: bool) -> String {
    let rel = format!("examples/datalog/{fixture}.dl");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sepra"));
    cmd.current_dir(root).arg(&rel).args(["--explain", "-q", query]);
    if json {
        cmd.args(["--format", "json"]);
    }
    let out = cmd.output().expect("binary runs");
    assert!(
        out.stderr.is_empty(),
        "sepra {rel} --explain wrote to stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("plan output is UTF-8")
}

fn compare(root: &Path, name: &str, ext: &str, actual: &str) -> Result<(), String> {
    let golden = root.join("tests/golden/plan").join(format!("{name}.{ext}"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, actual).unwrap();
        return Ok(());
    }
    let expected = std::fs::read_to_string(&golden).map_err(|e| {
        format!("cannot read {}: {e}\n(bless goldens with UPDATE_GOLDEN=1)", golden.display())
    })?;
    if expected == actual {
        return Ok(());
    }
    Err(format!(
        "{} is stale (bless with UPDATE_GOLDEN=1)\n--- expected\n{expected}--- actual\n{actual}",
        golden.display()
    ))
}

#[test]
fn plan_output_matches_goldens() {
    let root = repo_root();
    let mut failures = Vec::new();
    for (name, fixture, query) in CASES {
        for (json, ext) in [(false, "txt"), (true, "json")] {
            let actual = run_explain(&root, fixture, query, json);
            if let Err(e) = compare(&root, name, ext, &actual) {
                failures.push(e);
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
