//! The strategy names have one source — the table behind `Strategy`'s
//! `Display` and `FromStr` in `sepra-engine` — and three places that list
//! them for people: `sepra --help`, the README and the verify skill. Each
//! must mention every canonical name, so a new strategy cannot ship
//! half-documented (the lists had drifted by two before).

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use sepra_engine::Strategy;

/// The canonical names, read off the parser's own "expected a|b|…" message.
fn canonical_names() -> Vec<String> {
    let message = "no-such-strategy".parse::<Strategy>().unwrap_err();
    let list = message.split("expected ").nth(1).expect("the message lists the names");
    let names: Vec<String> = list.trim_end_matches(')').split('|').map(String::from).collect();
    assert_eq!(names.len(), 9, "{message}");
    for name in &names {
        assert_eq!(name.parse::<Strategy>().unwrap().to_string(), *name);
    }
    names
}

/// The words of `text`: maximal runs of lowercase letters and hyphens, so
/// `magic` is not "mentioned" by `magic-sup`.
fn words(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_ascii_lowercase() || c == '-')).collect()
}

#[test]
fn help_readme_and_verify_skill_list_every_strategy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap();
    let help = Command::new(env!("CARGO_BIN_EXE_sepra")).arg("--help").output().unwrap();
    let help = String::from_utf8(help.stdout).unwrap();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let skill = std::fs::read_to_string(root.join(".claude/skills/verify/SKILL.md")).unwrap();
    for (place, text) in [("sepra --help", &help), ("README.md", &readme), ("SKILL.md", &skill)] {
        let words = words(text);
        for name in canonical_names() {
            assert!(words.contains(name.as_str()), "{place} does not mention `{name}`");
        }
    }
}
