//! Rendering query results for humans.

use sepra_ast::Interner;
use sepra_storage::Relation;

/// Renders an answer relation as one tuple per line, sorted
/// lexicographically by rendered text (deterministic output for the CLI and
/// golden tests).
pub fn render_answers(answers: &Relation, interner: &Interner) -> String {
    sorted_lines(answers.iter().map(|t| t.display(interner).to_string()))
}

/// Renders answers as CSV (one tuple per line, values comma-separated,
/// sorted lexicographically). Values containing commas or quotes are
/// double-quoted with quote doubling per RFC 4180.
pub fn render_answers_csv(answers: &Relation, interner: &Interner) -> String {
    let escape = |s: &str| -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    sorted_lines(answers.iter().map(|t| {
        t.values().map(|v| escape(&v.display(interner).to_string())).collect::<Vec<_>>().join(",")
    }))
}

/// `lines` in sorted order, each ending in a newline.
fn sorted_lines(lines: impl Iterator<Item = String>) -> String {
    let mut lines: Vec<String> = lines.collect();
    lines.sort();
    lines.into_iter().map(|line| line + "\n").collect()
}

/// Renders answers as a JSON array of arrays of strings (sorted, stable).
/// Hand-rolled (no serde in the approved dependency set): strings are
/// escaped per JSON's required set.
pub fn render_answers_json(answers: &Relation, interner: &Interner) -> String {
    let escape = |s: &str| -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    };
    let mut rows: Vec<String> = answers
        .iter()
        .map(|t| {
            let cells: Vec<String> = t
                .values()
                .map(|v| format!("\"{}\"", escape(&v.display(interner).to_string())))
                .collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    rows.sort();
    format!("[{}]\n", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepra_storage::{Database, Tuple, Value};

    #[test]
    fn renders_sorted_tuples() {
        let mut db = Database::new();
        let b = db.intern("b");
        let a = db.intern("a");
        let mut rel = Relation::new(2);
        rel.insert(Tuple::from([Value::sym(b), Value::sym(a)]));
        rel.insert(Tuple::from([Value::sym(a), Value::sym(b)]));
        let text = render_answers(&rel, db.interner());
        assert_eq!(text, "(a, b)\n(b, a)\n");
    }

    #[test]
    fn empty_relation_renders_empty() {
        let db = Database::new();
        let rel = Relation::new(1);
        assert_eq!(render_answers(&rel, db.interner()), "");
        assert_eq!(render_answers_csv(&rel, db.interner()), "");
        assert_eq!(render_answers_json(&rel, db.interner()), "[]\n");
    }

    #[test]
    fn csv_and_json_render_sorted() {
        let mut db = Database::new();
        let b = db.intern("beta");
        let a = db.intern("alpha");
        let mut rel = Relation::new(2);
        rel.insert(Tuple::from([Value::sym(b), Value::int(2).unwrap()]));
        rel.insert(Tuple::from([Value::sym(a), Value::int(1).unwrap()]));
        assert_eq!(render_answers_csv(&rel, db.interner()), "alpha,1\nbeta,2\n");
        assert_eq!(
            render_answers_json(&rel, db.interner()),
            "[[\"alpha\",\"1\"],[\"beta\",\"2\"]]\n"
        );
    }
}
