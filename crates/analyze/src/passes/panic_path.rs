//! Pass `panic-path`: no panicking idioms in non-test serving code.
//!
//! `ncgws-serve` promises (PR 9) that the only panics in a serving process
//! are injected faults — a stray `unwrap()` in the dispatcher would tear
//! down a worker outside the `catch_unwind` contract and turn a recoverable
//! condition into a lost job. This pass denies `.unwrap()` / `.expect()`,
//! `panic!` / `unreachable!` / `todo!` / `unimplemented!`, and slice
//! indexing without a justifying comment, in all non-test code of the
//! files it is pointed at: the serve crate, and the JSON decoder the serve
//! crate reads its journal and snapshots through.

use crate::findings::Sink;
use crate::lexer::TokKind;
use crate::model::FileModel;

pub const PASS: &str = "panic-path";

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that may directly precede `[` without it being an indexing
/// expression (patterns, array expressions, returns of array literals…).
const NON_EXPR_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "match", "if", "while", "else", "move", "as", "dyn",
    "box", "break", "continue", "where", "const", "static",
];

/// Runs the pass over one file (the driver scopes it to `crates/serve` and
/// the decoder).
pub fn run(model: &FileModel, sink: &mut Sink) {
    let toks = &model.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if model.in_test_code(i) {
            continue;
        }
        // Only lint executable code: require an enclosing function so
        // type-level `[u8; 4]` tokens at module scope are skipped.
        let Some(f) = model.enclosing_fn(i) else {
            continue;
        };
        if f.is_test {
            continue;
        }
        let next_is = |c: char| toks.get(i + 1).is_some_and(|n| n.is_punct(c));
        // `.unwrap()` / `.expect(…)`.
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && next_is('(')
        {
            sink.push(
                PASS,
                &model.path,
                t.line,
                &f.name,
                &t.text.clone(),
                format!(
                    "`.{}()` can panic in non-test serving code (`{}`); return a typed \
                     ServeError/StoreError instead",
                    t.text, f.name
                ),
            );
            continue;
        }
        // `panic!(…)` and friends.
        if t.kind == TokKind::Ident && PANIC_MACROS.contains(&t.text.as_str()) && next_is('!') {
            sink.push(
                PASS,
                &model.path,
                t.line,
                &f.name,
                &format!("{}!", t.text),
                format!(
                    "`{}!` in non-test serving code (`{}`); serving paths must not panic \
                     outside injected faults",
                    t.text, f.name
                ),
            );
            continue;
        }
        // Indexing `expr[…]` without a justifying comment on the same or
        // previous line. The previous token must end an expression — an
        // identifier, `)`, or `]` — which excludes attributes (`#[…]`),
        // types (`: [u8; 4]`) and slice patterns (`let [a, b] = …`).
        if t.is_punct('[')
            && i > 0
            && (toks[i - 1].kind == TokKind::Ident
                || toks[i - 1].is_punct(')')
                || toks[i - 1].is_punct(']'))
            && !(toks[i - 1].kind == TokKind::Ident
                && NON_EXPR_KEYWORDS.contains(&toks[i - 1].text.as_str()))
            && !model.any_comment_adjacent(t.line)
        {
            // Skip declarations-as-expressions the heuristic cannot see:
            // an identifier that is a macro name (`matches!…[`) never
            // appears; `if let`-bound arrays do not reach here.
            sink.push(
                PASS,
                &model.path,
                t.line,
                &f.name,
                "indexing",
                format!(
                    "slice/array indexing in non-test serving code (`{}`) without a \
                     justifying comment on this or the previous line; use `.get()` or \
                     document why the index is in range",
                    f.name
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    fn run_on(src: &str) -> Vec<String> {
        let model = FileModel::build("crates/serve/src/x.rs".into(), src);
        let mut sink = Sink::default();
        run(&model, &mut sink);
        sink.findings
            .iter()
            .map(|f| format!("{}:{}", f.detail, f.context))
            .collect()
    }

    #[test]
    fn unwrap_expect_and_panic_macros_are_denied() {
        let src = r#"
fn f(o: Option<u32>) -> u32 {
    let a = o.unwrap();
    let b = o.expect("msg");
    if a == b { panic!("boom"); }
    unreachable!()
}
"#;
        assert_eq!(
            run_on(src),
            vec!["unwrap:f", "expect:f", "panic!:f", "unreachable!:f"]
        );
    }

    #[test]
    fn unwrap_like_names_and_non_method_positions_pass() {
        let src = r#"
fn f(o: Option<u32>) -> u32 {
    let a = o.unwrap_or(0);
    let b = o.unwrap_or_else(|| 1);
    a + b
}
"#;
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn indexing_needs_a_comment() {
        let src = r#"
fn f(xs: &[u32], i: usize) -> u32 {
    let bad = xs[i];
    // in range: i was validated at submit time
    let good = xs[i];
    bad + good
}
"#;
        assert_eq!(run_on(src), vec!["indexing:f"]);
    }

    #[test]
    fn types_patterns_and_attributes_are_not_indexing() {
        let src = r#"
#[derive(Debug)]
struct S;
fn f(pair: [u32; 2]) -> u32 {
    let [a, b] = pair;
    let v: [u8; 4] = [0; 4];
    a + b + v.len() as u32
}
"#;
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
fn prod(o: Option<u32>) -> Option<u32> { o }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = super::prod(Some(1)).unwrap();
        assert_eq!(v, 1);
    }
}
"#;
        assert!(run_on(src).is_empty());
    }
}
