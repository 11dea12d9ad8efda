//! Property tests for the front-end: generated sources compile to verified
//! IR, the printer never panics, and the lexer, the parser and `compile`
//! are total on text with multi-byte characters in it.
//!
//! Random cases come from fixed-seed SplitMix64 loops, so every run replays
//! the same ones; a failure names its case index and input.

use bw_ir::frontend::{compile, lex, parse};
use bw_ir::ModulePrinter;
use bw_splash::{Benchmark, Size};
use bw_vm::SplitMix64;

/// A 2-, a 3- and a 4-byte character.
const MULTI_BYTE: [char; 3] = ['é', '—', '𝄞'];

/// Up to 200 characters drawn from `alphabet`.
fn text(rng: &mut SplitMix64, alphabet: &[char]) -> String {
    let len = rng.below(201);
    (0..len).map(|_| alphabet[rng.below(alphabet.len() as i64) as usize]).collect()
}

/// A tiny expression grammar rendered to source text, at most `depth`
/// operators deep.
fn expr_source(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(4) {
            0 => rng.below(100).to_string(),
            1 => "x".to_string(),
            2 => "threadid()".to_string(),
            _ => "numthreads()".to_string(),
        };
    }
    let a = expr_source(rng, depth - 1);
    let op = ["+", "*", "-"][rng.below(3) as usize];
    let b = expr_source(rng, depth - 1);
    format!("({a} {op} {b})")
}

/// The lexer is total: it either tokenizes or reports an error, but never
/// panics, on printable ASCII mixed with multi-byte characters.
#[test]
fn lexer_never_panics() {
    let alphabet: Vec<char> = (' '..='~').chain(MULTI_BYTE).collect();
    let mut rng = SplitMix64::new(1);
    for case in 0..64 {
        let input = text(&mut rng, &alphabet);
        let lexed = std::panic::catch_unwind(|| lex(&input).is_ok());
        assert!(lexed.is_ok(), "case {case}: lex panicked on {input:?}");
    }
}

/// The parser is total on arbitrary token-ish input.
#[test]
fn parser_never_panics() {
    let alphabet: Vec<char> =
        "abcdefghijklmnopqrstuvwxyz0123456789(){};=<>+*,: ".chars().chain(MULTI_BYTE).collect();
    let mut rng = SplitMix64::new(2);
    for case in 0..64 {
        let input = text(&mut rng, &alphabet);
        let parsed = std::panic::catch_unwind(|| parse(&input).is_ok());
        assert!(parsed.is_ok(), "case {case}: parse panicked on {input:?}");
    }
}

/// Generated single-function programs compile, verify, and print.
#[test]
fn generated_sources_compile_and_print() {
    let mut rng = SplitMix64::new(3);
    for case in 0..64 {
        let exprs: Vec<String> = (0..1 + rng.below(4)).map(|_| expr_source(&mut rng, 3)).collect();
        let bound = 1 + rng.below(19);
        let mut body = String::new();
        for (i, e) in exprs.iter().enumerate() {
            body.push_str(&format!("        var y{i}: int = {e};\n"));
            body.push_str(&format!("        x = x + y{i};\n"));
        }
        let source = format!(
            r#"
            shared int lim = {bound};
            @spmd func slave() {{
                var x: int = 0;
                for (var i: int = 0; i < lim; i = i + 1) {{
{body}
                    if (x > 50) {{ x = x / 2; }}
                }}
                output(x);
            }}
            "#,
        );
        let module = compile(&source).unwrap_or_else(|e| panic!("case {case}: {e}\n{source}"));
        // The printer must produce non-empty output for every function.
        let printed = ModulePrinter(&module).to_string();
        assert!(printed.contains("func slave"), "case {case}:\n{source}");
        // And the module must re-verify (compile already verified; this
        // guards against printer-side mutation bugs).
        assert!(bw_ir::verify_module(&module).is_ok(), "case {case}:\n{source}");
    }
}

/// Compiling is deterministic: same source, same IR.
#[test]
fn compilation_is_deterministic() {
    for bound in 1..20 {
        let source = format!(
            r#"
            shared int n = {bound};
            @spmd func f() {{
                var acc: int = 0;
                for (var i: int = 0; i < n; i = i + 1) {{
                    if (i % 2 == 0) {{ acc = acc + i; }} else {{ acc = acc - 1; }}
                }}
                output(acc);
            }}
            "#,
        );
        let a = compile(&source).expect("compiles");
        let b = compile(&source).expect("compiles");
        assert_eq!(ModulePrinter(&a).to_string(), ModulePrinter(&b).to_string(), "bound {bound}");
    }
}

/// `compile` returns `Ok` or `Err`, never panics, on every one-byte
/// mutation of the seven ports' sources: at each byte a deletion, a
/// replacement and an insertion (mutants that are not UTF-8 are skipped).
/// A deleted `/` of a `//` puts the comment's text, multi-byte characters
/// included, in front of the lexer. Debug builds mutate every 13th byte;
/// release builds every byte.
#[test]
fn no_one_byte_mutation_of_a_port_makes_compile_panic() {
    const BYTES: &[u8] = b"/*\n{}()[];=<>-!&|+,.@_a0 ";
    let stride = if cfg!(debug_assertions) { 13 } else { 1 };
    for bench in Benchmark::ALL {
        let source = bench.source(Size::Test).into_bytes();
        for at in (0..source.len()).step_by(stride) {
            let byte = [BYTES[at % BYTES.len()]];
            let edits: [(&str, &[u8], usize); 3] =
                [("delete", &[], at + 1), ("replace", &byte, at + 1), ("insert", &byte, at)];
            for (edit, with, resume) in edits {
                let Ok(mutant) =
                    String::from_utf8([&source[..at], with, &source[resume..]].concat())
                else {
                    continue;
                };
                let compiled = std::panic::catch_unwind(|| compile(&mutant).is_ok());
                assert!(compiled.is_ok(), "{}: byte {at}, {edit}: compile panicked", bench.name());
            }
        }
    }
}
