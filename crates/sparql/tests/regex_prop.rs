//! The compiled `REGEX` matcher decides exactly what the matcher it replaced
//! decided: that one re-tokenised the pattern on every call and walked a
//! `Vec<char>` of the text. It is kept below as the reference, with one fix:
//! a final `$` is the end anchor unless a backslash escapes it, so a pattern
//! ending in an escaped backslash and `$` is anchored.

use proptest::prelude::*;
use turbohom_sparql::Regex;

fn reference_match(text: &str, pattern: &str, case_insensitive: bool) -> bool {
    let (text, pattern) = if case_insensitive {
        (text.to_lowercase(), pattern.to_lowercase())
    } else {
        (text.to_string(), pattern.to_string())
    };
    let anchored_start = pattern.starts_with('^');
    let anchored_end = pattern.ends_with('$')
        && pattern[..pattern.len() - 1]
            .chars()
            .rev()
            .take_while(|&c| c == '\\')
            .count()
            % 2
            == 0;
    let core: &str = {
        let s = pattern.strip_prefix('^').unwrap_or(&pattern);
        if anchored_end {
            s.strip_suffix('$').unwrap_or(s)
        } else {
            s
        }
    };
    let tokens = tokenize_regex(core);
    let text_chars: Vec<char> = text.chars().collect();
    if anchored_start {
        matches_here(&tokens, 0, &text_chars, 0, anchored_end)
    } else {
        (0..=text_chars.len())
            .any(|start| matches_here(&tokens, 0, &text_chars, start, anchored_end))
    }
}

#[derive(Debug, Clone, PartialEq)]
enum RegexToken {
    Literal(char),
    AnyChar,
    Star(Box<RegexToken>),
    Plus(Box<RegexToken>),
}

fn tokenize_regex(pattern: &str) -> Vec<RegexToken> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let base = match chars[i] {
            '.' => RegexToken::AnyChar,
            '\\' if i + 1 < chars.len() => {
                i += 1;
                RegexToken::Literal(chars[i])
            }
            c => RegexToken::Literal(c),
        };
        i += 1;
        if i < chars.len() && chars[i] == '*' {
            tokens.push(RegexToken::Star(Box::new(base)));
            i += 1;
        } else if i < chars.len() && chars[i] == '+' {
            tokens.push(RegexToken::Plus(Box::new(base)));
            i += 1;
        } else {
            tokens.push(base);
        }
    }
    tokens
}

fn single_matches(token: &RegexToken, c: char) -> bool {
    match token {
        RegexToken::Literal(l) => *l == c,
        RegexToken::AnyChar => true,
        _ => unreachable!("quantified tokens handled by caller"),
    }
}

fn matches_here(
    tokens: &[RegexToken],
    ti: usize,
    text: &[char],
    pos: usize,
    anchored_end: bool,
) -> bool {
    if ti == tokens.len() {
        return !anchored_end || pos == text.len();
    }
    match &tokens[ti] {
        RegexToken::Star(inner) => {
            let mut p = pos;
            loop {
                if matches_here(tokens, ti + 1, text, p, anchored_end) {
                    return true;
                }
                if p < text.len() && single_matches(inner, text[p]) {
                    p += 1;
                } else {
                    return false;
                }
            }
        }
        RegexToken::Plus(inner) => {
            if pos < text.len() && single_matches(inner, text[pos]) {
                let star = RegexToken::Star(inner.clone());
                let mut rest = vec![star];
                rest.extend_from_slice(&tokens[ti + 1..]);
                matches_here(&rest, 0, text, pos + 1, anchored_end)
            } else {
                false
            }
        }
        simple => {
            if pos < text.len() && single_matches(simple, text[pos]) {
                matches_here(tokens, ti + 1, text, pos + 1, anchored_end)
            } else {
                false
            }
        }
    }
}

fn agree(text: &str, pattern: &str, case_insensitive: bool) {
    let compiled = Regex::new(pattern, case_insensitive.then_some("i"))
        .expect("every pattern over the alphabet lies inside the dialect")
        .is_match(text);
    let reference = reference_match(text, pattern, case_insensitive);
    assert_eq!(
        compiled, reference,
        "regex({text:?}, {pattern:?}, i = {case_insensitive})"
    );
}

#[test]
fn the_compiled_matcher_decides_pinned_cases_like_the_reference() {
    // The skip search (overlapping prefixes included), the anchors and the
    // escapes.
    for (text, pattern) in [
        ("aaab", "aab"),
        ("aaab", "aab$"),
        // `aa` occurs at 0, where the rest fails, and again at 1.
        ("aaab", "aa.$"),
        ("aaab", "^aab"),
        ("aaaab", "a+b$"),
        ("ébé", "é.é"),
        ("ÉBÉ", "é+b"),
        ("xa\\", "a\\\\$"),
        ("a\\$", "a\\\\$"),
        ("a$", "a\\$"),
        ("", "^$"),
        ("a", "\\"),
    ] {
        agree(text, pattern, false);
        agree(text, pattern, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn the_compiled_matcher_decides_like_the_reference(
        pattern in "[ab\\é.*+^$]{0,7}",
        text in "[abé日 ]{0,8}",
        case_insensitive in proptest::bool::ANY,
    ) {
        agree(&text, &pattern, case_insensitive);
        // The pattern over its own literal characters, once and twice, which
        // it is likelier to match than a random text (the second also holds
        // overlapping occurrences of its prefix).
        let own: String = pattern.chars().filter(|c| !"\\.*+^$".contains(*c)).collect();
        agree(&own, &pattern, case_insensitive);
        agree(&own.repeat(2), &pattern, case_insensitive);
    }
}
