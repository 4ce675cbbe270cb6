//! Text tokenisation for the entity tagger.
//!
//! One streaming scanner is the only tokeniser. Text tokens
//! ([`tokenize`]), dictionary keys ([`normalize_phrase`], the gazetteer
//! builder) and the tagger's token-id windows all come out of it, so what
//! a title becomes in the dictionary and what the same words become in a
//! document cannot drift apart.

/// A token with its character span in the original text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Normalised (lowercased) token text.
    pub text: String,
    /// Byte offset of the token start in the original text.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
}

/// Streams the tokens of `text`, as [`tokenize`] splits them, to
/// `emit(token, start, end)`, left to right.
///
/// ASCII takes a fast path: a run of lowercase ASCII alphanumerics that
/// forms a whole token is handed out as a slice of `text`, without a copy.
/// Any other token (uppercase, an apostrophe, non-ASCII characters, which
/// go through Unicode lowercasing) is assembled in `buf`, which is reused
/// for every token; pass the same buffer across calls to keep the scan
/// allocation-free.
pub(crate) fn for_each_token(
    text: &str,
    buf: &mut String,
    mut emit: impl FnMut(&str, usize, usize),
) {
    let bytes = text.as_bytes();
    buf.clear();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphanumeric() {
            let run = i;
            let mut upper = false;
            while let Some(&b) = bytes.get(i) {
                if b.is_ascii_uppercase() {
                    upper = true;
                } else if !b.is_ascii_lowercase() && !b.is_ascii_digit() {
                    break;
                }
                i += 1;
            }
            let word = &text[run..i];
            let ends_token = bytes.get(i).is_none_or(|&next| next.is_ascii() && next != b'\'');
            if buf.is_empty() && ends_token && !upper {
                emit(word, run, i);
                continue;
            }
            if buf.is_empty() {
                start = run;
            }
            let from = buf.len();
            buf.push_str(word);
            buf[from..].make_ascii_lowercase();
        } else if b.is_ascii() {
            // Intra-word apostrophes are swallowed without splitting.
            if b != b'\'' && !buf.is_empty() {
                emit(buf, start, i);
                buf.clear();
            }
            i += 1;
        } else {
            let ch = text[i..].chars().next().expect("scan stays on char boundaries");
            if ch.is_alphanumeric() {
                if buf.is_empty() {
                    start = i;
                }
                // Lowercasing can expand into combining marks (e.g. Turkish
                // 'İ' → "i\u{307}"); keep only alphanumeric output so that
                // normalisation is idempotent and dictionary keys stay
                // mark-free.
                buf.extend(ch.to_lowercase().filter(|lower| lower.is_alphanumeric()));
            } else if !buf.is_empty() {
                emit(buf, start, i);
                buf.clear();
            }
            i += ch.len_utf8();
        }
    }
    if !buf.is_empty() {
        emit(buf, start, text.len());
        buf.clear();
    }
}

/// Splits `text` into lowercase alphanumeric tokens with byte spans.
///
/// Everything that is not alphanumeric separates tokens; apostrophes inside
/// words are dropped ("O'Brien" → `obrien`) so dictionary lookups are
/// robust to typographic variation.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    for_each_token(text, &mut String::new(), |token, start, end| {
        tokens.push(Token { text: token.to_owned(), start, end });
    });
    tokens
}

/// Normalises a phrase the same way [`tokenize`] normalises text: lowercase
/// tokens joined by single spaces.
///
/// This is the string form of a gazetteer key: a title matches its own
/// occurrence in text because both go through the same scanner.
pub fn normalize_phrase(phrase: &str) -> String {
    let mut out = String::with_capacity(phrase.len());
    for_each_token(phrase, &mut String::new(), |token, _, _| {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(token);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(tokens: &[Token]) -> Vec<&str> {
        tokens.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        let tokens = tokenize("Eyjafjallajokull erupts; air-traffic halted!");
        assert_eq!(texts(&tokens), vec!["eyjafjallajokull", "erupts", "air", "traffic", "halted"]);
    }

    #[test]
    fn lowercases_unicode() {
        let tokens = tokenize("Eyjafjallajökull ERUPTS");
        assert_eq!(texts(&tokens), vec!["eyjafjallajökull", "erupts"]);
    }

    #[test]
    fn keeps_numbers() {
        let tokens = tokenize("hurricane season 2007");
        assert_eq!(texts(&tokens), vec!["hurricane", "season", "2007"]);
    }

    #[test]
    fn spans_point_into_original_text() {
        let text = "Iceland: volcano";
        let tokens = tokenize(text);
        assert_eq!(&text[tokens[0].start..tokens[0].end], "Iceland");
        assert_eq!(&text[tokens[1].start..tokens[1].end], "volcano");
    }

    #[test]
    fn apostrophes_do_not_split_words() {
        let tokens = tokenize("O'Brien's book");
        assert_eq!(texts(&tokens), vec!["obriens", "book"]);
        let tokens = tokenize("don't stop");
        assert_eq!(texts(&tokens), vec!["dont", "stop"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- !!! ...").is_empty());
    }

    #[test]
    fn streaming_tokens_reuse_one_buffer() {
        let mut buf = String::from("stale");
        let mut seen = Vec::new();
        for_each_token("İstanbul, STRASSE 2010", &mut buf, |token, start, end| {
            seen.push((token.to_owned(), start, end));
        });
        assert_eq!(
            seen,
            vec![
                ("istanbul".to_owned(), 0, 9),
                ("strasse".to_owned(), 11, 18),
                ("2010".to_owned(), 19, 23)
            ]
        );
        assert!(buf.is_empty(), "buffer is left cleared");
    }

    #[test]
    fn combining_marks_split_tokens() {
        // A lone combining mark is not alphanumeric: it separates, exactly
        // like punctuation.
        let tokens = tokenize("cafe\u{301} au lait");
        assert_eq!(texts(&tokens), vec!["cafe", "au", "lait"]);
    }

    #[test]
    fn normalize_phrase_is_canonical() {
        assert_eq!(normalize_phrase("Barack  OBAMA"), "barack obama");
        assert_eq!(normalize_phrase("air-traffic control"), "air traffic control");
        assert_eq!(normalize_phrase(""), "");
        // Idempotent.
        assert_eq!(normalize_phrase("barack obama"), "barack obama");
    }
}
